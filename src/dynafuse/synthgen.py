"""Deterministic synthetic multi-view action corpus for end-to-end runs.

Each class is a motion program of a filled ellipse in unit coordinates:

* class 0 slides left to right,
* class 1 pulses (the aspect ratio sweeps tall/wide with a per-subject
  phase), and
* class 2 bounces vertically through two periods.

A view id applies a fixed affine warp (shear and scale; a horizontal
mirror joins in from view 4 up), and a subject id perturbs size, speed
and timing.  The rgb-like stream renders the shape with a subject tint
plus Gaussian pixel noise; the depth-like twin is the clean binary
silhouette.  Classes 0 and 2 share one ellipse, so silhouette key poses
tell them apart poorly while their dynamic images differ strongly; the
pulse class is the reverse, giving the two streams complementary
strengths.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensorio import VideoSequence, write_frame

_SLIDE_RX, _SLIDE_RY = 0.16, 0.11  # shared by classes 0 and 2
_PULSE_R = 0.13
_PULSE_SWING = 0.45
_SLIDE_SPAN = 0.24
_BOUNCE_SPAN = 0.16
_CENTER = 0.5


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 3
    subjects: int = 8
    views: int = 3
    frames_per_video: int = 16
    frame_side: int = 64
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "subjects", "views", "frames_per_video", "frame_side"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.num_classes > 3:
            raise ValueError("only 3 motion programs are defined")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class ShapeSpec:
    """Axis-aligned ellipse in unit coordinates."""

    cx: float
    cy: float
    rx: float
    ry: float


@dataclass(frozen=True)
class SequencePair:
    seq_id: str
    rgb: VideoSequence
    depth: VideoSequence


@dataclass(frozen=True)
class _SubjectTraits:
    size: float
    speed: float
    phase: float
    tint: tuple[float, float, float]


def _subject_traits(cfg: SynthConfig, subject_id: int) -> _SubjectTraits:
    rng = np.random.default_rng([cfg.seed, 101, subject_id])
    size = 0.85 + 0.30 * rng.random()
    speed = 0.80 + 0.40 * rng.random()
    phase = 2.0 * math.pi * rng.random()
    tint = tuple(0.10 * (2.0 * rng.random(3) - 1.0))
    return _SubjectTraits(size=size, speed=speed, phase=phase, tint=tint)


def _clamped_center(value: float, radius: float, axis: str) -> float:
    lo, hi = radius, 1.0 - radius
    if lo > hi:
        warnings.warn(f"shape radius {radius:.3f} exceeds the frame; clamping", UserWarning)
        return _CENTER
    if value < lo or value > hi:
        warnings.warn(
            f"trajectory leaves the frame on the {axis} axis; clamping", UserWarning
        )
        return min(max(value, lo), hi)
    return value


def shape_at(cfg: SynthConfig, class_id: int, subject_id: int, t: int) -> ShapeSpec:
    """Canonical (pre-warp) ellipse of frame t, 0-based, for one class/subject."""
    if not 0 <= class_id < cfg.num_classes:
        raise ValueError(f"class_id {class_id} outside [0, {cfg.num_classes})")
    traits = _subject_traits(cfg, subject_id)
    n = cfg.frames_per_video
    tau = t / (n - 1) if n > 1 else 0.0
    if class_id == 0:
        rx = _SLIDE_RX * traits.size
        ry = _SLIDE_RY * traits.size
        cx = _CENTER + _SLIDE_SPAN * traits.speed * (2.0 * tau - 1.0)
        return ShapeSpec(cx=_clamped_center(cx, rx, "x"), cy=_CENTER, rx=rx, ry=ry)
    if class_id == 1:
        # slides like class 0 while the aspect pulses: the shared
        # translation dominates the dynamic image (confusable with the
        # slide class) while the aspect sweep marks the key-pose
        # silhouettes
        theta = 2.0 * math.pi * traits.speed * tau + traits.phase
        r0 = _PULSE_R * traits.size
        rx = r0 * (1.0 + _PULSE_SWING * math.sin(theta))
        ry = r0 * (1.0 - _PULSE_SWING * math.sin(theta))
        cx = _CENTER + 0.8 * _SLIDE_SPAN * traits.speed * (2.0 * tau - 1.0)
        return ShapeSpec(cx=_clamped_center(cx, rx, "x"), cy=_CENTER, rx=rx, ry=ry)
    rx = _SLIDE_RX * traits.size
    ry = _SLIDE_RY * traits.size
    cy = _CENTER + _BOUNCE_SPAN * math.sin(2.0 * math.pi * 2.0 * traits.speed * tau)
    return ShapeSpec(cx=_CENTER, cy=_clamped_center(cy, ry, "y"), rx=rx, ry=ry)


def view_affine(view_id: int) -> np.ndarray:
    """Forward 2x2 warp (about the frame center) applied by a view, 1-based id."""
    if view_id < 1:
        raise ValueError("view ids are 1-based")
    table = {
        1: np.array([[1.0, 0.0], [0.0, 1.0]]),
        2: np.array([[1.0, 0.18], [0.0, 1.0]]),
        3: np.array([[0.88, -0.123], [0.0, 0.88]]),
    }
    if view_id in table:
        return table[view_id]
    # further views compose a horizontal mirror with a mild shear/scale
    extra = 0.05 * (view_id - 4)
    return np.array([[-0.94, 0.10 + extra], [0.0, 0.94]])


def rasterize(shape: ShapeSpec, affine: np.ndarray, side: int) -> np.ndarray:
    """Binary mask of the warped ellipse on a side x side grid.

    Pixel centers are pulled back through the inverse warp and tested
    against the canonical ellipse, so a view's frame is the exact affine
    warp of the canonical rendering.
    """
    coords = (np.arange(side, dtype=np.float64) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    inv = np.linalg.inv(affine)
    dx = xs - _CENTER
    dy = ys - _CENTER
    cx = inv[0, 0] * dx + inv[0, 1] * dy + _CENTER
    cy = inv[1, 0] * dx + inv[1, 1] * dy + _CENTER
    return ((cx - shape.cx) / shape.rx) ** 2 + ((cy - shape.cy) / shape.ry) ** 2 <= 1.0


def _render_pair(cfg: SynthConfig, class_id: int, subject_id: int, view_id: int) -> SequencePair:
    traits = _subject_traits(cfg, subject_id)
    noise_rng = np.random.default_rng([cfg.seed, 202, class_id, subject_id, view_id])
    affine = view_affine(view_id)
    fill = np.array([0.75, 0.62, 0.50]) + np.asarray(traits.tint)
    background = 0.06
    rgb_frames = []
    depth_frames = []
    for t in range(cfg.frames_per_video):
        mask = rasterize(shape_at(cfg, class_id, subject_id, t), affine, cfg.frame_side)
        rgb = background + (fill[:, None, None] - background) * mask[None, :, :]
        if cfg.noise_sigma > 0:
            rgb = rgb + cfg.noise_sigma * noise_rng.standard_normal(rgb.shape)
        rgb = np.clip(rgb, 0.0, 1.0)
        rgb_frames.append(rgb)
        depth_frames.append(mask[None])
    meta = dict(class_id=class_id, subject_id=subject_id, view_id=view_id)
    return SequencePair(
        seq_id=f"c{class_id}_s{subject_id}_v{view_id}",
        rgb=VideoSequence.from_frames(rgb_frames, **meta),
        depth=VideoSequence.from_frames(depth_frames, **meta),
    )


def generate(cfg: SynthConfig) -> list[SequencePair]:
    """All class x subject x view sequence pairs, fully determined by the seed."""
    pairs = []
    for class_id in range(cfg.num_classes):
        for subject_id in range(cfg.subjects):
            for view_id in range(1, cfg.views + 1):
                pairs.append(_render_pair(cfg, class_id, subject_id, view_id))
    return pairs


def corpus_manifest(pairs: list[SequencePair], cfg: SynthConfig, root: str | None = None) -> dict:
    """Manifest dict listing every sequence with metadata and file locations."""
    sequences = []
    for pair in pairs:
        entry = {
            "id": pair.seq_id,
            "class_id": pair.rgb.class_id,
            "subject_id": pair.rgb.subject_id,
            "view_id": pair.rgb.view_id,
            "num_frames": len(pair.rgb),
            "rgb_dir": f"{pair.seq_id}/rgb",
            "depth_dir": f"{pair.seq_id}/depth",
        }
        sequences.append(entry)
    manifest = {
        "root": root or ".",
        "config": {
            "num_classes": cfg.num_classes,
            "subjects": cfg.subjects,
            "views": cfg.views,
            "frames_per_video": cfg.frames_per_video,
            "frame_side": cfg.frame_side,
            "noise_sigma": cfg.noise_sigma,
            "seed": cfg.seed,
        },
        "sequences": sequences,
    }
    return manifest


def write_corpus(pairs: list[SequencePair], outdir, cfg: SynthConfig) -> dict:
    """Write frames as portable pixmaps/graymaps plus manifest.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        rgb_dir = outdir / pair.seq_id / "rgb"
        depth_dir = outdir / pair.seq_id / "depth"
        rgb_dir.mkdir(parents=True, exist_ok=True)
        depth_dir.mkdir(parents=True, exist_ok=True)
        for t, frame in enumerate(pair.rgb.data):
            write_frame(frame, rgb_dir / f"{t:04d}.ppm", "ppm")
        for t, frame in enumerate(pair.depth.data):
            write_frame(frame, depth_dir / f"{t:04d}.pgm", "pgm")
    manifest = corpus_manifest(pairs, cfg, root=".")
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_manifest(path) -> dict:
    manifest = json.loads(Path(path).read_text())
    if "sequences" not in manifest:
        raise ValueError("manifest has no 'sequences' list")
    ids = [e["id"] for e in manifest["sequences"]]
    if len(ids) != len(set(ids)):
        raise ValueError("manifest sequence ids are not unique")
    return manifest
