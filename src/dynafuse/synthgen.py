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
strengths.  ``write_corpus`` holds one rendered pair of a ``Corpus`` at a
time (2.1 MB at the default 64 px), never the whole corpus.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
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
        if not 0 <= self.noise_sigma < float("inf"):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def shape_at(cfg: SynthConfig, class_id: int, subject_id: int, t: int) -> ShapeSpec:
    """Canonical (pre-warp) ellipse of frame t, 0-based, for one class/subject."""
    return _shape(cfg, class_id, _subject_traits(cfg, subject_id), t)


def _shape(cfg: SynthConfig, class_id: int, traits: _SubjectTraits, t: int) -> ShapeSpec:
    if not 0 <= class_id < cfg.num_classes:
        raise ValueError(f"class_id {class_id} outside [0, {cfg.num_classes})")
    n = cfg.frames_per_video
    tau = t / (n - 1) if n > 1 else 0.0
    if class_id == 0:
        rx = _SLIDE_RX * traits.size
        ry = _SLIDE_RY * traits.size
        cx = _CENTER + _SLIDE_SPAN * traits.speed * (2.0 * tau - 1.0)
        return ShapeSpec(cx=cx, cy=_CENTER, rx=rx, ry=ry)
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
        return ShapeSpec(cx=cx, cy=_CENTER, rx=rx, ry=ry)
    rx = _SLIDE_RX * traits.size
    ry = _SLIDE_RY * traits.size
    cy = _CENTER + _BOUNCE_SPAN * math.sin(2.0 * math.pi * 2.0 * traits.speed * tau)
    return ShapeSpec(cx=_CENTER, cy=cy, rx=rx, ry=ry)


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
    return _masks([shape], affine, side)[0]


def _masks(shapes: list[ShapeSpec], affine: np.ndarray, side: int) -> np.ndarray:
    """(n, side, side) masks of n ellipses under one warp: the grid is pulled
    back once, and every frame's ellipse is tested with the same per-pixel
    arithmetic as a single one."""
    coords = (np.arange(side, dtype=np.float64) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    inv = np.linalg.inv(affine)
    dx = xs - _CENTER
    dy = ys - _CENTER
    px = inv[0, 0] * dx + inv[0, 1] * dy + _CENTER
    py = inv[1, 0] * dx + inv[1, 1] * dy + _CENTER
    cx, cy, rx, ry = np.array([[s.cx, s.cy, s.rx, s.ry] for s in shapes]).T[:, :, None, None]
    return ((px - cx) / rx) ** 2 + ((py - cy) / ry) ** 2 <= 1.0


def _render_pair(cfg: SynthConfig, class_id: int, subject_id: int, view_id: int) -> SequencePair:
    traits = _subject_traits(cfg, subject_id)
    n, side = cfg.frames_per_video, cfg.frame_side
    shapes = [_shape(cfg, class_id, traits, t) for t in range(n)]
    masks = _masks(shapes, view_affine(view_id), side)
    fill = np.array([0.75, 0.62, 0.50]) + np.asarray(traits.tint)
    background = 0.06
    if cfg.noise_sigma > 0:
        # one draw per video yields the same stream as one per frame
        noise_rng = np.random.default_rng([cfg.seed, 202, class_id, subject_id, view_id])
        rgb = noise_rng.standard_normal((n, 3, side, side))
        rgb *= cfg.noise_sigma
    else:
        rgb = np.zeros((n, 3, side, side))
    for c in range(3):
        rgb[:, c] += background + (fill[c] - background) * masks
    np.clip(rgb, 0.0, 1.0, out=rgb)
    depth = masks[:, None].astype(np.float64)
    rgb.flags.writeable = depth.flags.writeable = False
    meta = dict(class_id=class_id, subject_id=subject_id, view_id=view_id)
    return SequencePair(
        seq_id=f"c{class_id}_s{subject_id}_v{view_id}",
        rgb=VideoSequence(rgb, **meta),
        depth=VideoSequence(depth, **meta),
    )


class Corpus(Sequence):
    """All class x subject x view sequence pairs, class-major, fully determined
    by the seed; pair ``i`` is rendered each time it is indexed and never kept."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg

    def __len__(self) -> int:
        return self.cfg.num_classes * self.cfg.subjects * self.cfg.views

    def __getitem__(self, i: int) -> SequencePair:
        class_id, rest = divmod(range(len(self))[i], self.cfg.subjects * self.cfg.views)
        subject_id, view = divmod(rest, self.cfg.views)
        return _render_pair(self.cfg, class_id, subject_id, view + 1)

    def __iter__(self):
        # unlike Sequence's own, keeps no reference to the pair it last gave
        return map(self.__getitem__, range(len(self)))


def generate(cfg: SynthConfig) -> list[SequencePair]:
    """Every pair of ``Corpus(cfg)``, rendered at once."""
    return list(Corpus(cfg))


def _write_pair(pair: SequencePair, outdir: Path) -> dict:
    """Write one pair's frames and return its manifest entry."""
    for video, kind, suffix in ((pair.rgb, "rgb", "ppm"), (pair.depth, "depth", "pgm")):
        frame_dir = outdir / pair.seq_id / kind
        frame_dir.mkdir(parents=True, exist_ok=True)
        for t, frame in enumerate(video.data):
            write_frame(frame, frame_dir / f"{t:04d}.{suffix}")
    return {
        "id": pair.seq_id,
        "class_id": pair.rgb.class_id,
        "subject_id": pair.rgb.subject_id,
        "view_id": pair.rgb.view_id,
        "num_frames": len(pair.rgb),
        "rgb_dir": f"{pair.seq_id}/rgb",
        "depth_dir": f"{pair.seq_id}/depth",
    }


def write_corpus(pairs: Iterable[SequencePair], outdir, cfg: SynthConfig) -> dict:
    """Write each pair's frames as portable pixmaps/graymaps, then manifest.json.
    ``pairs`` is iterated once, so a ``Corpus`` is written one rendered pair at a time."""
    outdir = Path(outdir)
    sequences = []
    for pair in pairs:
        sequences.append(_write_pair(pair, outdir))
        del pair  # not held while the next pair renders
    manifest = {"root": ".", "config": asdict(cfg), "sequences": sequences}
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_manifest(path) -> dict:
    """Read a manifest whose ``root``, if given, is a string, and check each
    entry once: a unique string ``id``, ``class_id``, ``subject_id`` and
    ``view_id`` integers >= 0, and string paths under ``rgb_dir``,
    ``depth_dir`` and ``std_features`` if given."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("sequences"), list):
        raise ValueError(f"manifest {path} has no 'sequences' list")
    if not isinstance(manifest.get("root", "."), str):
        raise ValueError(f"manifest {path} needs a string 'root', got {manifest['root']!r:.60}")
    entries = manifest["sequences"]
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ValueError(f"manifest {path}: entry {i} has no string 'id'")
    ids = [e["id"] for e in entries]
    if len(ids) != len(set(ids)):
        raise ValueError(f"manifest {path} sequence ids are not unique")
    for entry in entries:
        where = f"manifest {path}: sequence {entry['id']!r}"
        for key in ("class_id", "subject_id", "view_id"):
            if key not in entry:
                raise ValueError(f"{where} has no {key!r}")
            value = entry[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{where} needs an integer {key!r} >= 0, got {value!r}")
        for key in ("rgb_dir", "depth_dir", "std_features"):
            if not isinstance(entry.get(key, ""), str):
                raise ValueError(f"{where} needs a string {key!r}, got {entry[key]!r}")
    return manifest
