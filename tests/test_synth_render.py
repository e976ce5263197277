"""Whole-video synthesis against a pinned corpus digest and the per-frame renderer."""

import hashlib

import numpy as np
import pytest

from dynafuse.synthgen import (
    SynthConfig,
    _subject_traits,
    generate,
    shape_at,
    view_affine,
)
from dynafuse.tensorio import VideoSequence

# sha256 over every rgb then depth ``data`` array of generate(SynthConfig(seed=7)),
# pair by pair, as the frame-by-frame renderer produced it
SEED7_CORPUS_SHA256 = "c38e1184de714c6302936a2ef919f2dfb1fe73ead1b139a75f4f57665a6759d9"


def rasterize_one(shape, affine, side):
    """One frame's mask, the grid pulled back through the inverse warp each time."""
    coords = (np.arange(side, dtype=np.float64) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    inv = np.linalg.inv(affine)
    dx = xs - 0.5
    dy = ys - 0.5
    cx = inv[0, 0] * dx + inv[0, 1] * dy + 0.5
    cy = inv[1, 0] * dx + inv[1, 1] * dy + 0.5
    return ((cx - shape.cx) / shape.rx) ** 2 + ((cy - shape.cy) / shape.ry) ** 2 <= 1.0


def render_pair_per_frame(cfg, class_id, subject_id, view_id):
    """The frame-by-frame renderer that whole-video synthesis replaced."""
    traits = _subject_traits(cfg, subject_id)
    noise_rng = np.random.default_rng([cfg.seed, 202, class_id, subject_id, view_id])
    affine = view_affine(view_id)
    fill = np.array([0.75, 0.62, 0.50]) + np.asarray(traits.tint)
    background = 0.06
    rgb_frames = []
    depth_frames = []
    for t in range(cfg.frames_per_video):
        mask = rasterize_one(shape_at(cfg, class_id, subject_id, t), affine, cfg.frame_side)
        rgb = background + (fill[:, None, None] - background) * mask[None, :, :]
        if cfg.noise_sigma > 0:
            rgb = rgb + cfg.noise_sigma * noise_rng.standard_normal(rgb.shape)
        rgb = np.clip(rgb, 0.0, 1.0)
        rgb_frames.append(rgb)
        depth_frames.append(mask[None])
    return VideoSequence.from_frames(rgb_frames), VideoSequence.from_frames(depth_frames)


def test_seed7_corpus_digest():
    digest = hashlib.sha256()
    for pair in generate(SynthConfig(seed=7)):
        digest.update(pair.rgb.data.tobytes())
        digest.update(pair.depth.data.tobytes())
    assert digest.hexdigest() == SEED7_CORPUS_SHA256


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(subjects=2, views=2, frames_per_video=6, frame_side=24, noise_sigma=0.0, seed=4),
        SynthConfig(subjects=1, views=5, frames_per_video=5, frame_side=20, seed=5),
        SynthConfig(subjects=2, views=2, frames_per_video=1, frame_side=16, seed=6),
        SynthConfig(subjects=1, views=2, frames_per_video=4, frame_side=37, seed=8),
    ],
    ids=["noise_sigma_0", "mirrored_views", "one_frame", "odd_side"],
)
def test_matches_per_frame_renderer(cfg):
    pairs = generate(cfg)
    assert len(pairs) == cfg.num_classes * cfg.subjects * cfg.views
    for pair in pairs:
        meta = (pair.rgb.class_id, pair.rgb.subject_id, pair.rgb.view_id)
        rgb, depth = render_pair_per_frame(cfg, *meta)
        assert pair.rgb.data.tobytes() == rgb.data.tobytes()
        assert pair.depth.data.tobytes() == depth.data.tobytes()
        assert pair.rgb.data.shape == rgb.data.shape and pair.depth.data.shape == depth.data.shape
        assert not pair.rgb.data.flags.writeable and not pair.depth.data.flags.writeable
