"""Corpus generator determinism, construction guarantees and the manifest."""

import json

import numpy as np
import pytest

from dynafuse.synthgen import (
    SynthConfig,
    _clamped_center,
    corpus_manifest,
    generate,
    load_manifest,
    rasterize,
    shape_at,
    view_affine,
    write_corpus,
)


class TestGenerate:
    def test_counting_contract(self):
        cfg = SynthConfig(seed=7)
        pairs = generate(cfg)
        assert len(pairs) == 3 * 8 * 3
        for pair in pairs:
            assert len(pair.rgb) == 16 and len(pair.depth) == 16
            assert pair.rgb.frame_shape == (3, 64, 64)
            assert pair.depth.frame_shape == (1, 64, 64)

    def test_determinism_bitwise(self):
        cfg = SynthConfig(num_classes=2, subjects=2, views=2, frames_per_video=4,
                          frame_side=24, seed=5)
        a = generate(cfg)
        b = generate(cfg)
        for pa, pb in zip(a, b):
            assert pa.seq_id == pb.seq_id
            np.testing.assert_array_equal(pa.rgb.data, pb.rgb.data)
            np.testing.assert_array_equal(pa.depth.data, pb.depth.data)

    def test_views_are_warps_of_one_canonical_sequence(self):
        """With zero noise, each view's depth frames are exact rasterizations
        of the same canonical shapes under that view's affine warp."""
        cfg = SynthConfig(num_classes=3, subjects=2, views=3, frames_per_video=6,
                          frame_side=32, noise_sigma=0.0, seed=9)
        pairs = {p.seq_id: p for p in generate(cfg)}
        for class_id in range(3):
            for view_id in (1, 2, 3):
                pair = pairs[f"c{class_id}_s1_v{view_id}"]
                affine = view_affine(view_id)
                for t, frame in enumerate(pair.depth.data):
                    shape = shape_at(cfg, class_id, 1, t)
                    expected = rasterize(shape, affine, cfg.frame_side)
                    np.testing.assert_array_equal(frame[0], expected.astype(float))

    def test_depth_twin_is_binary_silhouette(self):
        cfg = SynthConfig(subjects=1, views=1, frames_per_video=3, seed=2)
        for pair in generate(cfg):
            assert set(np.unique(pair.depth.data).tolist()) <= {0.0, 1.0}

    def test_noise_only_on_rgb(self):
        quiet = SynthConfig(subjects=1, views=1, frames_per_video=3, noise_sigma=0.0, seed=3)
        loud = SynthConfig(subjects=1, views=1, frames_per_video=3, noise_sigma=0.05, seed=3)
        pq = generate(quiet)[0]
        pl = generate(loud)[0]
        assert not np.array_equal(pq.rgb.data[0], pl.rgb.data[0])
        np.testing.assert_array_equal(pq.depth.data[0], pl.depth.data[0])

    def test_out_of_bounds_trajectory_clamps_with_warning(self):
        """Default programs stay inside the frame; the clamp path guards
        non-default geometry."""
        with pytest.warns(UserWarning, match="clamp"):
            clamped = _clamped_center(0.9, 0.2, "x")
        assert clamped == 0.8
        with pytest.warns(UserWarning, match="clamp"):
            assert _clamped_center(0.5, 0.7, "y") == 0.5

    def test_rgb_values_in_unit_range(self):
        cfg = SynthConfig(subjects=2, views=2, frames_per_video=4, noise_sigma=0.1, seed=6)
        for pair in generate(cfg):
            assert pair.rgb.data.min() >= 0.0 and pair.rgb.data.max() <= 1.0


class TestManifest:
    def test_count_and_unique_ids(self):
        cfg = SynthConfig(subjects=2, views=2, frames_per_video=2, seed=1)
        pairs = generate(cfg)
        manifest = corpus_manifest(pairs, cfg)
        assert len(manifest["sequences"]) == len(pairs)
        ids = [e["id"] for e in manifest["sequences"]]
        assert len(ids) == len(set(ids))

    def test_roundtrip_parse_identity(self):
        cfg = SynthConfig(subjects=1, views=2, frames_per_video=2, seed=1)
        manifest = corpus_manifest(generate(cfg), cfg)
        assert json.loads(json.dumps(manifest)) == manifest

    def test_written_corpus_loads(self, tmp_path):
        cfg = SynthConfig(num_classes=2, subjects=1, views=2, frames_per_video=3,
                          frame_side=24, seed=8)
        pairs = generate(cfg)
        write_corpus(pairs, tmp_path, cfg)
        manifest = load_manifest(tmp_path / "manifest.json")
        assert len(manifest["sequences"]) == len(pairs)
        entry = manifest["sequences"][0]
        rgb_files = sorted((tmp_path / entry["rgb_dir"]).glob("*.ppm"))
        depth_files = sorted((tmp_path / entry["depth_dir"]).glob("*.pgm"))
        assert len(rgb_files) == 3 and len(depth_files) == 3

    def test_duplicate_ids_rejected(self, tmp_path):
        bad = {"sequences": [{"id": "a"}, {"id": "a"}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="unique"):
            load_manifest(path)
