"""Corpus generator determinism, construction guarantees and the manifest."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from dynafuse import cli
from dynafuse.synthgen import (
    Corpus,
    SynthConfig,
    _shape,
    _subject_traits,
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
            assert pair.rgb.data.shape[1:] == (3, 64, 64)
            assert pair.depth.data.shape[1:] == (1, 64, 64)

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

    def test_every_ellipse_lies_inside_the_frame(self):
        """Subject traits lie in size [0.85, 1.15) and speed [0.8, 1.2), so
        every canonical ellipse stays inside the unit frame by a margin:
        class 0 has |cx - 1/2| <= 0.288 with rx <= 0.184 (margin 0.028),
        class 1 |cx - 1/2| <= 0.2304 with rx <= 0.2168 (0.0528) and class 2
        |cy - 1/2| <= 0.16 with ry <= 0.1265 (0.2135).  Checked over seeds
        0-199, 8 subjects and every frame of 1, 2, 16 and 65-frame videos."""
        margin = {0: 1.0, 1: 1.0, 2: 1.0}
        for seed in range(200):
            base = SynthConfig(seed=seed)
            traits = [_subject_traits(base, s) for s in range(8)]
            for n in (1, 2, 16, 65):
                cfg = dataclasses.replace(base, frames_per_video=n)
                for class_id, subject, t in itertools.product(range(3), traits, range(n)):
                    e = _shape(cfg, class_id, subject, t)
                    margin[class_id] = min(margin[class_id], e.cx - e.rx, 1 - e.cx - e.rx,
                                           e.cy - e.ry, 1 - e.cy - e.ry)
        assert margin[0] > 0.028 and margin[1] > 0.0528 and margin[2] > 0.2135

    def test_rgb_values_in_unit_range(self):
        cfg = SynthConfig(subjects=2, views=2, frames_per_video=4, noise_sigma=0.1, seed=6)
        for pair in generate(cfg):
            assert pair.rgb.data.min() >= 0.0 and pair.rgb.data.max() <= 1.0


class TestManifest:
    def test_count_and_unique_ids(self, tmp_path):
        cfg = SynthConfig(subjects=2, views=2, frames_per_video=2, seed=1)
        manifest = write_corpus(Corpus(cfg), tmp_path, cfg)
        assert len(manifest["sequences"]) == len(Corpus(cfg)) == 3 * 2 * 2
        ids = [e["id"] for e in manifest["sequences"]]
        assert len(ids) == len(set(ids))

    def test_roundtrip_parse_identity(self, tmp_path):
        cfg = SynthConfig(subjects=1, views=2, frames_per_video=2, seed=1)
        manifest = write_corpus(Corpus(cfg), tmp_path, cfg)
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
        assert load_manifest(tmp_path / "manifest.json") == manifest

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


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestStreamedCorpus:
    def test_corpus_indexes_pairs_in_class_major_order(self):
        cfg = SynthConfig(num_classes=2, subjects=2, views=3, frames_per_video=3,
                          frame_side=16, seed=4)
        corpus = Corpus(cfg)
        pairs = generate(cfg)
        assert len(corpus) == len(pairs) == 12
        assert [p.seq_id for p in corpus] == [p.seq_id for p in pairs]
        assert corpus[-1].seq_id == "c1_s1_v3"
        np.testing.assert_array_equal(corpus[-1].rgb.data, pairs[-1].rgb.data)
        with pytest.raises(IndexError):
            corpus[12]

    def test_streamed_and_listed_corpora_write_identical_trees(self, tmp_path):
        cfg = SynthConfig(num_classes=2, subjects=2, views=2, frames_per_video=3,
                          frame_side=20, seed=7)
        streamed = write_corpus(Corpus(cfg), tmp_path / "streamed", cfg)
        listed = write_corpus(generate(cfg), tmp_path / "listed", cfg)
        assert streamed == listed
        assert _tree(tmp_path / "streamed") == _tree(tmp_path / "listed")

    @staticmethod
    def synth_peak(out, subjects) -> int:
        tracemalloc.start()
        try:
            assert cli.main(["synth", "--out", str(out), "--subjects", str(subjects)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_synth_memory_is_bounded_by_one_pair(self, tmp_path):
        """``synth`` holds one rendered pair, not the corpus: its peak stays
        under four pairs' float64 planes and does not grow with subjects
        (the whole default corpus is 72 pairs, ~151 MB)."""
        cfg = SynthConfig()
        pair_bytes = cfg.frames_per_video * 4 * cfg.frame_side ** 2 * 8
        small = self.synth_peak(tmp_path / "two", subjects=2)
        full = self.synth_peak(tmp_path / "eight", subjects=8)
        assert full < 4 * pair_bytes
        assert full < 1.5 * small
