"""The benchmark's span tracer still binds to the program, and its
recorded digests still hold.

``perfbench/tracer.py`` wraps the library's public functions from outside
and reads some of their arguments by name (``learn.train``'s ``features``,
``cfg`` and ``val_fraction``) and some results by position
(``keyframe.preprocess_video``'s dropped-frame list).  A refactor that
breaks one of those bindings shows up here, not only in a traced
benchmark run.  ``perfbench/reference.json`` holds the sha256 of every
``encode-di`` output the benchmark checks; a decode or pooling change
that moves one bit shows up here too.
"""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

from dynafuse import cli, synthgen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    path = PERFBENCH / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_experiment_records_every_layer(tmp_path):
    tracer = load_tracer()()
    with tracer.installed():
        cli.run_synthetic_experiment(tmp_path, roi_side=16, epochs=2)
    spans = Counter(span[0] for span in tracer.spans)
    assert tracer.counts["synthgen.frames_written"] > 0
    assert spans["tensorio.write_frame"] >= tracer.counts["synthgen.frames_written"]
    assert tracer.counts["learn.train.adam_steps"] > 0
    assert spans["keyframe.preprocess_video"] > 0
    assert spans["keyframe.select_keyframes"] > 0


def test_encode_di_matches_the_benchmark_digest(tmp_path):
    """One long video of the benchmark's ``motion_long`` corpus (64 frames
    at 128 px, seed 7) encodes to the tensor digest the benchmark records."""
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["motion_long"]["encode_sha256"]["c0_s0_v1"]
    cfg = synthgen.SynthConfig(subjects=2, views=1, frames_per_video=64, frame_side=128, seed=7)
    [pair] = [p for p in synthgen.generate(cfg) if p.seq_id == "c0_s0_v1"]
    synthgen.write_corpus([pair], tmp_path / "videos", cfg)
    out = tmp_path / "di"
    assert cli.main(["encode-di", "--video", str(tmp_path / "videos" / "c0_s0_v1" / "rgb"),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.with_suffix(".rpt1").read_bytes()).hexdigest() == expected
