"""The benchmark's span tracer still binds to the program.

``perfbench/tracer.py`` wraps the library's public functions from outside
and reads some of their arguments by name (``learn.train``'s ``features``,
``cfg`` and ``val_fraction``) and some results by position
(``keyframe.preprocess_video``'s dropped-frame list).  A refactor that
breaks one of those bindings shows up here, not only in a traced
benchmark run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from dynafuse import cli


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
