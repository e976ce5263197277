"""Protocol-sweep oracle: late fusion beats both streams on every split.

The seed-7 corpus is synthesized once and each stream's feature matrix
is built once over all 72 sequences; a sequence's feature does not
depend on the split, so every split trains and scores on a slice of the
same rows.  Each split then runs the library steps that ``train``,
``predict`` and ``eval`` run, with the CLI defaults and a ROI side of 64.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dynafuse import cli, fusion_eval, learn, synthgen

# Correct out of the test side: motion, std, maximum, average, product.
SPLITS = {
    "views 1,2 -> 3": (fusion_eval.SplitProtocol.cross_view([1, 2], [3]), (20, 16, 17, 20, 23), 24),
    "views 1,3 -> 2": (fusion_eval.SplitProtocol.cross_view([1, 3], [2]), (22, 16, 20, 21, 23), 24),
    "views 2,3 -> 1": (fusion_eval.SplitProtocol.cross_view([2, 3], [1]), (23, 16, 24, 24, 24), 24),
    "subjects 0-4 -> 5-7": (
        fusion_eval.SplitProtocol.cross_subject(range(5), range(5, 8)), (25, 19, 25, 27, 27), 27,
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Sorted entries, their labels and both streams' feature matrices."""
    root = tmp_path_factory.mktemp("protocols")
    cfg = synthgen.SynthConfig(seed=7)
    synthgen.write_corpus(synthgen.generate(cfg), root, cfg)
    entries = sorted(synthgen.load_manifest(root / "manifest.json")["sequences"],
                     key=lambda e: e["id"])
    std_cfg = {"k": 10, "roi_side": 64, "on_silhouette": True, "pool": "mean"}
    features = {
        "motion": cli._feature_matrix(root, entries, "motion", {"pool": "mean"}),
        "std": cli._feature_matrix(root, entries, "std", std_cfg),
    }
    return entries, np.array([e["class_id"] for e in entries]), features, cfg.num_classes


@pytest.fixture(scope="module")
def sweep(corpus):
    """Each split's evaluate() report and number of test sequences."""
    entries, labels, features, num_classes = corpus
    row = {e["id"]: i for i, e in enumerate(entries)}
    results = {}
    for split, (protocol, _, _) in SPLITS.items():
        train_ids, test_ids = fusion_eval.make_splits(entries, protocol)
        train_rows = [row[i] for i in train_ids]
        test_rows = [row[i] for i in test_ids]
        scores = {}
        for stream, matrix in features.items():
            model, _ = learn.train(matrix[train_rows], labels[train_rows], num_classes,
                                   learn.AdamConfig(), val_fraction=0.2)
            scores[stream] = learn.predict(model, matrix[test_rows])
        report = fusion_eval.evaluate(scores, labels[test_rows])
        results[split] = report, len(test_rows)
    return results


@pytest.mark.parametrize("split", list(SPLITS))
def test_product_fusion_beats_both_streams(sweep, split):
    _, expected, num_test = SPLITS[split]
    report, n = sweep[split]
    assert n == num_test
    reports = [report["streams"]["motion"], report["streams"]["std"]]
    reports += [report["fusion"][mode.value] for mode in fusion_eval.FusionMode]
    correct = tuple(int(round(rep.accuracy * n)) for rep in reports)
    assert correct == expected
    motion, std, _, _, product = correct
    assert product > max(motion, std)


def test_cross_view_report_is_the_benchmark_reference(sweep):
    """Views 1,2 -> 3 through the library gives the CLI's report, byte for byte."""
    report, n = sweep["views 1,2 -> 3"]
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["experiment_64"]["report_sha256"]
    digest = hashlib.sha256(fusion_eval.report_to_json(report, num_samples=n).encode())
    assert digest.hexdigest() == expected
