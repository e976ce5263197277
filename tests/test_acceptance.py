"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np
import pytest

from dynafuse import cli
from dynafuse.fusion_eval import FusionMode, evaluate, fuse, roc_auc
from dynafuse.imgproc import ssim
from dynafuse.keyframe import select_keyframes
from dynafuse.learn import LinearModel, gradient_check
from dynafuse.rankpool import (
    arp_coefficients,
    dynamic_feature,
    exact_rank_pool,
    time_average,
)
from dynafuse.tensorio import FeatureSequence, VideoSequence


def gamma_oracle(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=np.float64)
    weights = (2.0 * i - n - 1.0) / i
    return np.array([weights[t:].sum() for t in range(n)])


def pair_sum_oracle(vectors: np.ndarray) -> np.ndarray:
    n = len(vectors)
    q = np.array([vectors[: t + 1].mean(axis=0) for t in range(n)])
    total = np.zeros(vectors.shape[1])
    for t1 in range(n):
        for t2 in range(t1 + 1, n):
            total += q[t2] - q[t1]
    return total


def test_criterion_01_arp_coefficient_oracle():
    """Suffix-sum coefficients equal the O(n^2) direct summation."""
    for n in list(range(1, 201)) + [1000, 10_000]:
        gamma = arp_coefficients(n).gamma
        oracle = gamma_oracle(n)
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(gamma - oracle).max() / scale <= 1e-9, f"n={n}"
        assert abs(gamma.sum()) <= 1e-6 * n, f"n={n}"
    start = time.perf_counter()
    arp_coefficients(10_000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: coefficients match direct summation up to "
          f"n=10000 ({elapsed * 1000:.1f} ms for n=10000)")


def test_criterion_02_first_step_consistency():
    """Pooled features are parallel to the brute-force pair sum."""
    rng = np.random.default_rng(1234)
    worst = 1.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        vectors = rng.standard_normal((n, d))
        pooled = dynamic_feature(FeatureSequence(vectors=vectors))
        oracle = pair_sum_oracle(vectors)
        denom = np.linalg.norm(pooled) * np.linalg.norm(oracle)
        if denom == 0:
            continue
        worst = min(worst, float(pooled @ oracle / denom))
    assert worst >= 1.0 - 1e-9
    print(f"\n[criterion 2] PASS: worst cosine over 1000 sequences = {worst:.2e}")


def test_criterion_03_exact_rank_pooling():
    """Analytic instance recovers r* = 2; ramps give increasing scores."""
    result = exact_rank_pool(FeatureSequence(vectors=np.array([[0.0], [1.0]])), lam=0.01)
    assert abs(result.r[0] - 2.0) <= 1e-3
    rng = np.random.default_rng(1235)
    for n in range(2, 9):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        seq = FeatureSequence(vectors=np.outer(np.arange(1, n + 1), u))
        res = exact_rank_pool(seq, lam=0.01)
        scores = time_average(seq) @ res.r
        assert np.all(np.diff(scores) > 0), f"n={n}"
    print(f"\n[criterion 3] PASS: r* = {result.r[0]:.6f}, ramp scores increase")


def test_criterion_04_ssim():
    """Self-similarity, constant-image value and symmetry."""
    rng = np.random.default_rng(1236)
    for _ in range(100):
        f = rng.random((13, 13))
        assert abs(ssim(f, f).global_index - 1.0) <= 1e-12
    constant = ssim(np.zeros((16, 16)), np.ones((16, 16))).global_index
    assert abs(constant - 0.0099995) <= 1e-6
    for _ in range(25):
        a = rng.random((12, 14))
        b = rng.random((12, 14))
        assert abs(ssim(a, b).global_index - ssim(b, a).global_index) <= 1e-12
    print(f"\n[criterion 4] PASS: self = 1, constant pair = {constant:.9f}, symmetric")


def test_criterion_05_keyframe_determinism():
    """The constructed 11-frame video always picks frame 10 first; constant
    videos fall back to the ascending-index tie-break."""
    same = np.zeros((1, 16, 16))
    same[0, 4:10, 4:10] = 1.0
    different = np.zeros((1, 16, 16))
    different[0, 8:12, 9:13] = 1.0
    video = VideoSequence.from_frames([same] * 10 + [different])
    for _ in range(5):
        assert select_keyframes(video, k=1).frame_indices == (10,)
    constant = VideoSequence.from_frames([same] * 8)
    for k in (1, 3, 5):
        assert select_keyframes(constant, k=k).frame_indices == tuple(range(1, k + 1))
    print("\n[criterion 5] PASS: frame 10 always first; constant video picks 1..k")


def test_criterion_06_gradient_check():
    """Analytic vs central-difference gradients over 50 random draws."""
    rng = np.random.default_rng(1237)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        model = LinearModel(
            weights=rng.standard_normal((c, d)),
            bias=rng.standard_normal(c),
            num_classes=c,
            dim=d,
            feature_mean=np.zeros(d),
            feature_scale=np.ones(d),
        )
        batch = [(rng.standard_normal(d), int(rng.integers(0, c))) for _ in range(5)]
        worst = max(worst, gradient_check(model, batch))
    assert worst < 1e-4
    print(f"\n[criterion 6] PASS: max relative gradient error = {worst:.2e}")


def test_criterion_07_fusion_algebra():
    """Fusion invariants over 1000 random simplex tuples."""
    rng = np.random.default_rng(1238)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        s = int(rng.integers(1, 4))
        winner = int(rng.integers(0, c))
        streams = []
        for _ in range(s):
            v = rng.random(c) + 1e-9
            v /= v.sum()
            top = int(np.argmax(v))
            v[top], v[winner] = v[winner], v[top]
            streams.append(v)
        perm = rng.permutation(s)
        for mode in FusionMode:
            fused = fuse(streams, mode)
            assert int(np.argmax(fused)) == winner
            permuted = fuse([streams[i] for i in perm], mode)
            assert np.abs(fused - permuted).max() <= 1e-9
            if s == 1:
                assert np.abs(fused - streams[0]).max() <= 1e-9
    # accuracy from the confusion matrix equals direct accuracy
    labels = rng.integers(0, 3, size=90)
    labels[:3] = [0, 1, 2]
    raw = rng.random((90, 3)) + 1e-9
    scores = raw / raw.sum(axis=1, keepdims=True)
    rep = evaluate({"s": scores}, labels)["streams"]["s"]
    assert abs(np.trace(rep.confusion) / 90 - rep.accuracy) <= 1e-12
    print("\n[criterion 7] PASS: argmax agreement, permutation invariance, "
          "single-stream identity, confusion identity")


def test_criterion_08_roc_auc():
    """Exact AUC on degenerate cases plus the complementarity identity."""
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9]))[1] == 1.0
    assert roc_auc(labels, np.array([0.9, 0.8, 0.2, 0.1]))[1] == 0.0
    assert roc_auc(labels, np.full(4, 0.3))[1] == 0.5
    rng = np.random.default_rng(1239)
    for _ in range(100):
        n = int(rng.integers(4, 50))
        scores = rng.permutation(n).astype(float)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        assert abs(roc_auc(y, scores)[1] + roc_auc(y, -scores)[1] - 1.0) <= 1e-12
    print("\n[criterion 8] PASS: 1.0 / 0.0 / 0.5 exact; complementarity holds")


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    """Run the full pipeline twice with identical inputs."""
    runs = []
    for name in ("run_a", "run_b"):
        workdir = tmp_path_factory.mktemp(name)
        start = time.perf_counter()
        report_path = cli.run_synthetic_experiment(workdir, seed=7)
        elapsed = time.perf_counter() - start
        runs.append((report_path.read_bytes(), elapsed))
    return runs


# Frozen from the first verified run (seed 7, train views {1, 2}, test view 3):
# motion 20/24, std 16/24, product fusion 23/24.  The product value is the
# pinned regression bound.
FROZEN_PRODUCT_ACCURACY = 23 / 24


def test_criterion_09_end_to_end_fusion_beats_streams(synthetic_experiment):
    """Cross-view product fusion dominates both single streams."""
    report = json.loads(synthetic_experiment[0][0])
    motion = report["streams"]["motion"]["accuracy"]
    std = report["streams"]["std"]["accuracy"]
    product = report["fusion"]["product"]["accuracy"]
    assert product >= max(motion, std)
    assert product >= 0.90
    assert product >= FROZEN_PRODUCT_ACCURACY - 1e-12
    elapsed = synthetic_experiment[0][1]
    assert elapsed < 300.0
    print(f"\n[criterion 9] PASS: motion={motion:.4f} std={std:.4f} "
          f"product={product:.4f} in {elapsed:.1f}s")


def test_criterion_10_determinism(synthetic_experiment):
    """Repeating the experiment reproduces the report byte for byte."""
    (bytes_a, _), (bytes_b, _) = synthetic_experiment
    assert bytes_a == bytes_b
    print(f"\n[criterion 10] PASS: report JSON identical across runs "
          f"({len(bytes_a)} bytes)")
