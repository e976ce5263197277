"""Rank pooling against direct-summation and brute-force pair oracles."""

import numpy as np
import pytest

from dynafuse.rankpool import (
    arp_coefficients,
    dynamic_feature,
    dynamic_image,
    exact_rank_pool,
    time_average,
)
from dynafuse.tensorio import FeatureSequence, Frame, VideoSequence


def gamma_oracle(n: int) -> np.ndarray:
    """O(n^2) direct summation of the per-frame weights (2i - n - 1)/i."""
    i = np.arange(1, n + 1, dtype=np.float64)
    weights = (2.0 * i - n - 1.0) / i
    return np.array([weights[t:].sum() for t in range(n)])


def pair_sum_oracle(vectors: np.ndarray) -> np.ndarray:
    """Brute-force sum over ordered pairs of running-mean differences."""
    n = len(vectors)
    q = np.array([vectors[: t + 1].mean(axis=0) for t in range(n)])
    total = np.zeros(vectors.shape[1])
    for t1 in range(n):
        for t2 in range(t1 + 1, n):
            total += q[t2] - q[t1]
    return total


def arp_first_step(s: FeatureSequence) -> np.ndarray:
    """First-gradient-step direction sum_{t2 > t1} (Q_t2 - Q_t1) of the
    exact objective from r = 0, sign-corrected so scores grow with time:
    the derivation ``dynamic_feature`` collapses to closed form."""
    q = time_average(s)
    t1_idx, t2_idx = np.triu_indices(len(s), k=1)
    return (q[t2_idx] - q[t1_idx]).sum(axis=0)


def seq(vectors) -> FeatureSequence:
    return FeatureSequence(vectors=np.atleast_2d(np.asarray(vectors, dtype=np.float64)))


def cosine(a, b) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return float("nan")
    return float(a @ b / (na * nb))


class TestArpCoefficients:
    def test_n1_is_zero(self):
        np.testing.assert_array_equal(arp_coefficients(1).gamma, [0.0])

    def test_n2_hand_values(self):
        np.testing.assert_allclose(arp_coefficients(2).gamma, [-0.5, 0.5], atol=1e-12)

    def test_n4_oracle_values(self):
        expected = [-29 / 12, 7 / 12, 13 / 12, 3 / 4]
        np.testing.assert_allclose(arp_coefficients(4).gamma, expected, atol=1e-12)
        np.testing.assert_allclose(gamma_oracle(4), expected, atol=1e-12)

    def test_matches_direct_summation(self):
        for n in list(range(1, 64)) + [200, 1000]:
            gamma = arp_coefficients(n).gamma
            oracle = gamma_oracle(n)
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(gamma - oracle).max() / scale <= 1e-9

    def test_sums_to_zero(self):
        for n in (1, 2, 7, 100, 5000):
            assert abs(arp_coefficients(n).gamma.sum()) <= 1e-6 * n

    def test_last_coefficient(self):
        for n in (1, 3, 10, 999):
            assert abs(arp_coefficients(n).gamma[-1] - (n - 1) / n) <= 1e-9

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            arp_coefficients(0)


class TestDynamicImage:
    def constant_video(self, value, n=5):
        frame = Frame.from_array(np.full((4, 6), value))
        return VideoSequence(frames=(frame,) * n)

    def test_constant_video_raw_zero(self):
        di = dynamic_image(self.constant_video(0.7))
        np.testing.assert_allclose(di.raw, 0.0, atol=1e-12)
        np.testing.assert_allclose(di.frame.data, 0.5)

    def test_two_frame_hand_value(self):
        v = VideoSequence(
            frames=(
                Frame.from_array(np.zeros((3, 3))),
                Frame.from_array(np.ones((3, 3))),
            )
        )
        np.testing.assert_allclose(dynamic_image(v).raw, 0.5, atol=1e-12)

    def test_shape_contract(self):
        rng = np.random.default_rng(41)
        frames = tuple(Frame.from_array(rng.random((3, 5, 4))) for _ in range(6))
        di = dynamic_image(VideoSequence(frames=frames))
        assert di.raw.shape == (3, 5, 4)
        assert di.frame.shape == (3, 5, 4)

    def test_display_normalized(self):
        rng = np.random.default_rng(42)
        frames = tuple(Frame.from_array(rng.random((6, 6))) for _ in range(4))
        di = dynamic_image(VideoSequence(frames=frames))
        assert di.frame.data.min() >= 0.0 and di.frame.data.max() <= 1.0

    def test_linearity(self):
        """raw pooling is linear: DI(aV1 + bV2) = a DI(V1) + b DI(V2)."""
        rng = np.random.default_rng(43)
        n = 5
        stack1 = rng.random((n, 4, 4))
        stack2 = rng.random((n, 4, 4))
        a, b = 0.3, 1.7

        def video(stack):
            return VideoSequence(frames=tuple(Frame.from_array(f) for f in stack))

        lhs = dynamic_image(video(a * stack1 + b * stack2)).raw
        rhs = a * dynamic_image(video(stack1)).raw + b * dynamic_image(video(stack2)).raw
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_empty_video(self):
        with pytest.raises(ValueError, match="empty"):
            dynamic_image(VideoSequence(frames=()))


class TestDynamicFeature:
    def test_constant_sequence_is_zero(self):
        s = seq(np.ones((6, 3)) * 2.5)
        np.testing.assert_allclose(dynamic_feature(s), 0.0, atol=1e-12)

    def test_linear_ramp_hand_value(self):
        """phi_t = t*u for n=4 gives (sum_t gamma_t t) u = 5 u by direct sum."""
        u = np.array([1.0, -2.0])
        s = seq(np.outer([1, 2, 3, 4], u))
        gamma = gamma_oracle(4)
        expected = float(gamma @ [1, 2, 3, 4]) * u
        np.testing.assert_allclose(dynamic_feature(s), expected, atol=1e-12)
        np.testing.assert_allclose(expected, 5.0 * u, atol=1e-12)

    def test_single_frame_zero(self):
        np.testing.assert_array_equal(dynamic_feature(seq([[3.0, 4.0]])), [0.0, 0.0])


class TestTimeAverage:
    def test_two_step_means(self):
        q = time_average(seq([[0.0], [1.0]]))
        np.testing.assert_allclose(q, [[0.0], [0.5]])

    def test_constant_sequence(self):
        q = time_average(seq(np.full((5, 2), 3.0)))
        np.testing.assert_allclose(q, 3.0)

    def test_last_entry_is_global_mean(self):
        rng = np.random.default_rng(44)
        vectors = rng.random((9, 4))
        q = time_average(seq(vectors))
        np.testing.assert_allclose(q[-1], vectors.mean(axis=0), atol=1e-12)


class TestExactRankPool:
    def test_analytic_instance(self):
        """For Q = [0, 0.5] and lam = 0.01 the hinge dies at r = 2 while the
        quadratic grows past it, so r* = 2 and E(r*) = 0.005 * 4 = 0.02."""
        result = exact_rank_pool(seq([[0.0], [1.0]]), lam=0.01)
        assert abs(result.r[0] - 2.0) <= 1e-3
        assert abs(result.final_objective - 0.02) <= 1e-4
        assert result.converged

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(45)
        result = exact_rank_pool(seq(rng.random((5, 3))), lam=1e6)
        assert np.linalg.norm(result.r) < 1e-3

    def test_reversal_flips_direction(self):
        fwd = exact_rank_pool(seq([[0.0], [1.0]]), lam=0.01)
        rev = exact_rank_pool(seq([[1.0], [0.0]]), lam=0.01)
        assert float(fwd.r @ rev.r) < 0

    def test_monotone_scores_on_ramp_sequences(self):
        rng = np.random.default_rng(46)
        for n in range(2, 9):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            s = seq(np.outer(np.arange(1, n + 1), u))
            result = exact_rank_pool(s, lam=0.01)
            scores = time_average(s) @ result.r
            assert np.all(np.diff(scores) > 0)

    def test_objective_never_negative(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            result = exact_rank_pool(seq(rng.random((4, 2))), lam=0.5)
            assert result.final_objective >= 0

    def test_objective_never_exceeds_start(self):
        """Accepted iterations only decrease, so the final objective stays
        at or below E(0) = 1 (every hinge active with unit margin)."""
        rng = np.random.default_rng(49)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            result = exact_rank_pool(seq(rng.standard_normal((n, 3))), lam=0.1)
            assert result.final_objective <= 1.0 + 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            exact_rank_pool(seq([[1.0]]), lam=0.01)


class TestArpFirstStep:
    def test_two_frame_hand_value(self):
        s = seq([[0.0], [1.0]])
        np.testing.assert_allclose(arp_first_step(s), [0.5], atol=1e-12)
        np.testing.assert_allclose(dynamic_feature(s), [0.5], atol=1e-12)

    def test_parallel_to_dynamic_feature(self):
        """The first-step direction equals the coefficient form; cosine 1
        against the brute-force pair sum validates the derivation."""
        rng = np.random.default_rng(48)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            vectors = rng.standard_normal((n, d))
            s = seq(vectors)
            first = arp_first_step(s)
            pooled = dynamic_feature(s)
            oracle = pair_sum_oracle(vectors)
            np.testing.assert_allclose(first, oracle, atol=1e-9)
            assert cosine(first, pooled) >= 1.0 - 1e-9

    def test_constant_sequence_both_zero(self):
        s = seq(np.full((5, 2), 1.3))
        np.testing.assert_allclose(arp_first_step(s), 0.0, atol=1e-9)
        np.testing.assert_allclose(dynamic_feature(s), 0.0, atol=1e-9)
