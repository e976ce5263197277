"""Rank pooling against direct-summation and brute-force pair oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynafuse import rankpool, synthgen
from dynafuse.rankpool import (
    MAX_FRAMES,
    RankVector,
    arp_coefficients,
    dynamic_feature,
    dynamic_image,
    exact_rank_pool,
    time_average,
)
from dynafuse.tensorio import (
    FeatureSequence,
    VideoSequence,
    read_frame,
    video_from_frame_files,
    write_frame,
)


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


def exact_rank_pool_oracle(s: FeatureSequence, lam, step=0.1, max_iter=10_000, tol=1e-8):
    """The pairwise form of ``exact_rank_pool``: one (N(N-1)/2, d) row of
    Q_t1 - Q_t2 per pair, and the subgradient sums the active rows.
    Returns (r, iterations, final_objective, converged)."""
    q = time_average(s)
    n = len(s)
    pair_scale = 2.0 / (n * (n - 1))
    t1_idx, t2_idx = np.triu_indices(n, k=1)
    diff = q[t1_idx] - q[t2_idx]

    def objective(r):
        scores = q @ r
        hinge = np.maximum(1.0 - scores[t2_idx] + scores[t1_idx], 0.0).sum()
        return 0.5 * lam * float(r @ r) + pair_scale * float(hinge)

    r = np.zeros(s.vectors.shape[1])
    obj = objective(r)
    iterations, converged, cur_step = 0, False, step
    for _ in range(max_iter):
        scores = q @ r
        active = (1.0 - scores[t2_idx] + scores[t1_idx]) > 0.0
        grad = lam * r + pair_scale * diff[active].sum(axis=0)
        accepted = False
        while cur_step > 1e-16:
            candidate = r - cur_step * grad
            cand_obj = objective(candidate)
            if cand_obj < obj:
                accepted = True
                break
            cur_step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = obj - cand_obj
        r, obj = candidate, cand_obj
        iterations += 1
        if improvement < tol:
            converged = True
            break
    return r, iterations, obj, converged


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
        return VideoSequence.from_frames([np.full((1, 4, 6), value)] * n)

    def test_constant_video_raw_zero(self):
        di = dynamic_image(self.constant_video(0.7))
        np.testing.assert_allclose(di.raw, 0.0, atol=1e-12)
        np.testing.assert_allclose(di.frame, 0.5)

    def test_two_frame_hand_value(self):
        v = VideoSequence.from_frames([np.zeros((1, 3, 3)), np.ones((1, 3, 3))])
        np.testing.assert_allclose(dynamic_image(v).raw, 0.5, atol=1e-12)

    def test_shape_contract(self):
        rng = np.random.default_rng(41)
        frames = [rng.random((3, 5, 4)) for _ in range(6)]
        di = dynamic_image(VideoSequence.from_frames(frames))
        assert di.raw.shape == (3, 5, 4)
        assert di.frame.shape == (3, 5, 4)

    def test_display_normalized(self):
        rng = np.random.default_rng(42)
        frames = [rng.random((1, 6, 6)) for _ in range(4)]
        di = dynamic_image(VideoSequence.from_frames(frames))
        assert di.frame.min() >= 0.0 and di.frame.max() <= 1.0

    def test_linearity(self):
        """raw pooling is linear: DI(aV1 + bV2) = a DI(V1) + b DI(V2)."""
        rng = np.random.default_rng(43)
        n = 5
        stack1 = rng.random((n, 1, 4, 4))
        stack2 = rng.random((n, 1, 4, 4))
        a, b = 0.3, 1.7

        def video(stack):
            return VideoSequence.from_frames(list(stack))

        lhs = dynamic_image(video(a * stack1 + b * stack2)).raw
        rhs = a * dynamic_image(video(stack1)).raw + b * dynamic_image(video(stack2)).raw
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_pools_the_loaded_array_without_a_copy(self, tmp_path):
        """Loading a 64-frame RGB video and pooling it peaks at about one
        (n, C, H, W) float64 array, and the result equals pooling the
        stacked per-file frames."""
        rng = np.random.default_rng(44)
        n, c, h, w = 64, 3, 128, 128
        paths = [tmp_path / f"{t:04d}.ppm" for t in range(n)]
        for path in paths:
            write_frame(rng.random((c, h, w)), path)
        tracemalloc.start()
        try:
            raw = dynamic_image(video_from_frame_files(paths)).raw
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * c * h * w * 8
        stack = np.stack([read_frame(path) for path in paths])
        expected = np.tensordot(arp_coefficients(n).gamma, stack, axes=(0, 0))
        np.testing.assert_array_equal(raw, expected)

    def test_empty_video(self):
        with pytest.raises(ValueError, match="empty"):
            dynamic_image(VideoSequence.from_frames(()))


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

    def test_matches_pairwise_oracle(self):
        """Per-frame active counts give the pairwise solver's iterates: the
        same accept/reject path, and r and E equal up to reordered sums."""
        rng = np.random.default_rng(50)
        for lam in (1e-3, 0.01, 0.1, 1.0):
            for _ in range(15):
                n = int(rng.integers(2, 13))
                d = int(rng.integers(1, 6))
                s = seq(rng.standard_normal((n, d)))
                r, iterations, objective, converged = exact_rank_pool_oracle(s, lam)
                result = exact_rank_pool(s, lam=lam)
                assert result.iterations == iterations
                assert result.converged == converged
                assert np.linalg.norm(result.r - r) <= 1e-12 * np.linalg.norm(r)
                assert abs(result.final_objective - objective) <= 1e-12 * objective

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 24),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 1.0),
        step=st.floats(0.01, 1.0),
        tol=st.sampled_from([0.0, 1e-8, 1e-4]),
        max_iter=st.integers(0, 3000),
    )
    # long runs of small steps, where most steps are jumped over
    @example(n=24, d=8, seed=1, lam=1e-3, step=0.01, tol=1e-8, max_iter=3000)
    @example(n=20, d=3, seed=2, lam=0.01, step=0.1, tol=1e-8, max_iter=3000)
    @example(n=12, d=5, seed=3, lam=0.05, step=0.3, tol=1e-4, max_iter=3000)
    @example(n=16, d=2, seed=4, lam=2e-3, step=0.05, tol=1e-8, max_iter=900)
    def test_matches_pairwise_oracle_property(self, n, d, seed, lam, step, tol, max_iter):
        """The Gram-form solver with its jumps takes the pairwise solver's
        path: the same accepted steps, stop and values up to reordered sums.

        With tol = 0 the descent goes on until no halved step lowers the
        objective, so its last steps turn on margins at rounding level and
        any reordering of the sums changes them (the per-frame solver
        before the Gram form already differed from this oracle in
        iterations there).  For those runs only the objectives must agree.
        """
        s = seq(np.random.default_rng(seed).standard_normal((n, d)))
        r, iterations, objective, converged = exact_rank_pool_oracle(
            s, lam, step=step, max_iter=max_iter, tol=tol
        )
        result = exact_rank_pool(s, lam=lam, step=step, max_iter=max_iter, tol=tol)
        if tol == 0.0:
            assert abs(result.final_objective - objective) <= 1e-9 * objective
            return
        assert result.iterations == iterations
        assert result.converged == converged
        assert np.linalg.norm(result.r - r) <= 1e-12 * np.linalg.norm(r)
        assert abs(result.final_objective - objective) <= 1e-12 * objective

    def test_jumps_cut_evaluations_below_a_third_of_iterations(self, monkeypatch):
        """A 64-frame solve on 8x8-pooled RGB frames of a synthetic video
        (d = 192) spends one objective evaluation on each run of steps
        with a fixed active set, not one per step."""
        config = synthgen.SynthConfig(
            subjects=1, views=1, frames_per_video=64, frame_side=32, seed=7
        )
        video = synthgen.generate(config)[0].rgb.data  # (64, 3, 32, 32)
        vectors = video.reshape(64, 3, 8, 4, 8, 4).mean(axis=(3, 5)).reshape(64, 192)
        calls = []
        evaluate = rankpool._evaluate

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(rankpool, "_evaluate", counted)
        result = exact_rank_pool(seq(vectors), lam=0.01)
        assert result.converged and result.iterations > 1000
        assert 3 * len(calls) < result.iterations

    def test_rejects_more_frames_than_the_bound_before_allocating(self):
        """Past MAX_FRAMES the (n, n) working set is refused up front."""
        s = seq(np.zeros((MAX_FRAMES + 1, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n = {MAX_FRAMES + 1} .*{MAX_FRAMES}"):
                exact_rank_pool(s, lam=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (MAX_FRAMES + 1) ** 2  # one (n, n) bool mask would be this

    def test_memory_is_linear_in_frames_times_dim(self):
        """No per-pair (N(N-1)/2, d) array: the pairwise form would hold
        11175 x 4000 float64 (358 MB) for this sequence."""
        n, d = 150, 4000
        s = seq(np.random.default_rng(51).standard_normal((n, d)))
        tracemalloc.start()
        try:
            exact_rank_pool(s, lam=0.01, max_iter=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * d * 8

    def test_running_means_reuse_the_cumsum_buffer(self):
        """time_average divides its cumulative sums in place, so a solve
        holds one (n, d) float64 array beside its input, not two."""
        n, d = 200, 12288
        s = seq(np.random.default_rng(52).standard_normal((n, d)))
        tracemalloc.start()
        try:
            exact_rank_pool(s, lam=0.01, max_iter=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"step": 0.0},
            {"step": -0.1},
            {"step": float("nan")},
            {"max_iter": -1},
            {"tol": -1e-8},
            {"tol": float("nan")},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        """Rejected up front: a zero or NaN step would report converged=True
        after no step, a NaN or infinite lam a NaN objective."""
        with pytest.raises(ValueError, match="must be"):
            exact_rank_pool(seq([[0.0], [1.0]]), **kwargs)

    def test_max_iter_zero_is_not_converged(self):
        result = exact_rank_pool(seq([[0.0], [1.0]]), lam=0.01, max_iter=0)
        assert result.iterations == 0 and not result.converged
        np.testing.assert_array_equal(result.r, [0.0])

    def test_rank_vector_rejects_non_finite_objective(self):
        with pytest.raises(ValueError, match="not finite"):
            RankVector(r=np.zeros(1), lam=0.01, iterations=0,
                       final_objective=float("nan"), converged=True)

    def test_pooling_records_reject_non_finite_arrays(self):
        """A NaN passes the coefficients' sum and last-value checks; the
        finiteness scan catches it, as it does in a rank vector."""
        with pytest.raises(ValueError, match="non-finite"):
            rankpool.ArpCoefficients(n=2, gamma=np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            RankVector(r=np.array([np.inf]), lam=0.01, iterations=0,
                       final_objective=0.0, converged=True)


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
