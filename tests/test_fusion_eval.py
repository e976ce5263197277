"""Fusion algebra, split protocols and ROC/AUC tie handling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynafuse.fusion_eval import (
    EvalReport,
    FusionMode,
    SplitProtocol,
    evaluate,
    fuse,
    make_splits,
    report_to_json,
    roc_auc,
)


def random_simplex(rng, c):
    raw = rng.random(c) + 1e-9
    return raw / raw.sum()


class TestFuse:
    def test_product_hand_values(self):
        out = fuse([np.array([0.6, 0.4]), np.array([0.5, 0.5])], FusionMode.PRODUCT)
        np.testing.assert_allclose(out, [0.6, 0.4], atol=1e-12)

    def test_average_symmetry(self):
        out = fuse([np.array([0.9, 0.1]), np.array([0.1, 0.9])], FusionMode.AVERAGE)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_maximum_hand_values(self):
        out = fuse([np.array([0.7, 0.3]), np.array([0.2, 0.8])], FusionMode.MAXIMUM)
        np.testing.assert_allclose(out, [7 / 15, 8 / 15], atol=1e-12)

    def test_single_stream_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            v = random_simplex(rng, 4)
            for mode in FusionMode:
                np.testing.assert_allclose(fuse([v], mode), v, atol=1e-12)

    def test_agreed_argmax_preserved(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            winner = int(rng.integers(0, c))
            streams = []
            for _ in range(3):
                v = random_simplex(rng, c)
                top = np.argmax(v)
                v[top], v[winner] = v[winner], v[top]
                streams.append(v)
            for mode in FusionMode:
                assert np.argmax(fuse(streams, mode)) == winner

    def test_permutation_invariance(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            streams = [random_simplex(rng, 3) for _ in range(4)]
            perm = rng.permutation(4)
            for mode in FusionMode:
                np.testing.assert_allclose(
                    fuse(streams, mode),
                    fuse([streams[i] for i in perm], mode),
                    atol=1e-12,
                )

    def test_output_on_simplex(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            streams = [random_simplex(rng, 5) for _ in range(2)]
            for mode in FusionMode:
                out = fuse(streams, mode)
                assert abs(out.sum() - 1.0) <= 1e-9
                assert np.all(out >= 0)

    def test_batched_stack_matches_rows(self):
        rng = np.random.default_rng(65)
        raw = rng.random((3, 7, 4)) + 1e-9
        stack = raw / raw.sum(axis=-1, keepdims=True)
        for mode in FusionMode:
            rows = np.stack([fuse(stack[:, i], mode) for i in range(7)])
            np.testing.assert_array_equal(fuse(stack, mode), rows)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fuse([np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4])], FusionMode.AVERAGE)

    def test_empty_stream_list(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse([], FusionMode.AVERAGE)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            fuse([np.array([0.9, 0.9])], FusionMode.AVERAGE)

    def test_product_of_disjoint_one_hots_rejected(self):
        with pytest.raises(ValueError, match="zero mass"):
            fuse([np.array([1.0, 0.0]), np.array([0.0, 1.0])], FusionMode.PRODUCT)

    def test_mode_parsing(self):
        assert FusionMode.parse("max") is FusionMode.MAXIMUM
        assert FusionMode.parse("Mul") is FusionMode.PRODUCT
        with pytest.raises(ValueError, match="unknown fusion mode"):
            FusionMode.parse("median")


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def score_stacks(draw):
    """An (S, C) stack of score vectors on the simplex, S in 1..4, C in 2..6."""
    s, c = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    raw = draw(hnp.arrays(np.float64, (s, c), elements=st.floats(1e-3, 1.0)))
    return raw / raw.sum(axis=1, keepdims=True)


class TestFuseProperties:
    @PROPERTY
    @given(stack=score_stacks(), data=st.data())
    def test_stream_order_does_not_matter(self, stack, data):
        perm = data.draw(st.permutations(range(len(stack))))
        for mode in FusionMode:
            np.testing.assert_allclose(fuse(stack[list(perm)], mode), fuse(stack, mode),
                                       rtol=1e-12, atol=1e-15)

    @PROPERTY
    @given(stack=score_stacks(), copies=st.integers(1, 4))
    def test_identical_streams_keep_their_argmax(self, stack, copies):
        v = stack[0]
        top = np.sort(v)[-2:]
        assume(top[1] - top[0] > 1e-9 * top[1])  # a unique winner beyond rounding
        for mode in FusionMode:
            assert np.argmax(fuse([v] * copies, mode)) == np.argmax(v)


def corpus_entries(views=3, subjects=4, classes=2):
    entries = []
    for c in range(classes):
        for s in range(subjects):
            for v in range(1, views + 1):
                entries.append(
                    {"id": f"c{c}_s{s}_v{v}", "class_id": c, "subject_id": s, "view_id": v}
                )
    return entries


class TestMakeSplits:
    def test_cross_view_partition(self):
        entries = corpus_entries()
        protocol = SplitProtocol.cross_view([1, 2], [3])
        train, test = make_splits(entries, protocol)
        by_id = {e["id"]: e for e in entries}
        assert all(by_id[i]["view_id"] in (1, 2) for i in train)
        assert all(by_id[i]["view_id"] == 3 for i in test)
        assert len(train) + len(test) == len(entries)

    def test_four_view_combinations(self):
        """Two training views against each leftover single test view covers
        all 12 combinations of a four-view corpus."""
        entries = corpus_entries(views=4)
        combos = 0
        for pair in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            for test_view in set(range(1, 5)) - set(pair):
                protocol = SplitProtocol.cross_view(pair, [test_view])
                train, test = make_splits(entries, protocol)
                assert train and test
                combos += 1
        assert combos == 12

    def test_cross_subject_disjoint_cover(self):
        entries = corpus_entries(subjects=6)
        protocol = SplitProtocol.cross_subject([0, 1, 2], [3, 4, 5])
        train, test = make_splits(entries, protocol)
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == len(entries)

    def test_sorted_deterministic(self):
        entries = corpus_entries()
        protocol = SplitProtocol.cross_view([1], [2, 3])
        train, test = make_splits(entries, protocol)
        assert train == sorted(train) and test == sorted(test)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitProtocol.cross_view([1, 2], [2, 3])

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SplitProtocol.cross_view([1, 2], [])

    def test_empty_result_rejected(self):
        entries = corpus_entries(views=2)
        protocol = SplitProtocol.cross_view([1, 2], [9])
        with pytest.raises(ValueError, match="empty"):
            make_splits(entries, protocol)


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        _, auc = roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9]))
        assert auc == 1.0

    def test_all_ties_is_diagonal(self):
        labels = np.array([0, 1, 0, 1])
        curve, auc = roc_auc(labels, np.full(4, 0.5))
        assert auc == 0.5
        np.testing.assert_array_equal(curve.fpr, [0.0, 1.0])
        np.testing.assert_array_equal(curve.tpr, [0.0, 1.0])

    def test_perfect_inversion(self):
        labels = np.array([1, 1, 0, 0])
        _, auc = roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9]))
        assert auc == 0.0

    def test_complementarity_identity(self):
        """auc(labels, s) + auc(labels, -s) = 1 for tie-free scores."""
        rng = np.random.default_rng(65)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            scores = rng.permutation(n).astype(float)  # tie-free by construction
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            _, a = roc_auc(labels, scores)
            _, b = roc_auc(labels, -scores)
            assert abs(a + b - 1.0) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive and.*negative"):
            roc_auc(np.ones(4), np.arange(4.0))

    def test_threshold_per_unique_score(self):
        labels = np.array([1, 0, 1, 0, 1])
        scores = np.array([0.9, 0.9, 0.5, 0.5, 0.1])
        curve, _ = roc_auc(labels, scores)
        assert len(curve.thresholds) == 4  # inf + three unique values
        np.testing.assert_array_equal(curve.thresholds[1:], [0.9, 0.5, 0.1])


class TestEvaluate:
    def one_hot_case(self, n=12, c=3):
        rng = np.random.default_rng(66)
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)  # every class present
        scores = np.full((n, c), 1e-6)
        scores[np.arange(n), labels] = 1.0
        scores /= scores.sum(axis=1, keepdims=True)
        return scores, labels

    def test_one_hot_truth_is_perfect(self):
        scores, labels = self.one_hot_case()
        report = evaluate({"s": scores}, labels)
        rep = report["streams"]["s"]
        assert rep.accuracy == 1.0
        assert np.all(rep.confusion == np.diag(np.diag(rep.confusion)))
        assert rep.macro_auc == 1.0

    def test_confusion_row_sums_and_accuracy_identity(self):
        rng = np.random.default_rng(67)
        n, c = 60, 4
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)
        raw = rng.random((n, c))
        scores = raw / raw.sum(axis=1, keepdims=True)
        rep = evaluate({"s": scores}, labels)["streams"]["s"]
        for cls in range(c):
            assert rep.confusion[cls].sum() == (labels == cls).sum()
        from_confusion = np.trace(rep.confusion) / n
        assert abs(from_confusion - rep.accuracy) <= 1e-12

    def test_uniform_random_scores_macro_auc(self):
        """Seeded Monte-Carlo bound; the exact value is frozen from the
        generator below (computed once and pinned)."""
        rng = np.random.default_rng(60)
        raw = rng.random((500, 2))
        scores = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 2, size=500)
        rep = evaluate({"s": scores}, labels, modes=[FusionMode.PRODUCT])
        macro = rep["streams"]["s"].macro_auc
        assert 0.44 <= macro <= 0.56
        assert abs(macro - 0.534198717948718) <= 1e-12

    def test_self_fusion_keeps_accuracy(self):
        rng = np.random.default_rng(68)
        n, c = 40, 3
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)
        raw = rng.random((n, c)) + 1e-6
        scores = raw / raw.sum(axis=1, keepdims=True)
        report = evaluate({"a": scores, "b": scores}, labels)
        base = report["streams"]["a"].accuracy
        for mode in FusionMode:
            assert report["fusion"][mode.value].accuracy == base

    def test_misaligned_lengths_rejected(self):
        scores, labels = self.one_hot_case()
        with pytest.raises(ValueError, match="misaligned"):
            evaluate({"s": scores[:-1]}, labels)

    def test_report_json_deterministic(self):
        scores, labels = self.one_hot_case()
        r1 = evaluate({"s": scores}, labels)
        r2 = evaluate({"s": scores}, labels)
        assert report_to_json(r1, len(labels)) == report_to_json(r2, len(labels))
