"""Classifier training, softmax algebra and the finite-difference gradient gate."""

import numpy as np
import pytest

from dynafuse.learn import (
    AdamConfig,
    AdamState,
    LinearModel,
    gradient_check,
    load_model,
    pool_features,
    predict,
    save_model,
    softmax,
    train,
)


def perceptron_separable(x: np.ndarray, y: np.ndarray, max_epochs: int = 200) -> bool:
    """Binary perceptron oracle: converges iff the data is linearly separable."""
    signs = np.where(y == 0, -1.0, 1.0)
    aug = np.hstack([x, np.ones((len(x), 1))])
    w = np.zeros(aug.shape[1])
    for _ in range(max_epochs):
        mistakes = 0
        for xi, si in zip(aug, signs):
            if si * (w @ xi) <= 0:
                w += si * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False


def two_clusters(seed=50, n_per_class=20, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.random((n_per_class, 2)) + np.array([gap / 2, gap / 2])
    b = rng.random((n_per_class, 2)) - np.array([gap / 2, gap / 2])
    return np.vstack([a, b]), np.repeat([0, 1], n_per_class)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_no_overflow_on_huge_logits(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(51)
        z = rng.standard_normal(6)
        np.testing.assert_allclose(softmax(z), softmax(z + 17.3), atol=1e-12)

    def test_simplex_invariant(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            out = softmax(rng.standard_normal(5) * 10)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(np.array([]))


class TestTrain:
    def test_separable_clusters_reach_full_accuracy(self):
        x, y = two_clusters()
        assert perceptron_separable(x, y)
        cfg = AdamConfig(seed=7)
        model, log = train(x, y, num_classes=2, cfg=cfg)
        pred = np.array([np.argmax(predict(model, v)) for v in x])
        assert (pred == y).mean() == 1.0
        assert log.best_epoch >= 1

    def test_zero_epochs_gives_uniform_model(self):
        x, y = two_clusters()
        model, _ = train(x, y, num_classes=2, cfg=AdamConfig(epochs=0, seed=1))
        np.testing.assert_array_equal(model.weights, 0.0)
        np.testing.assert_allclose(predict(model, x[0]), [0.5, 0.5])

    def test_bitwise_determinism(self):
        x, y = two_clusters(seed=53)
        cfg = AdamConfig(seed=99, epochs=10)
        m1, _ = train(x, y, num_classes=2, cfg=cfg)
        m2, _ = train(x, y, num_classes=2, cfg=cfg)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    def test_missing_class_rejected(self):
        x, y = np.tile([0.0, 1.0], (8, 1)), np.zeros(8, dtype=int)
        with pytest.raises(ValueError, match="zero samples"):
            train(x, y, num_classes=2, cfg=AdamConfig(seed=0))

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.zeros((0, 2)), np.zeros(0, dtype=int)),
            (np.zeros(4), np.zeros(4, dtype=int)),
            (np.zeros((4, 2)), np.zeros(3, dtype=int)),
            (np.zeros((4, 2)), np.zeros(4)),
        ],
        ids=["no_rows", "not_a_matrix", "one_label_short", "float_labels"],
    )
    def test_matrix_and_labels_checked(self, x, y):
        with pytest.raises(ValueError, match="expected"):
            train(x, y, num_classes=2, cfg=AdamConfig(seed=0))

    def test_folded_model_scores_raw_features(self):
        """Training standardizes internally; the returned model takes raw,
        offset features and reproduces the validation accuracy it was
        chosen by."""
        rng = np.random.default_rng(54)
        x = rng.random((30, 3)) * 100 + 50
        y = (x[:, 0] + x[:, 1] > 200).astype(int)
        cfg = AdamConfig(seed=3, epochs=20, learning_rate=0.05)
        model, log = train(x, y, num_classes=2, cfg=cfg)
        val = np.random.default_rng(cfg.seed).permutation(len(x))[24:]  # the last 6 of 30
        pred = np.argmax(predict(model, x[val]), axis=1)
        assert (pred == y[val]).mean() == log.best_val_accuracy
        assert log.best_val_accuracy > 0.5

    def test_best_epoch_is_earliest_max(self):
        x, y = two_clusters(seed=55)
        _, log = train(x, y, num_classes=2, cfg=AdamConfig(seed=5, epochs=12))
        accs = log.val_accuracy
        assert accs[log.best_epoch - 1] == max(accs)
        assert log.best_epoch - 1 == accs.index(max(accs))

    def test_best_epoch_parameters_survive_later_updates(self):
        """Adam updates the weights in place, so the kept parameters must be
        a copy: they equal a run stopped at the best epoch, bit for bit."""
        rng = np.random.default_rng(2)
        y = np.repeat([0, 1, 2], 12)
        x = np.array([rng.standard_normal(4) + c * 0.6 for c in y])
        cfg = AdamConfig(seed=2, epochs=30, learning_rate=0.05)
        model, log = train(x, y, num_classes=3, cfg=cfg)
        assert 1 <= log.best_epoch < cfg.epochs
        short = AdamConfig(seed=2, epochs=log.best_epoch, learning_rate=0.05)
        stopped, _ = train(x, y, num_classes=3, cfg=short)
        np.testing.assert_array_equal(model.weights, stopped.weights)
        np.testing.assert_array_equal(model.bias, stopped.bias)


class TestPredict:
    def test_zero_model_uniform(self):
        model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(4), num_classes=4, dim=3)
        np.testing.assert_allclose(predict(model, np.zeros(3)), 0.25)

    def test_weight_scaling_preserves_argmax(self):
        rng = np.random.default_rng(56)
        w = rng.standard_normal((3, 4))
        model = LinearModel(weights=w, bias=np.zeros(3), num_classes=3, dim=4)
        scaled = LinearModel(weights=3.5 * w, bias=np.zeros(3), num_classes=3, dim=4)
        for _ in range(20):
            x = rng.standard_normal(4)
            assert np.argmax(predict(model, x)) == np.argmax(predict(scaled, x))

    def test_pure_function(self):
        model = LinearModel(weights=np.zeros((2, 2)), bias=np.zeros(2), num_classes=2, dim=2)
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(predict(model, x), predict(model, x))

    def test_matrix_rows_match_vectors(self):
        rng = np.random.default_rng(57)
        model = LinearModel(
            weights=rng.standard_normal((3, 4)), bias=rng.standard_normal(3),
            num_classes=3, dim=4,
        )
        x = rng.standard_normal((6, 4))
        rows = np.stack([predict(model, v) for v in x])
        np.testing.assert_allclose(predict(model, x), rows, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros((2, 2)), bias=np.zeros(2), num_classes=2, dim=2)
        for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="dim"):
                predict(model, x)


class TestGradientCheck:
    def random_case(self, rng):
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        model = LinearModel(
            weights=rng.standard_normal((c, d)),
            bias=rng.standard_normal(c),
            num_classes=c,
            dim=d,
        )
        batch = [(rng.standard_normal(d), int(rng.integers(0, c))) for _ in range(6)]
        return model, batch

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            model, batch = self.random_case(rng)
            assert gradient_check(model, batch) < 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(58)
        model, batch = self.random_case(rng)
        assert gradient_check(model, batch) == gradient_check(model, batch)

    def test_near_zero_gradient_uses_absolute_fallback(self):
        # a uniform model on symmetric targets has near-zero gradients
        model = LinearModel(weights=np.zeros((2, 2)), bias=np.zeros(2), num_classes=2, dim=2)
        batch = [(np.array([1.0, -1.0]), 0), (np.array([1.0, -1.0]), 1)]
        assert gradient_check(model, batch) < 1e-4


class TestAdam:
    def test_quadratic_smoke_descent(self):
        """With the default config a convex quadratic decreases monotonically
        after a burn-in of at most 50 steps."""
        cfg = AdamConfig(seed=0)
        target = np.array([3.0, -2.0, 1.0])
        w = np.zeros(3)
        state = AdamState(w.shape, cfg)
        losses = []
        for _ in range(400):
            grad = 2.0 * (w - target)
            losses.append(float(((w - target) ** 2).sum()))
            w = state.update(w, grad)
        diffs = np.diff(losses[50:])
        assert np.all(diffs < 0)

    def test_in_place_update_matches_the_allocating_formula(self):
        """update writes param, m and v in place and gives the textbook
        formula's values bit for bit."""
        cfg = AdamConfig(learning_rate=1e-2)
        rng = np.random.default_rng(60)
        param = rng.standard_normal((3, 5))
        expected = param.copy()
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        state = AdamState(param.shape, cfg)
        for t in range(1, 40):
            grad = rng.standard_normal(param.shape)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            expected = expected - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert state.update(param, grad) is param
            np.testing.assert_array_equal(param, expected)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)


class TestPooling:
    def test_mean_pooling(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(pool_features(arr, "mean"), [2.0, 3.0])

    def test_concat_pooling(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(pool_features(arr, "concat"), [1.0, 2.0, 3.0, 4.0])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            pool_features(np.ones((2, 2)), "median")


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        x, y = two_clusters(seed=59)
        cfg = AdamConfig(seed=2, epochs=5)
        model, _ = train(x, y, num_classes=2, cfg=cfg)
        save_model(model, tmp_path / "m", cfg=cfg, extra={"stream": "motion"})
        back, sidecar = load_model(tmp_path / "m")
        assert sidecar["stream"] == "motion"
        assert sidecar["adam"]["epochs"] == 5
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["model.json", "weights.rpt1"]
        # train rounds the weights to float32 and model.json holds the float64
        # bias exactly, so the model loads back bit for bit
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)
        np.testing.assert_array_equal(predict(back, x), predict(model, x))
