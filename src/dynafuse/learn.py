"""Linear softmax classifier trained with Adam, one model per stream.

Training standardizes features per dimension over the training split,
shuffles minibatches with a seeded generator, and keeps the parameters
with the best validation accuracy (earliest epoch on ties).  The
standardization is then folded into the weights and bias, so a model is
one affine map of raw features.  Everything is deterministic given data
order, seed and config.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensorio import _freeze, _require_finite, read_tensor, write_tensor


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 80
    batch_size: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "epsilon"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


@dataclass(frozen=True)
class LinearModel:
    """Affine scores over raw features: softmax(W x + b)."""

    weights: np.ndarray  # (num_classes, d)
    bias: np.ndarray  # (num_classes,)
    num_classes: int
    dim: int

    def __post_init__(self):
        classes, dim = self.num_classes, self.dim
        if classes < 2 or dim < 1:
            raise ValueError("need num_classes >= 2 and dim >= 1")
        for name in ("weights", "bias"):
            arr = _freeze(getattr(self, name))
            _require_finite(arr, f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if self.weights.shape != (classes, dim) or self.bias.shape != (classes,):
            raise ValueError("weight/bias shapes inconsistent with num_classes and dim")


@dataclass
class TrainLog:
    """Per-epoch train loss and validation accuracy, plus the chosen epoch."""

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float | None = None  # None when no epoch was validated


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability vector over classes, stable under large logits."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logit vector")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector (d,) or, row-wise, an (n, d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.dim:
        raise ValueError(f"feature shape {x.shape} does not match model dim {model.dim}")
    return softmax(x @ model.weights.T + model.bias)


def _cross_entropy_and_grads(
    z: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of a batch and its gradient w.r.t. (W, b)."""
    probs = softmax(z @ w.T + b)
    n = z.shape[0]
    loss = float(-np.log(probs[np.arange(n), y]).mean())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    return loss, delta.T @ z, delta.sum(axis=0)


class AdamState:
    """First/second moment accumulators for one parameter array."""

    def __init__(self, shape: tuple[int, ...], cfg: AdamConfig):
        self.cfg = cfg
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self._scratch = (np.empty(shape), np.empty(shape))

    def update(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One Adam step on ``param`` in place; returns ``param``.

        Every operation is the textbook formula's, in its order, written
        into preallocated arrays, so no temporary the size of the
        parameters is allocated.
        """
        cfg = self.cfg
        self.t += 1
        term, step = self._scratch
        self.m *= cfg.beta1  # m = beta1 m + (1 - beta1) g
        self.m += np.multiply(1.0 - cfg.beta1, grad, out=term)
        np.multiply(1.0 - cfg.beta2, grad, out=term)  # v = beta2 v + (1 - beta2) g g
        term *= grad
        self.v *= cfg.beta2
        self.v += term
        np.divide(self.v, 1.0 - cfg.beta2**self.t, out=term)  # sqrt(v_hat) + eps
        np.sqrt(term, out=term)
        term += cfg.epsilon
        np.divide(self.m, 1.0 - cfg.beta1**self.t, out=step)  # lr m_hat / (...)
        step *= cfg.learning_rate
        step /= term
        param -= step
        return param


def train(
    features: np.ndarray,
    labels,
    num_classes: int,
    cfg: AdamConfig,
    val_fraction: float = 0.2,
) -> tuple[LinearModel, TrainLog]:
    """Fit a linear softmax model on an (n, d) feature matrix and its n class ids.

    The rows are shuffled once with the config seed, split
    train/validation by ``val_fraction``, standardized from the training
    split, and trained with Adam over seeded minibatch shuffles.  The
    returned model carries the parameters of the epoch with the highest
    validation accuracy (earliest epoch on ties; the final parameters
    when there is no validation split), with the standardization folded
    in: ``W' = W / scale`` rounded to float32, the precision
    ``weights.rpt1`` stores, and ``b' = b - W' mean`` in float64 from
    the rounded ``W'``, so a saved model loads back bit for bit.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(f"expected a non-empty (n, d) feature matrix, got shape {x.shape}")
    if y.shape != (len(x),) or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"expected {len(x)} integer class ids, got shape {y.shape} of {y.dtype}")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise ValueError("class ids must lie in [0, num_classes)")
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    dim = x.shape[1]
    n = x.shape[0]

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    n_val = int(round(n * val_fraction))
    n_val = min(n_val, n - 1)
    train_idx = order[: n - n_val]
    val_idx = order[n - n_val :]
    x_train, y_train = x[train_idx], y[train_idx]
    y_val = y[val_idx]

    present = np.unique(y_train)
    if len(present) < num_classes:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValueError(f"classes {missing} have zero samples in the training split")

    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    z_train = (x_train - mean) / scale
    z_val = (x[val_idx] - mean) / scale

    w = np.zeros((num_classes, dim))
    b = np.zeros(num_classes)
    adam_w = AdamState(w.shape, cfg)
    adam_b = AdamState(b.shape, cfg)
    best_w, best_b = w, b  # updated in place: copied whenever validation improves
    best_acc = -1.0
    log = TrainLog()

    n_train = len(train_idx)
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            loss, g_w, g_b = _cross_entropy_and_grads(z_train[batch], y_train[batch], w, b)
            adam_w.update(w, g_w)
            adam_b.update(b, g_b)
            batch_losses.append(loss)
        log.train_loss.append(float(np.mean(batch_losses)))
        if n_val > 0:
            pred = np.argmax(softmax(z_val @ w.T + b), axis=1)
            acc = float((pred == y_val).mean())
            log.val_accuracy.append(acc)
            if acc > best_acc:
                best_acc = acc
                log.best_epoch = epoch
                best_w, best_b = w.copy(), b.copy()
        else:
            log.val_accuracy.append(float("nan"))
            best_w, best_b = w, b
            log.best_epoch = epoch

    if n_val > 0 and cfg.epochs > 0:
        log.best_val_accuracy = best_acc
    weights = (best_w / scale).astype(np.float32)
    model = LinearModel(
        weights=weights,
        bias=best_b - weights @ mean,
        num_classes=num_classes,
        dim=dim,
    )
    return model, log


def gradient_check(model: LinearModel, batch: Sequence[tuple[np.ndarray, int]]) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses h = 1e-5 per parameter; when both gradients are below 1e-8 the
    comparison falls back to the absolute difference.
    """
    x = np.asarray([np.asarray(v, dtype=np.float64).ravel() for v, _ in batch])
    y = np.asarray([int(c) for _, c in batch])
    params = {"w": model.weights, "b": model.bias}
    _, g_w, g_b = _cross_entropy_and_grads(x, y, **params)

    h = 1e-5
    worst = 0.0
    for analytic, attr in ((g_w, "w"), (g_b, "b")):
        base = params[attr]
        numeric = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (+1.0, -1.0):
                perturbed = base.copy()
                perturbed[idx] += sign * h
                loss, _, _ = _cross_entropy_and_grads(x, y, **{**params, attr: perturbed})
                numeric[idx] += sign * loss
            numeric[idx] /= 2.0 * h
        diff = np.abs(analytic - numeric)
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.where(denom > 1e-8, diff / np.maximum(denom, 1e-300), diff)
        worst = max(worst, float(rel.max()))
    return worst


def pool_features(vectors: np.ndarray, strategy: str = "mean") -> np.ndarray:
    """Collapse a (K, d) stack of per-frame vectors into one vector.

    ``mean`` is order-free; ``concat`` keeps temporal order and requires
    a fixed K across the dataset.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("expected a non-empty (K, d) array")
    if strategy == "mean":
        return arr.mean(axis=0)
    if strategy == "concat":
        return arr.ravel()
    raise ValueError(f"unknown pooling strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Serialization: an RPT1 weight tensor plus a JSON sidecar
# ---------------------------------------------------------------------------


def save_model(model: LinearModel, directory, cfg: AdamConfig, extra: dict) -> None:
    """Write weights.rpt1 (float32, as ``train`` rounds them) and model.json
    (the model's sizes, its float64 bias, ``cfg`` under ``adam``, and the
    keys of ``extra``) into ``directory``.  ``extra`` holds no NaN or
    infinity: model.json is RFC 8259 JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(model.weights, None, directory / "weights.rpt1")
    sidecar = {
        "num_classes": model.num_classes,
        "dim": model.dim,
        "bias": model.bias.tolist(),
        "adam": asdict(cfg),
        **extra,
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False)
    (directory / "model.json").write_text(text)


def load_model(directory) -> tuple[LinearModel, dict]:
    """Read a model directory back; returns (model, sidecar dict)."""
    directory = Path(directory)
    path = directory / "model.json"
    try:
        sidecar = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"model file {path} is not JSON: {exc}") from None
    required = {"num_classes": int, "dim": int, "bias": list}
    for key, kind in required.items():
        value = sidecar.get(key) if isinstance(sidecar, dict) else None
        if type(value) is not kind:  # not isinstance: a bool is no class count
            raise ValueError(f"model file {path} needs {'an integer' if kind is int else 'a list'} "
                             f"{key!r}, got {value!r:.60}")
    for value in sidecar["bias"]:
        if type(value) not in (int, float):  # not isinstance: a bool is no number
            raise ValueError(f"model file {path} needs numbers in 'bias', got {value!r:.60}")
    weights, _ = read_tensor(directory / "weights.rpt1")
    try:
        model = LinearModel(
            weights=weights,
            bias=sidecar["bias"],
            num_classes=sidecar["num_classes"],
            dim=sidecar["dim"],
        )
    except (OverflowError, ValueError) as exc:  # OverflowError: an integer past float range
        raise ValueError(f"model file {path} describes no usable model: {exc}") from None
    return model, sidecar
