"""Late score fusion and the cross-view / cross-subject evaluation harness.

Per-sample class scores from independent streams are combined
elementwise (maximum, average or product) and renormalized onto the
probability simplex.  Evaluation reports accuracy, a confusion matrix,
one-vs-rest ROC curves per class and their trapezoidal AUCs.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class FusionMode(enum.Enum):
    MAXIMUM = "maximum"
    AVERAGE = "average"
    PRODUCT = "product"

    @classmethod
    def parse(cls, name: str) -> "FusionMode":
        aliases = {"max": "maximum", "avg": "average", "mul": "product", "prod": "product"}
        key = aliases.get(name.lower(), name.lower())
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown fusion mode {name!r}") from None


@dataclass(frozen=True)
class SplitProtocol:
    """Declarative train/test partition over sequence metadata.

    ``cross_view`` partitions by view id, ``cross_subject`` by subject
    id; ``train`` and ``test`` hold the ids of each side (stored as
    frozensets), which must be disjoint and non-empty.
    """

    kind: str
    train: frozenset[int]
    test: frozenset[int]

    def __post_init__(self):
        for side in ("train", "test"):
            object.__setattr__(self, side, frozenset(int(i) for i in getattr(self, side)))
        if self.kind not in ("cross_view", "cross_subject"):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if not self.train or not self.test:
            raise ValueError("both protocol sides must be non-empty")
        if self.train & self.test:
            raise ValueError(f"train and test sets overlap: {sorted(self.train & self.test)}")

    def key_of(self, entry: Mapping) -> int:
        return int(entry["view_id" if self.kind == "cross_view" else "subject_id"])

    @classmethod
    def cross_view(cls, train_views: Iterable[int], test_views: Iterable[int]) -> "SplitProtocol":
        return cls("cross_view", train_views, test_views)

    @classmethod
    def cross_subject(
        cls, train_subjects: Iterable[int], test_subjects: Iterable[int]
    ) -> "SplitProtocol":
        return cls("cross_subject", train_subjects, test_subjects)


@dataclass(frozen=True)
class RocCurve:
    """One ROC vertex per unique score, descending threshold order."""

    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (C, C) ints, rows = true class
    per_class_roc: tuple[RocCurve, ...]
    per_class_auc: np.ndarray
    macro_auc: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class_auc": self.per_class_auc.tolist(),
            "macro_auc": self.macro_auc,
        }


def _validate_simplex(arr: np.ndarray) -> None:
    if np.any(arr < -1e-9):
        raise ValueError("scores must be non-negative")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("score vectors must sum to 1")


def fuse(stack: np.ndarray | Sequence[np.ndarray], mode: FusionMode) -> np.ndarray:
    """Fuse an (S, C) or (S, n, C) stack of per-stream scores along axis 0.

    Score vectors must live on the probability simplex; the output is
    renormalized so the product mode lands back on it.
    """
    try:
        arr = np.asarray(stack, dtype=np.float64)
    except ValueError as exc:  # ragged list of per-stream scores
        raise ValueError(f"class-count mismatch across streams: {exc}") from None
    if arr.ndim == 0 or arr.shape[0] == 0:
        raise ValueError("need at least one stream")
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected an (S, C) or (S, n, C) score stack, got shape {arr.shape}")
    _validate_simplex(arr)
    if mode is FusionMode.MAXIMUM:
        combined = arr.max(axis=0)
    elif mode is FusionMode.AVERAGE:
        combined = arr.mean(axis=0)
    else:
        combined = arr.prod(axis=0)
    sums = combined.sum(axis=-1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("fusion collapsed a score vector to zero mass")
    return combined / sums


def make_splits(
    entries: Sequence[Mapping], protocol: SplitProtocol
) -> tuple[list[str], list[str]]:
    """Partition manifest entries into (train ids, test ids), sorted by id.

    Entries whose key falls in neither side are excluded (e.g. unused
    views of a four-view corpus).
    """
    train: list[str] = []
    test: list[str] = []
    for entry in entries:
        key = protocol.key_of(entry)
        if key in protocol.train:
            train.append(str(entry["id"]))
        elif key in protocol.test:
            test.append(str(entry["id"]))
    if not train or not test:
        raise ValueError("protocol produced an empty train or test side")
    return sorted(train), sorted(test)


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> tuple[RocCurve, float]:
    """ROC curve and trapezoidal AUC for binary labels.

    Thresholds sweep the unique scores in descending order; tied scores
    share a threshold, so the curve has one vertex per unique value plus
    the (0, 0) origin at threshold +inf.
    """
    y = np.asarray(labels).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError("labels and scores must be 1-D and aligned")
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("need at least one positive and one negative label")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # last index of each unique-score run
    distinct = np.flatnonzero(np.diff(s_sorted))
    boundaries = np.concatenate([distinct, [s.size - 1]])
    tp = np.cumsum(y_sorted)[boundaries]
    fp = np.cumsum(~y_sorted)[boundaries]
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    thresholds = np.concatenate([[np.inf], s_sorted[boundaries]])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(thresholds=thresholds, tpr=tpr, fpr=fpr), auc


def _single_report(scores: np.ndarray, labels: np.ndarray, num_classes: int) -> EvalReport:
    pred = np.argmax(scores, axis=1)  # first maximum = lowest class id on ties
    accuracy = float((pred == labels).mean())
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    curves = []
    aucs = []
    for c in range(num_classes):
        curve, auc = roc_auc(labels == c, scores[:, c])
        curves.append(curve)
        aucs.append(auc)
    per_class_auc = np.asarray(aucs)
    return EvalReport(
        accuracy=accuracy,
        confusion=confusion,
        per_class_roc=tuple(curves),
        per_class_auc=per_class_auc,
        macro_auc=float(per_class_auc.mean()),
    )


def evaluate(
    stream_scores: Mapping[str, np.ndarray],
    labels: np.ndarray,
    modes: Iterable[FusionMode] = tuple(FusionMode),
) -> dict:
    """Per-stream and per-fusion-mode reports over aligned test samples.

    ``stream_scores`` maps stream name to an (n, C) matrix of simplex
    rows, all aligned with ``labels``.  Returns
    ``{"streams": {name: EvalReport}, "fusion": {mode value: EvalReport}}``.
    """
    if not stream_scores:
        raise ValueError("need at least one stream")
    labels = np.asarray(labels, dtype=np.int64)
    matrices = {}
    for name, scores in stream_scores.items():
        arr = np.asarray(scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != labels.shape[0]:
            raise ValueError(f"stream {name!r} is misaligned with the labels")
        _validate_simplex(arr)
        matrices[name] = arr
    shapes = {m.shape for m in matrices.values()}
    if len(shapes) != 1:
        raise ValueError(f"streams disagree on shape: {sorted(shapes)}")
    num_classes = next(iter(shapes))[1]
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("labels outside [0, num_classes)")

    report: dict = {"streams": {}, "fusion": {}}
    for name, arr in matrices.items():
        report["streams"][name] = _single_report(arr, labels, num_classes)
    stack = np.stack(list(matrices.values()))
    for mode in modes:
        fused = fuse(stack, mode)
        report["fusion"][mode.value] = _single_report(fused, labels, num_classes)
    return report


def report_to_json(report: dict, num_samples: int) -> str:
    """Deterministic JSON rendering of an evaluate() result."""

    payload = {
        "num_samples": num_samples,
        "streams": {k: v.to_dict() for k, v in report["streams"].items()},
        "fusion": {k: v.to_dict() for k, v in report["fusion"].items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_curves_csv(report: EvalReport, path) -> None:
    """Per-class ROC vertices as CSV rows (class_id, fpr, tpr, threshold)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "fpr", "tpr", "threshold"])
        for class_id, curve in enumerate(report.per_class_roc):
            for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
                writer.writerow([class_id, repr(float(f)), repr(float(t)), repr(float(th))])
