"""Rank pooling of frame sequences, exact and approximate.

Exact rank pooling learns a direction r whose scores against the running
feature averages Q_t increase with time, by minimizing

    E(r) = (lam/2) * ||r||^2
         + (2 / (N (N-1))) * sum_{t2 > t1} max(0, 1 - <r, Q_t2> + <r, Q_t1>)

with full-batch subgradient descent.  The hinge subgradient is summed
per frame, not per pair: with c_t the number of active pairs in which
frame t is the earlier frame minus those in which it is the later one,
sum_active (Q_t1 - Q_t2) = c^T Q.  A step therefore costs O(N^2 + N d)
time and holds O(N^2) booleans and floats next to the (N, d) running
averages; nothing of shape (N (N-1) / 2, d) is built.

The approximate form is the first gradient step from r = 0, which
collapses to content-independent per-frame coefficients

    gamma_t = sum_{i=t}^{n} (2 i - n - 1) / i

so a video pools into a single weighted sum: the dynamic image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorio import FeatureSequence, Frame, VideoSequence


@dataclass(frozen=True)
class ArpCoefficients:
    """Per-frame pooling weights gamma for a fixed video length n."""

    n: int
    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.n < 1 or gamma.shape != (self.n,):
            raise ValueError(f"gamma must have shape ({self.n},)")
        if abs(gamma.sum()) > 1e-6 * self.n:
            raise ValueError("coefficients must sum to zero")
        if abs(gamma[-1] - (self.n - 1) / self.n) > 1e-9:
            raise ValueError("last coefficient must equal (n-1)/n")
        gamma = gamma.copy()
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class RankVector:
    """Solver output: the pooled direction r with diagnostics."""

    r: np.ndarray
    lam: float
    iterations: int
    final_objective: float
    converged: bool

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if not np.all(np.isfinite(r)):
            raise ValueError("rank vector contains non-finite values")
        if not math.isfinite(self.final_objective):
            raise ValueError("objective is not finite")
        if self.final_objective < 0:
            raise ValueError("objective cannot be negative")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class DynamicImage:
    """A whole video pooled into one image.

    ``raw`` is the unnormalized weighted sum per channel; ``frame`` is
    the per-channel min-max normalized display form (constant channels
    map to 0.5).
    """

    frame: Frame
    raw: np.ndarray


def arp_coefficients(n: int) -> ArpCoefficients:
    """Pooling weights for an n-frame video, via one reverse suffix-sum pass."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1, n + 1, dtype=np.float64)
    per_frame = (2.0 * i - n - 1.0) / i
    gamma = np.cumsum(per_frame[::-1])[::-1]
    return ArpCoefficients(n=n, gamma=gamma)


def dynamic_image(video: VideoSequence) -> DynamicImage:
    """Pool a video into its dynamic image."""
    gamma = arp_coefficients(len(video)).gamma
    raw = np.tensordot(gamma, video.data, axes=(0, 0))
    display = np.empty_like(raw)
    for c in range(raw.shape[0]):
        lo = raw[c].min()
        hi = raw[c].max()
        if hi - lo < 1e-12:
            display[c] = 0.5
        else:
            display[c] = (raw[c] - lo) / (hi - lo)
    return DynamicImage(frame=Frame.from_array(display), raw=raw)


def dynamic_feature(seq: FeatureSequence) -> np.ndarray:
    """Pooled feature vector sum_t gamma_t * phi_t."""
    n = len(seq)
    if n < 1:
        raise ValueError("empty feature sequence")
    gamma = arp_coefficients(n).gamma
    return gamma @ seq.vectors


def time_average(seq: FeatureSequence) -> np.ndarray:
    """Running means q[t] = mean of the first t + 1 feature vectors, (N, d)."""
    n = len(seq)
    if n < 1:
        raise ValueError("empty feature sequence")
    sums = np.cumsum(seq.vectors, axis=0)
    counts = np.arange(1, n + 1, dtype=np.float64)[:, None]
    return np.divide(sums, counts, out=sums)  # in place: one (N, d) array at peak


def _evaluate(
    r: np.ndarray, q: np.ndarray, lam: float, pair_scale: float, upper: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective at r and the mask of active hinge pairs, indexed [t1, t2]."""
    scores = q @ r
    margins = 1.0 - scores[None, :] + scores[:, None]  # [t1, t2] = 1 - s(t2) + s(t1)
    hinge = np.maximum(margins[upper], 0.0).sum()
    return 0.5 * lam * float(r @ r) + pair_scale * float(hinge), (margins > 0.0) & upper


def exact_rank_pool(
    seq: FeatureSequence,
    lam: float = 0.01,
    step: float = 0.1,
    max_iter: int = 10_000,
    tol: float = 1e-8,
) -> RankVector:
    """Minimize the pairwise hinge objective by subgradient descent from r = 0.

    The step is halved whenever a proposal would increase the objective,
    so accepted iterations are non-increasing.  Stopping on an objective
    improvement below ``tol`` sets ``converged``; hitting ``max_iter``
    leaves it false (not an error).  Raises ValueError for fewer than two
    vectors, ``lam`` or ``step`` not finite and > 0, ``max_iter`` < 0, or
    ``tol`` not finite and >= 0.
    """
    n = len(seq)
    if n < 2:
        raise ValueError(f"need at least 2 feature vectors, got {n}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    q = time_average(seq)
    pair_scale = 2.0 / (n * (n - 1))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)

    r = np.zeros(seq.dim)
    obj, active = _evaluate(r, q, lam, pair_scale, upper)
    iterations = 0
    converged = False
    cur_step = step
    for _ in range(max_iter):
        net = active.sum(axis=1) - active.sum(axis=0)  # c_t of the module docstring
        grad = lam * r + pair_scale * (net @ q)
        accepted = False
        while cur_step > 1e-16:
            candidate = r - cur_step * grad
            cand_obj, cand_active = _evaluate(candidate, q, lam, pair_scale, upper)
            if cand_obj < obj:
                accepted = True
                break
            cur_step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = obj - cand_obj
        r, obj, active = candidate, cand_obj, cand_active
        iterations += 1
        if improvement < tol:
            converged = True
            break
    return RankVector(
        r=r, lam=lam, iterations=iterations, final_objective=obj, converged=converged
    )

