"""Rank pooling of frame sequences, exact and approximate.

Exact rank pooling learns a direction r whose scores against the running
feature averages Q_t increase with time, by minimizing

    E(r) = (lam/2) * ||r||^2
         + (2 / (N (N-1))) * sum_{t2 > t1} max(0, 1 - <r, Q_t2> + <r, Q_t1>)

with full-batch subgradient descent.  The hinge subgradient is summed
per frame, not per pair: with c_t the number of active pairs in which
frame t is the earlier frame minus those in which it is the later one,
sum_active (Q_t1 - Q_t2) = c^T Q.  Every iterate is therefore r = Q^T alpha
for an N-vector alpha, and the solver works in that form: after one
O(N^2 d) Gram product G = Q Q^T the scores are G alpha, ||r||^2 is
alpha . G alpha, and each evaluated step costs O(N^2), whatever d is.
While the set of active pairs stays fixed the steps are an affine
iteration with a closed form, so the solver jumps over them in one
evaluation; the number of evaluations follows the changes of the active
set, not the iterations.  The solver holds a few (N, N) float64 arrays
next to the (N, d) running averages, and rejects N > MAX_FRAMES (4096)
before allocating any; nothing of shape (N (N-1) / 2, d) is built.

The approximate form is the first gradient step from r = 0, which
collapses to content-independent per-frame coefficients

    gamma_t = sum_{i=t}^{n} (2 i - n - 1) / i

so a video pools into a single weighted sum: the dynamic image.  It is
one contraction of gamma with the video's (n, C, H, W) array and comes
out as a (C, H, W) array, like any other image in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorio import FeatureSequence, VideoSequence, _freeze, _require_finite

# The exact solver holds a few (n, n) float64 arrays, 128 MiB each at this
# many frames; longer sequences are rejected before any is allocated.
MAX_FRAMES = 4096
# A skipped step must lower the objective by this share of it on top of
# ``tol``: far above the rounding of one evaluation, so every skipped step
# is one that the step-by-step descent would have accepted.
_ROUNDING = 2.0**-40


@dataclass(frozen=True)
class ArpCoefficients:
    """Per-frame pooling weights gamma for a fixed video length n."""

    n: int
    gamma: np.ndarray

    def __post_init__(self):
        gamma = _freeze(self.gamma)
        _require_finite(gamma, "coefficients contain non-finite values")
        if self.n < 1 or gamma.shape != (self.n,):
            raise ValueError(f"gamma must have shape ({self.n},)")
        if abs(gamma.sum()) > 1e-6 * self.n:
            raise ValueError("coefficients must sum to zero")
        if abs(gamma[-1] - (self.n - 1) / self.n) > 1e-9:
            raise ValueError("last coefficient must equal (n-1)/n")
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
        r = _freeze(self.r)
        _require_finite(r, "rank vector contains non-finite values")
        if not math.isfinite(self.final_objective):
            raise ValueError("objective is not finite")
        if self.final_objective < 0:
            raise ValueError("objective cannot be negative")
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class DynamicImage:
    """A whole video pooled into one image.

    ``raw`` is the unnormalized (C, H, W) weighted sum; ``frame`` is its
    read-only per-channel min-max normalized display form (constant
    channels map to 0.5).
    """

    frame: np.ndarray
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
    lo = raw.min(axis=(1, 2), keepdims=True)
    span = raw.max(axis=(1, 2), keepdims=True) - lo
    flat = span < 1e-12
    display = raw - lo
    display /= np.where(flat, 1.0, span)
    display[flat[:, 0, 0]] = 0.5
    display.flags.writeable = False
    return DynamicImage(frame=display, raw=raw)


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
    alpha: np.ndarray, gram: np.ndarray, lam: float, pair_scale: float, upper: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective at r = Q^T alpha, the float 0/1 mask of active hinge pairs
    and the margins, both indexed [t1, t2]."""
    scores = gram @ alpha  # Q r
    margins = 1.0 - scores[None, :] + scores[:, None]  # [t1, t2] = 1 - s(t2) + s(t1)
    active = ((margins > 0.0) & upper).astype(np.float64)
    hinge = np.vdot(margins, active)  # not |A| + scores . net, which cancels
    return 0.5 * lam * float(alpha @ scores) + pair_scale * float(hinge), active, margins


def _steps_to_skip(
    direction: np.ndarray,
    gram: np.ndarray,
    margins: np.ndarray,
    upper: np.ndarray,
    lam: float,
    step: float,
    floor: float,
    limit: int,
) -> int:
    """How many steps of size ``step`` can be taken at once from alpha.

    While the active set is fixed, one step maps alpha to
    a alpha + (1 - a) alpha*, with a = 1 - step lam and alpha* the
    minimizer of the quadratic that the set defines, so after k steps
    alpha_k = alpha + (a^k - 1) direction / lam.  Each margin then moves
    monotonically, as m + (a^k - 1) b with b = (u[t1] - u[t2]) / lam for
    u = G direction, and changes sides at the least k with a^k <= 1 - m / b.
    Step k lowers the objective by D (1 - a^2) a^(2k), with
    D = direction . u / (2 lam).  The count returned, at most ``limit``,
    stops before the first change of the active set and keeps every
    skipped step's improvement at or above ``floor``; it is 0 when a is
    not in (0, 1).
    """
    if limit < 2 or not 0.0 < step * lam < 1.0:
        return 0
    log_a = math.log1p(-step * lam)
    moved = gram @ direction
    first_gain = float(direction @ moved) * (-math.expm1(2.0 * log_a) / (2.0 * lam))
    if not first_gain > floor:
        return 0
    skip = float(limit)
    if floor > 0.0:
        last = (math.log(floor) - math.log(first_gain)) / (2.0 * log_a)
        if last < skip:
            skip = math.floor(last) + 1.0
    # lam b / m over the pairs: a pair changes sides iff it exceeds lam,
    # and the largest one changes sides first
    speed = np.zeros_like(margins)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(moved[:, None] - moved[None, :], margins, out=speed, where=upper)
    fastest = np.fmax.reduce(speed, axis=None)
    if fastest > lam:
        first_change = math.log1p(-lam / fastest) / log_a
        if first_change <= skip:
            skip = math.ceil(first_change) - 1.0
    return int(skip)


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
    leaves it false (not an error).  A run of steps that keeps the active
    set is taken as one jump; the iterations, stop and result are those of
    taking the steps one by one.  Raises ValueError for fewer than two
    or more than MAX_FRAMES vectors, ``lam`` or ``step`` not finite and
    > 0, ``max_iter`` < 0, or ``tol`` not finite and >= 0.
    """
    n = len(seq)
    if n < 2:
        raise ValueError(f"need at least 2 feature vectors, got {n}")
    if n > MAX_FRAMES:
        raise ValueError(
            f"exact rank pooling holds (n, n) arrays: n = {n} exceeds the bound of {MAX_FRAMES}"
        )
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    q = time_average(seq)
    gram = q @ q.T
    pair_scale = 2.0 / (n * (n - 1))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    ones = np.ones(n)

    alpha = np.zeros(n)  # r = Q^T alpha throughout
    obj, active, margins = _evaluate(alpha, gram, lam, pair_scale, upper)
    iterations = 0
    converged = False
    cur_step = step
    last_net = None  # the counts before the last plain step, None after a jump
    while iterations < max_iter:
        net = active @ ones - ones @ active  # c_t of the module docstring
        direction = lam * alpha + pair_scale * net  # the subgradient is Q^T direction
        # Right after a change of the active set (or a jump, which stops
        # before one) the next step mostly changes it again: look for steps
        # to skip only once a plain step has kept the per-frame counts.
        if last_net is not None and np.array_equal(net, last_net):
            floor = tol + _ROUNDING * obj
            skip = _steps_to_skip(
                direction, gram, margins, upper, lam, cur_step, floor, max_iter - iterations
            )
            if skip > 1:
                shrink = math.expm1(skip * math.log1p(-cur_step * lam))  # a^skip - 1
                target = alpha + (shrink / lam) * direction
                target_obj, target_active, target_margins = _evaluate(
                    target, gram, lam, pair_scale, upper
                )
                if target_obj < obj and np.array_equal(target_active, active):
                    alpha, obj, margins = target, target_obj, target_margins
                    iterations += skip
                    last_net = None
                    continue
        last_net = net
        accepted = False
        while cur_step > 1e-16:
            candidate = alpha - cur_step * direction
            cand_obj, cand_active, cand_margins = _evaluate(
                candidate, gram, lam, pair_scale, upper
            )
            if cand_obj < obj:
                accepted = True
                break
            cur_step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = obj - cand_obj
        alpha, obj, active, margins = candidate, cand_obj, cand_active, cand_margins
        iterations += 1
        if improvement < tol:
            converged = True
            break
    return RankVector(
        r=alpha @ q, lam=lam, iterations=iterations, final_objective=obj, converged=converged
    )
