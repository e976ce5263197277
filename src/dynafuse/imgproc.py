"""Silhouette preprocessing, ROI extraction and the structural-similarity kernel.

The similarity index multiplies a luminance, a contrast and a structure
term computed from Gaussian-weighted local moments:

    L = (2*m1*m2 + K1) / (m1^2 + m2^2 + K1)
    C = (2*s1*s2 + K2) / (s1^2 + s2^2 + K2)
    S = (cov + K3)  / (s1*s2 + K3)
    local = L^ALPHA * C^BETA * S^GAMMA_EXP

The global index is the mean of the local map.  Depth silhouettes are
insensitive to luminance/contrast, so the exponents damp L and C
(ALPHA = BETA = 0.5) and keep the structure term linear (GAMMA_EXP = 1).
The stabilizers follow the reference convention for unit dynamic range
(K1 = 0.01^2, K2 = 0.03^2, K3 = K2/2) with an 11x11 Gaussian window
(radius 5, sigma 1.5).

Every function works on whole videos: ``silhouette`` opens and closes
(..., H, W) foreground masks with the 3x3 square, applied as a row of
three shifted boolean slices and then a column of three,
``largest_component`` labels every frame of an (n, H, W) stack in one
``ndimage.label`` call, ``roi_resize`` lerps each source row along x
once before lerping along y, and ``consecutive_ssim`` computes each
frame's local mean and E[x^2] once, so a pair of n - 1 adds only its
cross moment (6 separable passes per pair instead of 10).  A single
frame is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA = 0.5
BETA = 0.5
GAMMA_EXP = 1.0
K1 = 1e-4
K2 = 9e-4
K3 = 4.5e-4
WINDOW_RADIUS = 5
WINDOW_SIGMA = 1.5


@dataclass(frozen=True)
class SsimResult:
    """Global similarity index plus the per-pixel local map."""

    global_index: float
    local_map: np.ndarray


# 8-connectivity inside each (H, W) frame of an (n, H, W) stack, no link through time
_IN_FRAME_8 = np.zeros((3, 3, 3), dtype=bool)
_IN_FRAME_8[1] = True


def _as_plane(f) -> np.ndarray:
    """Accept a (1, H, W) or (H, W) array; return the (H, W) plane."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise ValueError(f"expected single-channel input, got {arr.shape[0]} channels")
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
    return arr


def _as_binary(mask, ndim: int) -> np.ndarray:
    """A 0/1 mask of ``ndim`` dimensions as a boolean array; a boolean
    array is returned as it is, without a scan of its values."""
    arr = np.asarray(mask)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D mask, got ndim={arr.ndim}")
    if arr.dtype == bool:
        return arr
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("mask values must be exactly 0 or 1")
    return arr.astype(bool)


# ---------------------------------------------------------------------------
# Structural similarity
# ---------------------------------------------------------------------------


def _gaussian_window() -> np.ndarray:
    x = np.arange(-WINDOW_RADIUS, WINDOW_RADIUS + 1, dtype=np.float64)
    w = np.exp(-(x * x) / (2.0 * WINDOW_SIGMA * WINDOW_SIGMA))
    w /= w.sum()
    w.flags.writeable = False
    return w


_WINDOW = _gaussian_window()


def _local_mean(img: np.ndarray) -> np.ndarray:
    # Separable correlation, reflect boundary: constant images stay
    # constant at the border, which the identity/constant-image oracles
    # rely on.
    from scipy import ndimage  # here, so the motion stream never loads scipy

    tmp = ndimage.correlate1d(img, _WINDOW, axis=0, mode="reflect")
    return ndimage.correlate1d(tmp, _WINDOW, axis=1, mode="reflect")


def _check_window(shape: tuple[int, ...]) -> None:
    side = 2 * WINDOW_RADIUS + 1
    if shape[0] < side or shape[1] < side:
        raise ValueError(f"window {side}x{side} larger than image {shape[0]}x{shape[1]}")


def _moments(img: np.ndarray) -> tuple:
    """One image's share of the index: (image, mean, mean^2, variance, std)."""
    mu = _local_mean(img)
    mu_sq = mu * mu
    var = np.maximum(_local_mean(img * img) - mu_sq, 0.0)
    return img, mu, mu_sq, var, np.sqrt(var)


def _ssim_map(m1: tuple, m2: tuple) -> np.ndarray:
    """Local similarity map of two images from their ``_moments``; only the
    cross moment is computed here."""
    a, mu1, mu1_sq, var1, sig1 = m1
    b, mu2, mu2_sq, var2, sig2 = m2
    cov = _local_mean(a * b) - mu1 * mu2
    lum = (2.0 * mu1 * mu2 + K1) / (mu1_sq + mu2_sq + K1)
    con = (2.0 * sig1 * sig2 + K2) / (var1 + var2 + K2)
    struct = (cov + K3) / (sig1 * sig2 + K3)
    # a negative intensity can make lum negative, and its square root NaN;
    # that NaN is the result, which callers that need a finite index reject
    with np.errstate(invalid="ignore"):
        return lum**ALPHA * con**BETA * struct**GAMMA_EXP


def ssim(f1, f2) -> SsimResult:
    """Similarity index of two single-channel images of identical shape.

    Both images must be at least as large as the Gaussian window.  The
    local map has the input shape; the global index is its mean.
    """
    a = _as_plane(f1)
    b = _as_plane(f2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_window(a.shape)
    local = _ssim_map(_moments(a), _moments(b))
    return SsimResult(global_index=float(local.mean()), local_map=local)


def consecutive_ssim(frames) -> np.ndarray:
    """Global index of each consecutive pair of an (n, H, W) stack: a float64
    array of n - 1 values, pair i joining frames i and i + 1.  Each frame's
    moments are computed once and shared by the two pairs it belongs to."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError(f"expected an (n, H, W) stack, got ndim={frames.ndim}")
    _check_window(frames.shape[1:])
    prev = _moments(frames[0])
    values = np.empty(len(frames) - 1)
    for i, frame in enumerate(frames[1:]):
        cur = _moments(frame)
        values[i] = _ssim_map(prev, cur).mean()
        prev = cur
    return values


# ---------------------------------------------------------------------------
# Binary morphology (zero-padded borders), silhouettes and components
# ---------------------------------------------------------------------------


def _box3(masks: np.ndarray, erode: bool) -> np.ndarray:
    """Erode (AND) or dilate (OR) boolean (..., H, W) masks by the 3x3
    square, pixels outside the image counting as background.  The square
    is a row of three times a column of three, so three shifted slices of
    the zero-padded masks along x, then three along y, give it exactly."""
    h, w = masks.shape[-2:]
    padded = np.zeros(masks.shape[:-2] + (h + 2, w + 2), dtype=bool)
    padded[..., 1:-1, 1:-1] = masks
    op = np.logical_and if erode else np.logical_or
    rows = op(op(padded[..., :-2], padded[..., 1:-1]), padded[..., 2:])
    return op(op(rows[..., :-2, :], rows[..., 1:-1, :]), rows[..., 2:, :])


def silhouette(depth) -> np.ndarray:
    """Foreground masks of (..., H, W) depth planes: nonzero depth, then
    open + close with the 3x3 square (pixels outside count as background)."""
    depth = np.asarray(depth)
    if depth.ndim < 2:
        raise ValueError(f"expected (..., H, W) planes, got ndim={depth.ndim}")
    m = _box3(_box3(depth > 0.0, erode=True), erode=False)
    return _box3(_box3(m, erode=False), erode=True)


def largest_component(masks) -> tuple[np.ndarray, np.ndarray]:
    """Largest 8-connected component of each frame of (n, H, W) binary masks.

    Returns the component masks and which frames had any foreground (an
    empty frame's mask stays empty).  One labelling covers the stack:
    labels are assigned in scan order, so each frame's labels form one
    contiguous range and the first maximal count in it is the component
    whose first pixel comes earliest in row-major order.
    """
    from scipy import ndimage  # here, so the motion stream never loads scipy

    labels, _ = ndimage.label(_as_binary(masks, 3), structure=_IN_FRAME_8)
    counts = np.bincount(labels.ravel())
    last = np.maximum.accumulate(labels.reshape(len(labels), -1).max(axis=1))
    first = np.concatenate(([0], last[:-1]))
    keep = np.full(len(labels), -1)
    for i, (lo, hi) in enumerate(zip(first, last)):
        if hi > lo:
            keep[i] = lo + 1 + int(np.argmax(counts[lo + 1 : hi + 1]))
    return labels == keep[:, None, None], keep > 0


# ---------------------------------------------------------------------------
# ROI crop and bilinear resize
# ---------------------------------------------------------------------------


def _lerp_coords(n_src: int, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner-aligned sample points along one axis: lower and upper source
    index and the fraction between them.  ``pos`` stays in [0, n_src - 1]
    (the last point, (side - 1) * (n_src - 1) / (side - 1), is exact), so
    its floor needs no clip; one source pixel gives 0.0 everywhere."""
    if side == 1:
        pos = np.array([(n_src - 1) / 2.0])
    else:
        pos = np.arange(side, dtype=np.float64) * (n_src - 1) / (side - 1)
    i0 = np.floor(pos).astype(int)
    return i0, np.minimum(i0 + 1, n_src - 1), pos - i0


def _bilinear_resize(img: np.ndarray, side: int) -> np.ndarray:
    """Corner-aligned bilinear resize of (..., H, W) planes to side x side.

    Each source row is lerped along x once; the y lerp then mixes two of
    those rows.  The nested lerp keeps constants exact and stays inside
    [min, max].
    """
    y0, y1, fy = _lerp_coords(img.shape[-2], side)
    x0, x1, fx = _lerp_coords(img.shape[-1], side)
    left = img[..., x0]
    rows = left + fx * (img[..., x1] - left)
    top = rows[..., y0, :]
    return top + fy[:, None] * (rows[..., y1, :] - top)


def roi_resize(source, mask, side: int) -> np.ndarray:
    """Crop (..., H, W) planes to the bounding box of a nonempty (H, W)
    binary mask, zero-pad to square and resize to side x side; returns
    float64 (..., side, side) planes.

    The shorter axis is padded symmetrically (the odd leftover pixel goes
    to the bottom/right); resizing is corner-aligned bilinear.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    source = np.asarray(source)
    if source.ndim < 2:
        raise ValueError(f"expected (..., H, W) planes, got ndim={source.ndim}")
    mask = _as_binary(mask, 2)
    if mask.shape != source.shape[-2:]:
        raise ValueError(f"mask shape {mask.shape} does not match planes {source.shape[-2:]}")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not len(rows):
        raise ValueError("empty mask: nothing to crop")
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    ch, cw = r1 - r0, c1 - c0
    target = max(ch, cw)
    top, left = (target - ch) // 2, (target - cw) // 2
    square = np.zeros(source.shape[:-2] + (target, target))
    square[..., top : top + ch, left : left + cw] = source[..., r0:r1, c0:c1]
    return _bilinear_resize(square, side)
