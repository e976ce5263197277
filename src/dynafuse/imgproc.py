"""Silhouette preprocessing, ROI extraction and the structural-similarity kernel.

The similarity index multiplies a luminance, a contrast and a structure
term computed from Gaussian-weighted local moments:

    L = (2*m1*m2 + k1) / (m1^2 + m2^2 + k1)
    C = (2*s1*s2 + k2) / (s1^2 + s2^2 + k2)
    S = (cov + k3)  / (s1*s2 + k3)
    local = L^alpha * C^beta * S^gamma_exp

The global index is the mean of the local map.  Depth silhouettes are
insensitive to luminance/contrast, so the default exponents damp L and C
(alpha = beta = 0.5) and keep the structure term linear (gamma_exp = 1).

The key-frame pipeline works on whole videos through the private
routines here: ``_silhouettes`` opens and closes the (n, H, W) foreground
masks with shifted boolean slices, ``_largest_components`` labels every
frame in one ``ndimage.label`` call, ``_roi_resize`` lerps each source
row along x once before lerping along y, and ``_consecutive_ssim``
computes each frame's local mean and E[x^2] once, so a pair of n - 1
adds only its cross moment (6 separable passes per pair instead of 10).
The public functions take one (C, H, W) array or (H, W) plane, check it,
and call the same routines for that one frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class SsimParams:
    """Exponents, stabilizers and window geometry of the similarity index.

    Stabilizers follow the reference convention for unit dynamic range:
    k1 = 0.01^2, k2 = 0.03^2, k3 = k2/2, with an 11x11 Gaussian window
    (radius 5, sigma 1.5).
    """

    alpha: float = 0.5
    beta: float = 0.5
    gamma_exp: float = 1.0
    k1: float = 1e-4
    k2: float = 9e-4
    k3: float = 4.5e-4
    window_radius: int = 5
    window_sigma: float = 1.5

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma_exp < 0:
            raise ValueError("exponents must be >= 0")
        if self.k1 <= 0 or self.k2 <= 0 or self.k3 <= 0:
            raise ValueError("stabilization constants must be > 0")
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.window_sigma <= 0:
            raise ValueError("window_sigma must be > 0")


@dataclass(frozen=True)
class SsimResult:
    """Global similarity index plus the per-pixel local map."""

    global_index: float
    local_map: np.ndarray


@dataclass(frozen=True)
class StructuringElement:
    """Square boolean neighborhood mask with odd side length 3, 5 or 7."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("structuring element must be square")
        if mask.shape[0] not in (3, 5, 7):
            raise ValueError("structuring element side must be 3, 5 or 7")
        if not mask.any():
            raise ValueError("structuring element needs at least one true cell")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def full(cls, side: int = 3) -> "StructuringElement":
        return cls(np.ones((side, side), dtype=bool))


_SQUARE3 = StructuringElement.full(3).mask
# 8-connectivity inside each (H, W) frame of an (n, H, W) stack, no link through time
_IN_FRAME_8 = np.zeros((3, 3, 3), dtype=bool)
_IN_FRAME_8[1] = True


def _single_channel(data: np.ndarray) -> np.ndarray:
    """(..., 1, H, W) -> (..., H, W); any other channel count is an error."""
    if data.shape[-3] != 1:
        raise ValueError(f"expected single-channel input, got {data.shape[-3]} channels")
    return data[..., 0, :, :]


def _as_plane(f) -> np.ndarray:
    """Accept a (1, H, W) or (H, W) array; return the (H, W) plane."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim == 3:
        arr = _single_channel(arr)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
    return arr


# ---------------------------------------------------------------------------
# Structural similarity
# ---------------------------------------------------------------------------


def _gaussian_window(radius: int, sigma: float) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return w / w.sum()


def _local_mean(img: np.ndarray, window: np.ndarray) -> np.ndarray:
    # Separable correlation, reflect boundary: constant images stay
    # constant at the border, which the identity/constant-image oracles
    # rely on.
    tmp = ndimage.correlate1d(img, window, axis=0, mode="reflect")
    return ndimage.correlate1d(tmp, window, axis=1, mode="reflect")


def _check_window(shape: tuple[int, ...], p: SsimParams) -> None:
    side = 2 * p.window_radius + 1
    if shape[0] < side or shape[1] < side:
        raise ValueError(f"window {side}x{side} larger than image {shape[0]}x{shape[1]}")


def _moments(img: np.ndarray, window: np.ndarray) -> tuple:
    """One image's share of the index: (image, mean, mean^2, variance, std)."""
    mu = _local_mean(img, window)
    mu_sq = mu * mu
    var = np.maximum(_local_mean(img * img, window) - mu_sq, 0.0)
    return img, mu, mu_sq, var, np.sqrt(var)


def _ssim_map(m1: tuple, m2: tuple, window: np.ndarray, p: SsimParams) -> np.ndarray:
    """Local similarity map of two images from their ``_moments``; only the
    cross moment is computed here."""
    a, mu1, mu1_sq, var1, sig1 = m1
    b, mu2, mu2_sq, var2, sig2 = m2
    cov = _local_mean(a * b, window) - mu1 * mu2
    lum = (2.0 * mu1 * mu2 + p.k1) / (mu1_sq + mu2_sq + p.k1)
    con = (2.0 * sig1 * sig2 + p.k2) / (var1 + var2 + p.k2)
    struct = (cov + p.k3) / (sig1 * sig2 + p.k3)
    return lum**p.alpha * con**p.beta * struct**p.gamma_exp


def ssim(f1, f2, params: SsimParams | None = None) -> SsimResult:
    """Similarity index of two single-channel images of identical shape.

    Both images must be at least as large as the Gaussian window.  The
    local map has the input shape; the global index is its mean.
    """
    p = params or SsimParams()
    a = _as_plane(f1)
    b = _as_plane(f2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_window(a.shape, p)
    w = _gaussian_window(p.window_radius, p.window_sigma)
    local = _ssim_map(_moments(a, w), _moments(b, w), w, p)
    return SsimResult(global_index=float(local.mean()), local_map=local)


def _consecutive_ssim(frames: np.ndarray, params: SsimParams | None = None) -> list[float]:
    """Global index of each consecutive pair of an (n, H, W) stack: n - 1
    values, pair i joining frames i and i + 1.  Each frame's moments are
    computed once and shared by the two pairs it belongs to."""
    p = params or SsimParams()
    _check_window(frames.shape[1:], p)
    w = _gaussian_window(p.window_radius, p.window_sigma)
    values = []
    prev = _moments(frames[0], w)
    for frame in frames[1:]:
        cur = _moments(frame, w)
        values.append(float(_ssim_map(prev, cur, w, p).mean()))
        prev = cur
    return values


# ---------------------------------------------------------------------------
# Binary morphology (zero-padded borders)
# ---------------------------------------------------------------------------


def _as_binary(mask) -> np.ndarray:
    arr = _as_plane(mask)
    if arr.dtype == bool:
        return arr
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("mask values must be exactly 0 or 1")
    return arr.astype(bool)


def _se_mask(se) -> np.ndarray:
    if se is None:
        return _SQUARE3
    if isinstance(se, StructuringElement):
        return se.mask
    return StructuringElement(np.asarray(se)).mask


def _morph(masks: np.ndarray, se: np.ndarray, erode: bool) -> np.ndarray:
    """Erode (AND) or dilate (OR) boolean (..., H, W) masks by ``se``.

    Each true cell of the element contributes one shifted view of the
    zero-padded masks, so pixels outside the image count as background;
    dilation reflects the element, as the set definition does.
    """
    r = se.shape[0] // 2
    h, w = masks.shape[-2:]
    padded = np.zeros(masks.shape[:-2] + (h + 2 * r, w + 2 * r), dtype=bool)
    padded[..., r : r + h, r : r + w] = masks
    sign = 1 if erode else -1
    out = None
    for dy, dx in np.argwhere(se) - r:
        y, x = r + sign * dy, r + sign * dx
        view = padded[..., y : y + h, x : x + w]
        if out is None:
            out = view.copy()
        elif erode:
            out &= view
        else:
            out |= view
    return out


def erode(mask, se=None) -> np.ndarray:
    """Binary erosion; pixels outside the image count as background."""
    return _morph(_as_binary(mask), _se_mask(se), erode=True)


def dilate(mask, se=None) -> np.ndarray:
    """Binary dilation; pixels outside the image count as background."""
    return _morph(_as_binary(mask), _se_mask(se), erode=False)


def opening(mask, se=None) -> np.ndarray:
    """Erosion followed by dilation: removes specks smaller than the element."""
    return dilate(erode(mask, se), se)


def closing(mask, se=None) -> np.ndarray:
    """Dilation followed by erosion: fills holes smaller than the element."""
    return erode(dilate(mask, se), se)


def _silhouettes(depth: np.ndarray) -> np.ndarray:
    """Foreground masks of (..., H, W) depth planes: nonzero depth, then
    open + close with the 3x3 square."""
    m = _morph(_morph(depth > 0.0, _SQUARE3, True), _SQUARE3, False)
    return _morph(_morph(m, _SQUARE3, False), _SQUARE3, True)


def silhouette(depth) -> np.ndarray:
    """Foreground mask of a single-channel depth frame or plane: nonzero
    depth, then open + close (3x3)."""
    return _silhouettes(_as_plane(depth))


def _largest_components(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest 8-connected component of each frame of (n, H, W) masks.

    Returns the component masks and which frames had any foreground (an
    empty frame's mask stays empty).  One labelling covers the stack:
    labels are assigned in scan order, so each frame's labels form one
    contiguous range and the first maximal count in it is the component
    whose first pixel comes earliest in row-major order.
    """
    labels, _ = ndimage.label(masks, structure=_IN_FRAME_8)
    counts = np.bincount(labels.ravel())
    last = np.maximum.accumulate(labels.reshape(len(labels), -1).max(axis=1))
    first = np.concatenate(([0], last[:-1]))
    keep = np.full(len(labels), -1)
    for i, (lo, hi) in enumerate(zip(first, last)):
        if hi > lo:
            keep[i] = lo + 1 + int(np.argmax(counts[lo + 1 : hi + 1]))
    return labels == keep[:, None, None], keep > 0


def largest_component(mask) -> np.ndarray:
    """Keep only the largest 8-connected component of a binary mask.

    Ties are broken toward the component whose first pixel comes
    earliest in row-major order (labels are assigned in scan order, and
    the first maximal count wins).
    """
    m = _as_binary(mask)
    if not m.any():
        raise ValueError("empty mask has no components")
    return _largest_components(m[None])[0][0]


# ---------------------------------------------------------------------------
# ROI crop and bilinear resize
# ---------------------------------------------------------------------------


def _lerp_coords(n_src: int, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner-aligned sample points along one axis: lower and upper source
    index and the fraction between them."""
    if side == 1:
        pos = np.array([(n_src - 1) / 2.0])
    elif n_src == 1:
        pos = np.zeros(side)
    else:
        pos = np.arange(side, dtype=np.float64) * (n_src - 1) / (side - 1)
    i0 = np.clip(np.floor(pos).astype(int), 0, n_src - 1)
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


def _roi_resize(source: np.ndarray, mask: np.ndarray, side: int) -> np.ndarray:
    """Crop (..., H, W) planes to the bounding box of a nonempty (H, W)
    mask, zero-pad to square (the odd leftover pixel goes to the
    bottom/right) and resize to side x side."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    ch, cw = r1 - r0, c1 - c0
    target = max(ch, cw)
    top, left = (target - ch) // 2, (target - cw) // 2
    square = np.zeros(source.shape[:-2] + (target, target))
    square[..., top : top + ch, left : left + cw] = source[..., r0:r1, c0:c1]
    return _bilinear_resize(square, side)


def roi_resize(f, mask, side: int = 227) -> np.ndarray:
    """Crop a (C, H, W) array to the mask's bounding box, zero-pad to
    square, resize to side; returns a (C, side, side) array.

    The shorter axis is padded symmetrically (the odd leftover pixel goes
    to the bottom/right); resizing is corner-aligned bilinear.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    data = np.asarray(f, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got ndim={data.ndim}")
    m = _as_binary(mask)
    if m.shape != data.shape[1:]:
        raise ValueError(f"mask shape {m.shape} does not match frame {data.shape[1:]}")
    if not m.any():
        raise ValueError("empty mask: nothing to crop")
    return _roi_resize(data, m, side)
