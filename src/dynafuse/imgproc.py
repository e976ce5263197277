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

Images are plain (C, H, W) arrays, as sliced from a video's (n, C, H, W)
array; the single-channel functions also take an (H, W) plane.
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
    side = 2 * p.window_radius + 1
    if a.shape[0] < side or a.shape[1] < side:
        raise ValueError(
            f"window {side}x{side} larger than image {a.shape[0]}x{a.shape[1]}"
        )
    w = _gaussian_window(p.window_radius, p.window_sigma)

    mu1 = _local_mean(a, w)
    mu2 = _local_mean(b, w)
    var1 = np.maximum(_local_mean(a * a, w) - mu1 * mu1, 0.0)
    var2 = np.maximum(_local_mean(b * b, w) - mu2 * mu2, 0.0)
    cov = _local_mean(a * b, w) - mu1 * mu2
    sig1 = np.sqrt(var1)
    sig2 = np.sqrt(var2)

    lum = (2.0 * mu1 * mu2 + p.k1) / (mu1 * mu1 + mu2 * mu2 + p.k1)
    con = (2.0 * sig1 * sig2 + p.k2) / (var1 + var2 + p.k2)
    struct = (cov + p.k3) / (sig1 * sig2 + p.k3)

    local = lum**p.alpha * con**p.beta * struct**p.gamma_exp
    return SsimResult(global_index=float(local.mean()), local_map=local)


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
    if isinstance(se, StructuringElement):
        return se.mask
    return StructuringElement(np.asarray(se)).mask


def erode(mask, se=None) -> np.ndarray:
    """Binary erosion; pixels outside the image count as background."""
    m = _as_binary(mask)
    s = _se_mask(se if se is not None else StructuringElement.full(3))
    return ndimage.binary_erosion(m, structure=s, border_value=0)


def dilate(mask, se=None) -> np.ndarray:
    """Binary dilation; pixels outside the image count as background."""
    m = _as_binary(mask)
    s = _se_mask(se if se is not None else StructuringElement.full(3))
    return ndimage.binary_dilation(m, structure=s, border_value=0)


def opening(mask, se=None) -> np.ndarray:
    """Erosion followed by dilation: removes specks smaller than the element."""
    return dilate(erode(mask, se), se)


def closing(mask, se=None) -> np.ndarray:
    """Dilation followed by erosion: fills holes smaller than the element."""
    return erode(dilate(mask, se), se)


def silhouette(depth) -> np.ndarray:
    """Foreground mask of a single-channel depth frame or plane: nonzero
    depth, then open + close (3x3)."""
    plane = _as_plane(depth)
    mask = plane > 0.0
    se = StructuringElement.full(3)
    return closing(opening(mask, se), se)


def largest_component(mask) -> np.ndarray:
    """Keep only the largest 8-connected component of a binary mask.

    Ties are broken toward the component whose first pixel comes
    earliest in row-major order (labels are assigned in scan order, and
    the first maximal count wins).
    """
    m = _as_binary(mask)
    labels, n = ndimage.label(m, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        raise ValueError("empty mask has no components")
    counts = np.bincount(labels.ravel())[1:]
    keep = int(np.argmax(counts)) + 1
    return labels == keep


# ---------------------------------------------------------------------------
# ROI crop and bilinear resize
# ---------------------------------------------------------------------------


def _bilinear_resize_plane(img: np.ndarray, side: int) -> np.ndarray:
    """Corner-aligned bilinear resize of one (H, W) plane to side x side."""
    h, w = img.shape

    def coords(n_src: int) -> np.ndarray:
        if side == 1:
            return np.array([(n_src - 1) / 2.0])
        if n_src == 1:
            return np.zeros(side)
        return np.arange(side, dtype=np.float64) * (n_src - 1) / (side - 1)

    ys, xs = coords(h), coords(w)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]

    v00 = img[np.ix_(y0, x0)]
    v01 = img[np.ix_(y0, x1)]
    v10 = img[np.ix_(y1, x0)]
    v11 = img[np.ix_(y1, x1)]
    # nested lerp keeps constants exact and stays inside [min, max]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


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
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    if rows.size == 0:
        raise ValueError("empty mask: nothing to crop")
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    crop = data[:, r0 : r1 + 1, c0 : c1 + 1]
    ch, cw = crop.shape[1], crop.shape[2]
    target = max(ch, cw)
    pad_r = target - ch
    pad_c = target - cw
    pads = (
        (0, 0),
        (pad_r // 2, pad_r - pad_r // 2),
        (pad_c // 2, pad_c - pad_c // 2),
    )
    square = np.pad(crop, pads, mode="constant")
    return np.stack([_bilinear_resize_plane(plane, side) for plane in square])
