"""Key-frame selection ranked by consecutive-pair structural similarity.

Low similarity between neighboring frames marks a salient pose change,
so pairs are sorted ascending by similarity and the leading frame of
each pair is picked until k key frames are collected.

A depth video is processed whole, as its (n, 1, H, W) array, through the
public ``imgproc`` functions.  Silhouettes and largest components of all
n frames come from a few boolean array passes and one labelling call;
each kept frame is then cropped and resized on its own, because every
frame has its own bounding box.  The n - 1 pair similarities take 4
separable filter passes per frame (local mean and E[x^2], shared by the
frame's two pairs) plus 2 per pair (the cross moment), instead of 10 per
pair.  Beyond the processed (n_kept, 1, side, side) video the
temporaries are O(n * H * W) booleans and the moments of two frames at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imgproc
from .tensorio import VideoSequence


@dataclass(frozen=True)
class SsiiVector:
    """Similarity of each consecutive frame pair, sorted ascending.

    ``entries`` holds (pair_index, ssii) tuples with 1-based pair index i
    for the pair (frame_i, frame_{i+1}); ties sort by ascending index.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        entries = tuple((int(i), float(v)) for i, v in self.entries)
        if not all(np.isfinite(v) for _, v in entries):
            raise ValueError("similarity values must be finite")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class KeyframeSelection:
    """Strictly increasing 1-based frame indices, at most min(k, n) of them."""

    frame_indices: tuple[int, ...]
    k_requested: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.frame_indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("frame indices must be strictly increasing")
        object.__setattr__(self, "frame_indices", idx)


def _planes(video: VideoSequence) -> np.ndarray:
    """The (n, H, W) planes of a single-channel video."""
    if video.data.shape[1] != 1:
        raise ValueError(f"expected single-channel input, got {video.data.shape[1]} channels")
    return video.data[:, 0]


def preprocess_video(
    video: VideoSequence, side: int = 227, on_silhouette: bool = True
) -> tuple[VideoSequence, list[int]]:
    """Silhouette -> largest component -> square ROI resize of a depth video.

    With ``on_silhouette`` the ROI content is the binary mask itself;
    otherwise the raw depth values are cropped.  Frames whose silhouette
    comes out empty are dropped; their 1-based indices are returned
    alongside the processed video.
    """
    depth = _planes(video)
    masks, found = imgproc.largest_component(imgproc.silhouette(depth))
    if not found.any():
        raise ValueError("all frames produced empty silhouettes")
    sources = masks if on_silhouette else depth
    kept = np.flatnonzero(found)
    data = np.stack([imgproc.roi_resize(sources[i], masks[i], side) for i in kept])[:, None]
    data.flags.writeable = False
    processed = VideoSequence(
        data,
        class_id=video.class_id,
        subject_id=video.subject_id,
        view_id=video.view_id,
    )
    return processed, [int(i) + 1 for i in np.flatnonzero(~found)]


def ssii_vector(video: VideoSequence) -> SsiiVector:
    """Similarity of every consecutive frame pair, sorted ascending.

    Frames must be single-channel and already preprocessed (silhouette /
    ROI) as far as the caller wants them to be.
    """
    n = len(video)
    if n < 2:
        raise ValueError(f"need at least 2 frames, got {n}")
    values = imgproc.consecutive_ssim(_planes(video))
    entries = sorted(enumerate(values, start=1), key=lambda e: (e[1], e[0]))
    return SsiiVector(entries=tuple(entries))


def _pick(vec: SsiiVector, n: int, k: int) -> tuple[int, ...]:
    """Walk the ascending similarity vector of an n-frame video for k key frames.

    Emits the leading frame of each pair, deduplicates, and backfills from
    the tail of the video when fewer than k distinct indices are
    available.  The result is sorted ascending to preserve temporal order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    want = min(k, n)
    chosen: list[int] = []
    seen: set[int] = set()
    for idx, _ in vec.entries:
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
        if len(chosen) == want:
            break
    if len(chosen) < want and n not in seen:
        seen.add(n)
        chosen.append(n)
    for idx in range(1, n + 1):
        if len(chosen) == want:
            break
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    return tuple(sorted(chosen))


def select_keyframes(video: VideoSequence, k: int = 10) -> KeyframeSelection:
    """Pick the k frames of an already preprocessed video whose pairs have
    the lowest similarity (see ``_pick`` for the walk and the backfill)."""
    indices = _pick(ssii_vector(video), len(video), k)
    return KeyframeSelection(frame_indices=indices, k_requested=k)


@dataclass(frozen=True)
class KeyframeStack:
    """Preprocessed key frames stacked [K, side, side] in temporal order.

    ``frame_indices`` are the raw 1-based frame numbers of the stacked
    frames.  ``dropped_indices`` are the raw frames whose silhouette came
    out empty, so they took no part in ranking or selection.  ``ssii``
    ranks consecutive pairs of the kept frames (pair i joins the i-th and
    (i+1)-th kept frame); it is empty when fewer than 2 frames were kept.
    """

    frames: np.ndarray
    frame_indices: tuple[int, ...]
    dropped_indices: tuple[int, ...]
    ssii: SsiiVector


def keyframe_stack(
    video: VideoSequence,
    k: int = 10,
    side: int = 227,
    on_silhouette: bool = True,
) -> KeyframeStack:
    """Preprocess a raw depth video, rank its kept frames and stack the key frames.

    Preprocessing and the similarity vector run once each over the whole
    video (n - 1 pair evaluations for n kept frames, sharing each frame's
    local moments).  A video with a single kept frame stacks that frame.
    """
    processed, dropped = preprocess_video(video, side=side, on_silhouette=on_silhouette)
    n = len(processed)
    vec = ssii_vector(processed) if n >= 2 else SsiiVector(entries=())
    picked = _pick(vec, n, k)
    skipped = set(dropped)
    kept_raw = [i for i in range(1, len(video) + 1) if i not in skipped]
    return KeyframeStack(
        frames=processed.data[np.subtract(picked, 1), 0],
        frame_indices=tuple(kept_raw[i - 1] for i in picked),
        dropped_indices=tuple(dropped),
        ssii=vec,
    )
