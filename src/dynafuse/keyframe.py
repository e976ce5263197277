"""Key-frame selection ranked by consecutive-pair structural similarity.

Low similarity between neighboring frames marks a salient pose change,
so pairs are sorted ascending by similarity and the leading frame of
each pair is picked until k key frames are collected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imgproc
from .imgproc import SsimParams
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


def preprocess_video(
    video: VideoSequence, side: int = 227, on_silhouette: bool = True
) -> tuple[VideoSequence, list[int]]:
    """Silhouette -> largest component -> square ROI resize for each depth frame.

    With ``on_silhouette`` the ROI content is the binary mask itself;
    otherwise the raw depth values are cropped.  Frames whose silhouette
    comes out empty are dropped; their 1-based indices are returned
    alongside the processed video.
    """
    kept: list[np.ndarray] = []
    dropped: list[int] = []
    for i, depth in enumerate(video.data, start=1):
        mask = imgproc.silhouette(depth)
        try:
            mask = imgproc.largest_component(mask)
        except ValueError:  # empty silhouette
            dropped.append(i)
            continue
        source = mask[None] if on_silhouette else depth
        kept.append(imgproc.roi_resize(source, mask, side=side))
    if not kept:
        raise ValueError("all frames produced empty silhouettes")
    processed = VideoSequence.from_frames(
        kept,
        class_id=video.class_id,
        subject_id=video.subject_id,
        view_id=video.view_id,
        fps_hint=video.fps_hint,
    )
    return processed, dropped


def ssii_vector(video: VideoSequence, params: SsimParams | None = None) -> SsiiVector:
    """Similarity of every consecutive frame pair, sorted ascending.

    Frames must be single-channel and already preprocessed (silhouette /
    ROI) as far as the caller wants them to be.
    """
    n = len(video)
    if n < 2:
        raise ValueError(f"need at least 2 frames, got {n}")
    data = video.data
    values = [(i, imgproc.ssim(data[i - 1], data[i], params).global_index) for i in range(1, n)]
    values.sort(key=lambda e: (e[1], e[0]))
    return SsiiVector(entries=tuple(values))


def _pick(vec: SsiiVector, n: int, k: int, keyframe_of_pair: str) -> tuple[int, ...]:
    """Walk the ascending similarity vector of an n-frame video for k key frames.

    Emits the leading frame of each pair (``keyframe_of_pair='second'``
    emits the trailing frame instead), deduplicates, and backfills from
    the tail of the video when fewer than k distinct indices are
    available.  The result is sorted ascending to preserve temporal order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if keyframe_of_pair not in ("first", "second"):
        raise ValueError("keyframe_of_pair must be 'first' or 'second'")
    offset = 0 if keyframe_of_pair == "first" else 1
    want = min(k, n)
    chosen: list[int] = []
    seen: set[int] = set()
    for pair_index, _ in vec.entries:
        idx = pair_index + offset
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


def select_keyframes(
    video: VideoSequence,
    k: int = 10,
    params: SsimParams | None = None,
    keyframe_of_pair: str = "first",
) -> KeyframeSelection:
    """Pick the k frames of an already preprocessed video whose pairs have
    the lowest similarity (see ``_pick`` for the walk and the backfill)."""
    indices = _pick(ssii_vector(video, params), len(video), k, keyframe_of_pair)
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
    params: SsimParams | None = None,
    keyframe_of_pair: str = "first",
) -> KeyframeStack:
    """Preprocess a raw depth video, rank its kept frames and stack the key frames.

    Preprocessing and the similarity vector run once each (n - 1
    similarity evaluations for n kept frames).  A video with a single
    kept frame stacks that frame.
    """
    processed, dropped = preprocess_video(video, side=side, on_silhouette=on_silhouette)
    n = len(processed)
    vec = ssii_vector(processed, params) if n >= 2 else SsiiVector(entries=())
    picked = _pick(vec, n, k, keyframe_of_pair)
    skipped = set(dropped)
    kept_raw = [i for i in range(1, len(video) + 1) if i not in skipped]
    return KeyframeStack(
        frames=processed.data[np.subtract(picked, 1), 0],
        frame_indices=tuple(kept_raw[i - 1] for i in picked),
        dropped_indices=tuple(dropped),
        ssii=vec,
    )
