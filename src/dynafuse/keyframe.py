"""Key-frame selection ranked by consecutive-pair structural similarity.

Low similarity between neighboring frames marks a salient pose change.
The key frames of an n-frame video are the leading frames of its k least
similar consecutive pairs, in temporal order (ties go to the earlier
pair), or all n frames when k >= n.  Each pair contributes a distinct
leading frame, so no frame is picked twice and none is backfilled.

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

import dataclasses

import numpy as np

from . import imgproc
from .tensorio import VideoSequence, _require_finite


@dataclasses.dataclass(frozen=True)
class KeyframeStack:
    """Preprocessed key frames stacked [K, side, side] in temporal order.

    ``frame_indices`` are the 1-based frame numbers of the stacked frames
    (raw frame numbers for ``keyframe_stack``).  ``dropped_indices`` are
    the raw frames whose silhouette came out empty, so they took no part
    in ranking or selection.  ``similarity`` holds the read-only float64
    index of each consecutive pair of kept frames (pair i joins the i-th
    and (i+1)-th kept frame); ``ranking`` lists the 1-based pairs by
    ascending similarity.  Both are empty when fewer than 2 frames were
    kept.
    """

    frames: np.ndarray
    frame_indices: tuple[int, ...]
    dropped_indices: tuple[int, ...]
    similarity: np.ndarray
    ranking: np.ndarray


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
    alongside the processed video, whose ids are 0 like a loaded video's.
    """
    depth = _planes(video)
    masks, found = imgproc.largest_component(imgproc.silhouette(depth))
    if not found.any():
        raise ValueError("all frames produced empty silhouettes")
    sources = masks if on_silhouette else depth
    kept = np.flatnonzero(found)
    data = np.stack([imgproc.roi_resize(sources[i], masks[i], side) for i in kept])[:, None]
    data.flags.writeable = False
    return VideoSequence(data), [int(i) + 1 for i in np.flatnonzero(~found)]


def select_keyframes(video: VideoSequence, k: int = 10) -> KeyframeStack:
    """Rank the consecutive pairs of an already preprocessed single-channel
    video and stack its k key frames (see the module docstring for the rule).
    A stable sort breaks similarity ties by ascending pair index."""
    planes = _planes(video)
    n = len(planes)
    similarity = imgproc.consecutive_ssim(planes) if n >= 2 else np.empty(0)
    _require_finite(similarity, "similarity values must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    ranking = np.argsort(similarity, kind="stable") + 1
    picked = np.arange(1, n + 1) if k >= n else np.sort(ranking[:k])
    similarity.flags.writeable = False
    ranking.flags.writeable = False
    return KeyframeStack(
        frames=planes[picked - 1],
        frame_indices=tuple(picked.tolist()),
        dropped_indices=(),
        similarity=similarity,
        ranking=ranking,
    )


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
    selection = select_keyframes(processed, k)
    kept_raw = np.setdiff1d(np.arange(1, len(video) + 1), dropped)
    return dataclasses.replace(
        selection,
        frame_indices=tuple(kept_raw[np.subtract(selection.frame_indices, 1)].tolist()),
        dropped_indices=tuple(dropped),
    )
