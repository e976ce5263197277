"""Key-frame selection determinism, tie-breaks, stack preprocessing, and\nbit-identity of the whole-video shape stream with a per-frame oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dynafuse import imgproc
from dynafuse.keyframe import keyframe_stack, preprocess_video, select_keyframes
from dynafuse.tensorio import VideoSequence


def block_frame(side=16, top=4, left=4, h=6, w=6):
    arr = np.zeros((side, side))
    arr[top : top + h, left : left + w] = 1.0
    return arr


def make_video(planes):
    """A single-channel video of (H, W) planes."""
    return VideoSequence.from_frames([p[None] for p in planes])


def eleven_frame_video():
    """Frames 1..10 identical, frame 11 distinct: pair 10 has the lowest
    similarity because identical frames score exactly 1."""
    same = block_frame()
    different = block_frame(top=8, left=9, h=4, w=4)
    return make_video([same] * 10 + [different])


class TestSsiiVector:
    """The similarity vector (``similarity`` in pair order) and its ranking."""

    def test_constant_video_ties_break_ascending(self):
        sel = select_keyframes(make_video([block_frame()] * 5))
        assert sel.ranking.tolist() == [1, 2, 3, 4]
        assert sel.similarity.tolist() == [1.0] * 4

    def test_distinct_tail_sorts_first(self):
        sel = select_keyframes(eleven_frame_video())
        values = sel.similarity[sel.ranking - 1]
        assert sel.ranking[0] == 10
        assert values[0] < 1.0
        assert all(v == 1.0 for v in values[1:])

    def test_reversal_preserves_value_multiset(self):
        rng = np.random.default_rng(31)
        frames = [rng.random((12, 12)) for _ in range(6)]
        fwd = select_keyframes(make_video(frames)).similarity
        rev = select_keyframes(make_video(frames[::-1])).similarity
        np.testing.assert_allclose(np.sort(fwd), np.sort(rev), atol=1e-12)
        np.testing.assert_allclose(fwd, rev[::-1], atol=1e-12)

    def test_too_short(self):
        """One frame has no pair to rank, so it is its own key frame."""
        video = make_video([block_frame()])
        sel = select_keyframes(video, k=3)
        assert sel.similarity.shape == (0,) and sel.similarity.dtype == np.float64
        assert sel.ranking.shape == (0,)
        assert sel.frame_indices == (1,)
        np.testing.assert_array_equal(sel.frames, video.data[:, 0])


def old_walk(entries, n, k):
    """The dedupe-and-backfill walk that picked key frames before the closed
    form: ``entries`` are (pair_index, similarity) sorted ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    want = min(k, n)
    chosen: list[int] = []
    seen: set[int] = set()
    for idx, _ in entries:
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


class TestSelectKeyframes:
    def test_closed_form_matches_the_walk(self, monkeypatch):
        """Sort-and-take equals the old walk for every n and k, ties included:
        the similarities are drawn from a few levels, so most videos tie."""
        rng = np.random.default_rng(34)
        drawn = {}
        monkeypatch.setattr(imgproc, "consecutive_ssim", lambda planes: drawn["values"].copy())
        for n in range(1, 13):
            video = make_video(list(rng.random((n, 2, 3))))
            for trial in range(8):
                levels = rng.choice([0.25, 0.5, 1.0], size=3) if trial % 2 else rng.random(3)
                drawn["values"] = rng.choice(levels, size=n - 1)
                entries = sorted(enumerate(drawn["values"].tolist(), start=1),
                                 key=lambda e: (e[1], e[0]))
                for k in range(1, n + 3):
                    sel = select_keyframes(video, k=k)
                    assert sel.frame_indices == old_walk(entries, n, k)
                    assert [(i, sel.similarity[i - 1]) for i in sel.ranking.tolist()] == entries
                    picked = np.subtract(sel.frame_indices, 1)
                    np.testing.assert_array_equal(sel.frames, video.data[picked, 0])

    def test_short_video_keeps_every_frame(self):
        video = make_video([block_frame()] * 5)
        sel = select_keyframes(video, k=10)
        assert sel.frame_indices == (1, 2, 3, 4, 5)

    def test_lowest_similarity_pair_wins(self):
        sel = select_keyframes(eleven_frame_video(), k=1)
        assert sel.frame_indices == (10,)

    def test_constant_video_tie_break(self):
        video = make_video([block_frame()] * 6)
        sel = select_keyframes(video, k=3)
        assert sel.frame_indices == (1, 2, 3)

    def test_deterministic(self):
        video = eleven_frame_video()
        a = select_keyframes(video, k=4)
        b = select_keyframes(video, k=4)
        assert a.frame_indices == b.frame_indices

    def test_minimum_pair_always_included(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            frames = [rng.random((12, 12)) for _ in range(7)]
            video = make_video(frames)
            best_pair = select_keyframes(video).ranking[0]
            for k in (1, 3, 6):
                assert best_pair in select_keyframes(video, k=k).frame_indices

    def test_appending_duplicate_tail_never_displaces(self):
        """A final duplicate frame forms a similarity-1 pair that sorts
        after everything else, so prior selections survive."""
        rng = np.random.default_rng(33)
        frames = [rng.random((12, 12)) for _ in range(6)]
        extended = frames + [frames[-1]]
        for k in (1, 2, 3, 5, 6, 8):
            before = set(select_keyframes(make_video(frames), k=k).frame_indices)
            after = set(select_keyframes(make_video(extended), k=k).frame_indices)
            assert before <= after

    def test_selection_invariants(self):
        """Indices strictly increase, and the vectors are read-only float64 and
        1-based integer arrays; k below 1 is refused."""
        video = eleven_frame_video()
        sel = select_keyframes(video, k=4)
        assert all(b > a for a, b in zip(sel.frame_indices, sel.frame_indices[1:]))
        assert all(type(i) is int for i in sel.frame_indices)
        assert sel.similarity.dtype == np.float64 and sel.similarity.shape == (10,)
        assert sorted(sel.ranking.tolist()) == list(range(1, 11))
        for arr in (sel.similarity, sel.ranking):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(ValueError, match="k must be >= 1"):
            select_keyframes(video, k=0)

    def test_negative_intensities_give_the_finite_check(self):
        """Frames of -1, 1, -1 make the luminance term negative; its square
        root is NaN, which the similarity check refuses with no warning."""
        video = make_video([np.full((12, 12), v) for v in (-1.0, 1.0, -1.0)])
        with pytest.raises(ValueError, match="similarity values must be finite"):
            select_keyframes(video, k=1)


class TestKeyframeStack:
    def depth_video(self, n=12, side=24):
        frames = []
        for t in range(n):
            arr = np.zeros((side, side))
            arr[4 : 12 + (t % 3), 6:14] = 0.8
            frames.append(arr)
        return make_video(frames)

    def test_stack_shape(self):
        video = self.depth_video()
        processed, dropped = preprocess_video(video, side=16)
        assert not dropped
        sel = select_keyframes(processed, k=10)
        stack = keyframe_stack(video, k=10, side=16)
        assert stack.frames.shape == (10, 16, 16)
        assert stack.frame_indices == sel.frame_indices
        assert stack.dropped_indices == ()
        assert stack.similarity.shape == (11,)
        np.testing.assert_array_equal(stack.similarity, sel.similarity)
        expected = np.stack([processed.data[i - 1, 0] for i in sel.frame_indices])
        np.testing.assert_array_equal(stack.frames, expected)

    def test_single_frame_selection(self):
        empty = np.zeros((16, 16))
        video = make_video([empty, block_frame(), empty])
        stack = keyframe_stack(video, k=10, side=16)
        assert stack.frames.shape == (1, 16, 16)
        assert stack.frame_indices == (2,)
        assert stack.dropped_indices == (1, 3)
        assert stack.similarity.shape == stack.ranking.shape == (0,)

    def test_all_background_video_errors(self):
        video = make_video([np.zeros((16, 16))] * 4)
        with pytest.raises(ValueError, match="empty silhouettes"):
            keyframe_stack(video, k=2, side=16)

    def test_empty_frames_dropped_with_warning_count(self):
        """A blank frame is dropped before ranking; the stack reports raw
        frame numbers and the pairs number the kept frames."""
        good = self.depth_video(n=6, side=16).data[:, 0]
        empty = np.zeros((16, 16))
        video = make_video([good[0], good[1], empty, good[3], good[4], good[5]])
        stack = keyframe_stack(video, k=3, side=16)
        assert stack.dropped_indices == (3,)
        assert 3 not in stack.frame_indices
        assert stack.frames.shape == (3, 16, 16)
        assert sorted(stack.ranking.tolist()) == [1, 2, 3, 4]

    def test_silhouette_content_binary(self):
        stack = keyframe_stack(self.depth_video(), k=3, side=16)
        assert stack.frames.min() >= 0.0 and stack.frames.max() <= 1.0


# ---------------------------------------------------------------------------
# Bit-identity with the per-frame pipeline
#
# The oracle below is the shape stream as it ran frame by frame and pair
# by pair: scipy morphology and labelling per frame, a four-gather
# bilinear resize per plane and a ten-pass SSIM per pair.  The whole-video
# routines must reproduce it bit for bit, errors included.
# ---------------------------------------------------------------------------

SQUARE3 = np.ones((3, 3), dtype=bool)


def oracle_silhouette(plane):
    m = plane > 0.0
    m = ndimage.binary_dilation(ndimage.binary_erosion(m, SQUARE3, border_value=0), SQUARE3, border_value=0)
    return ndimage.binary_erosion(ndimage.binary_dilation(m, SQUARE3, border_value=0), SQUARE3, border_value=0)


def oracle_largest_component(mask):
    """The largest 8-connected component, or None for an empty mask."""
    labels, n = ndimage.label(mask, structure=SQUARE3)
    if n == 0:
        return None
    counts = np.bincount(labels.ravel())[1:]
    return labels == int(np.argmax(counts)) + 1


def oracle_resize_plane(img, side):
    h, w = img.shape

    def coords(n_src):
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
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


def oracle_roi_resize(data, mask, side):
    if side < 1:
        raise ValueError("side must be >= 1")
    data = np.asarray(data, dtype=np.float64)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    crop = data[:, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    pad_r = max(crop.shape[1:]) - crop.shape[1]
    pad_c = max(crop.shape[1:]) - crop.shape[2]
    pads = ((0, 0), (pad_r // 2, pad_r - pad_r // 2), (pad_c // 2, pad_c - pad_c // 2))
    square = np.pad(crop, pads, mode="constant")
    return np.stack([oracle_resize_plane(plane, side) for plane in square])


def oracle_ssim(a, b):
    """Ten-pass SSIM with the reference constants: exponents 0.5, 0.5, 1;
    stabilizers 1e-4, 9e-4, 4.5e-4; an 11x11 Gaussian window of sigma 1.5."""
    if a.shape[0] < 11 or a.shape[1] < 11:
        raise ValueError(f"window 11x11 larger than image {a.shape[0]}x{a.shape[1]}")
    x = np.arange(-5, 6, dtype=np.float64)
    w = np.exp(-(x * x) / (2.0 * 1.5 * 1.5))
    w = w / w.sum()

    def lm(img):
        tmp = ndimage.correlate1d(img, w, axis=0, mode="reflect")
        return ndimage.correlate1d(tmp, w, axis=1, mode="reflect")

    mu1 = lm(a)
    mu2 = lm(b)
    var1 = np.maximum(lm(a * a) - mu1 * mu1, 0.0)
    var2 = np.maximum(lm(b * b) - mu2 * mu2, 0.0)
    cov = lm(a * b) - mu1 * mu2
    sig1 = np.sqrt(var1)
    sig2 = np.sqrt(var2)
    lum = (2.0 * mu1 * mu2 + 1e-4) / (mu1 * mu1 + mu2 * mu2 + 1e-4)
    con = (2.0 * sig1 * sig2 + 9e-4) / (var1 + var2 + 9e-4)
    struct = (cov + 4.5e-4) / (sig1 * sig2 + 4.5e-4)
    return float((lum**0.5 * con**0.5 * struct**1.0).mean())


def oracle_keyframe_stack(video, k=10, side=227, on_silhouette=True):
    """(frame bytes, frame_indices, dropped_indices, ssii entries)."""
    kept, dropped = [], []
    for i, depth in enumerate(video.data, start=1):
        if depth.shape[0] != 1:
            raise ValueError(f"expected single-channel input, got {depth.shape[0]} channels")
        mask = oracle_largest_component(oracle_silhouette(depth[0]))
        if mask is None:
            dropped.append(i)
            continue
        kept.append(oracle_roi_resize(mask[None] if on_silhouette else depth, mask, side))
    if not kept:
        raise ValueError("all frames produced empty silhouettes")
    planes = VideoSequence.from_frames(kept).data[:, 0]
    n = len(planes)
    values = [(i, oracle_ssim(planes[i - 1], planes[i])) for i in range(1, n)]
    if not all(np.isfinite(v) for _, v in values):
        raise ValueError("similarity values must be finite")
    values.sort(key=lambda e: (e[1], e[0]))
    picked = old_walk(values, n, k)
    kept_raw = [i for i in range(1, len(video) + 1) if i not in dropped]
    frames = planes[np.subtract(picked, 1)]
    return frames.tobytes(), tuple(kept_raw[i - 1] for i in picked), tuple(dropped), tuple(values)


def stack_outputs(video, **kwargs):
    """(frame bytes, frame_indices, dropped_indices, (pair, ssii) in ranked order)."""
    stack = keyframe_stack(video, **kwargs)
    ranked = tuple((i, float(stack.similarity[i - 1])) for i in stack.ranking.tolist())
    return stack.frames.tobytes(), stack.frame_indices, stack.dropped_indices, ranked


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def assert_matches_oracle(video, **kwargs):
    assert outcome(stack_outputs, video, **kwargs) == outcome(oracle_keyframe_stack, video, **kwargs)


def unchecked_video(data):
    """A VideoSequence holding ``data`` without the constructor's checks, to
    show what the pipeline itself does with values no loader lets through."""
    video = object.__new__(VideoSequence)
    for name, value in (("data", data), ("class_id", 0), ("subject_id", 0), ("view_id", 0)):
        object.__setattr__(video, name, value)
    return video


FRAME_KINDS = ("empty", "speckles", "blocks", "twins", "line", "noise")
FRAME_WEIGHTS = (0.1, 0.1, 0.3, 0.2, 0.15, 0.15)


def draw_plane(rng, kind, h, w):
    plane = np.zeros((h, w))
    if kind == "speckles":
        plane[rng.random((h, w)) < 0.08] = 1.0
    elif kind == "blocks":
        for _ in range(rng.integers(1, 4)):
            y, x = rng.integers(0, h), rng.integers(0, w)
            plane[y : y + rng.integers(3, h + 3), x : x + rng.integers(3, w + 3)] = 1.0
    elif kind == "twins":  # two components of one size: the tie goes to scan order
        bh, bw = (rng.integers(min(3, n), max(n // 2, min(3, n)) + 1) for n in (h, w))
        for _ in range(2):
            y, x = rng.integers(0, h - bh + 1), rng.integers(0, w - bw + 1)
            plane[y : y + bh, x : x + bw] = 1.0
    elif kind == "line":  # a 1-px line, which opening removes, beside an optional block
        if rng.random() < 0.5:
            plane[rng.integers(0, h), :] = 1.0
        else:
            plane[:, rng.integers(0, w)] = 1.0
        if rng.random() < 0.7:
            y, x = rng.integers(0, h), rng.integers(0, w)
            plane[y : y + 4, x : x + 5] = 1.0
    elif kind == "noise":
        plane[rng.random((h, w)) < rng.uniform(0.2, 0.9)] = 1.0
    if rng.random() < 0.5:  # graded depth, which the raw ROI copies
        plane *= rng.uniform(0.05, 1.0, (h, w))
    return plane


@st.composite
def depth_videos(draw, max_frames=7):
    """Small depth videos with (mostly non-square) frames of mixed content;
    usually one frame also holds a 3x3+ block, which always survives.  The
    structure comes from the drawn seed, so sizes and frame counts spread
    evenly instead of clustering at their bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = (int(rng.integers(1, 4) if rng.random() < 0.15 else rng.integers(8, 25)) for _ in "hw")
    kinds = rng.choice(FRAME_KINDS, size=rng.integers(1, max_frames + 1), p=FRAME_WEIGHTS)
    planes = [draw_plane(rng, kind, h, w) for kind in kinds]
    if h >= 3 and w >= 3 and rng.random() < 0.7:
        y, x = rng.integers(0, h - 2), rng.integers(0, w - 2)
        planes[rng.integers(0, len(planes))][y : y + rng.integers(3, 9), x : x + rng.integers(3, 9)] = 1.0
    return make_video(planes)


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestMatchesPerFrameOracle:
    @PROPERTY
    @given(
        video=depth_videos(),
        k=st.integers(1, 6),
        side=st.sampled_from([11, 16, 64]),
        on_silhouette=st.booleans(),
    )
    def test_keyframe_stack_is_bit_identical(self, video, k, side, on_silhouette):
        assert_matches_oracle(video, k=k, side=side, on_silhouette=on_silhouette)

    @pytest.mark.parametrize("side", [11, 16, 64])
    def test_equal_components_lines_and_speckles(self, side):
        late = np.zeros((18, 13))
        late[12:16, 1:5] = 1.0  # later in scan order
        late[2:6, 8:12] = 0.5  # same size, first pixel earlier
        line = np.zeros((18, 13))
        line[9, :] = 1.0
        line[3:8, 2:6] = 0.7
        vline = np.zeros((18, 13))
        vline[:, 6] = 1.0
        vline[10:15, 8:12] = 0.9
        speck = np.zeros((18, 13))
        speck[::4, ::3] = 1.0
        video = make_video([late, line, speck, late[::-1], vline])
        for on_silhouette in (True, False):
            assert_matches_oracle(video, k=3, side=side, on_silhouette=on_silhouette)


class TestErrorParity:
    """The whole-video path fails exactly where and how the per-frame one did."""

    def test_three_channel_depth(self):
        video = VideoSequence(np.ones((3, 3, 16, 16)))
        assert_matches_oracle(video, side=16)
        with pytest.raises(ValueError, match="expected single-channel input, got 3 channels"):
            keyframe_stack(video, side=16)

    def test_side_zero(self):
        video = TestKeyframeStack().depth_video(n=4)
        assert_matches_oracle(video, side=0)
        with pytest.raises(ValueError, match="side must be >= 1"):
            keyframe_stack(video, side=0)

    def test_side_below_window_with_two_kept_frames(self):
        video = TestKeyframeStack().depth_video(n=4)
        assert_matches_oracle(video, side=8)
        with pytest.raises(ValueError, match="window 11x11 larger than image 8x8"):
            keyframe_stack(video, side=8)

    def test_single_kept_frame_needs_no_window(self):
        empty = np.zeros((16, 16))
        video = make_video([empty, block_frame(), empty])
        for side in (1, 8):
            assert_matches_oracle(video, side=side)
            assert keyframe_stack(video, side=side).frames.shape == (1, side, side)

    def test_all_empty_video(self):
        video = make_video([np.zeros((16, 16))] * 3)
        for side in (0, 16):
            assert_matches_oracle(video, side=side)

    def test_nan_depth(self):
        """No loader lets NaN through; past that check, NaN depth counts as
        background for the mask and fails the raw ROI's own check."""
        data = np.zeros((3, 1, 16, 16))
        data[:, 0, 3:12, 4:12] = 0.5
        data[1, 0, 6, 6] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            VideoSequence(data)
        video = unchecked_video(data)
        for on_silhouette in (True, False):
            assert_matches_oracle(video, side=16, on_silhouette=on_silhouette)
        with pytest.raises(ValueError, match="non-finite"):
            keyframe_stack(video, side=16, on_silhouette=False)


class TestWholeVideoRoutines:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        channels=st.integers(1, 3),
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        side=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=1, h=1, w=1, side=1, seed=0)
    @example(channels=1, h=1, w=9, side=5, seed=1)
    @example(channels=2, h=7, w=1, side=1, seed=2)
    def test_separable_resize_matches_four_gather_resize(self, channels, h, w, side, seed):
        img = np.random.default_rng(seed).random((channels, h, w))
        expected = np.stack([oracle_resize_plane(plane, side) for plane in img])
        assert imgproc._bilinear_resize(img, side).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, h=1, w=5, seed=0)
    @example(n=2, h=2, w=1, seed=1)
    def test_morphology_matches_scipy(self, n, h, w, seed):
        """The 3x3 square's separable passes against scipy, frame by frame."""
        rng = np.random.default_rng(seed)
        masks = rng.random((n, h, w)) < rng.random()
        se = np.ones((3, 3), dtype=bool)
        eroded = imgproc._box3(masks, erode=True)
        dilated = imgproc._box3(masks, erode=False)
        for i in range(n):
            want_e = ndimage.binary_erosion(masks[i], structure=se, border_value=0)
            want_d = ndimage.binary_dilation(masks[i], structure=se, border_value=0)
            np.testing.assert_array_equal(eroded[i], want_e)
            np.testing.assert_array_equal(dilated[i], want_d)

    @PROPERTY
    @given(video=depth_videos(max_frames=6))
    def test_silhouettes_and_components_match_per_frame(self, video):
        depth = video.data[:, 0]
        masks, found = imgproc.largest_component(imgproc.silhouette(depth))
        for i, plane in enumerate(depth):
            want = oracle_largest_component(oracle_silhouette(plane))
            assert found[i] == (want is not None)
            np.testing.assert_array_equal(masks[i], want if want is not None else False)


class TestStackProperties:
    @PROPERTY
    @given(video=depth_videos(max_frames=6), k=st.integers(1, 8))
    def test_indices_increase_and_skip_dropped_frames(self, video, k):
        try:
            stack = keyframe_stack(video, k=k, side=11)
        except ValueError as exc:
            assert str(exc) == "all frames produced empty silhouettes"
            return
        idx = stack.frame_indices
        n_kept = len(video) - len(stack.dropped_indices)
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert len(idx) == min(k, n_kept) == len(stack.frames)
        assert not set(idx) & set(stack.dropped_indices)
        assert set(idx) <= set(range(1, len(video) + 1))
