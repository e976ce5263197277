"""Key-frame selection determinism, tie-breaks and stack preprocessing."""

import numpy as np
import pytest

from dynafuse.keyframe import (
    KeyframeSelection,
    keyframe_stack,
    preprocess_video,
    select_keyframes,
    ssii_vector,
)
from dynafuse.tensorio import Frame, VideoSequence


def block_frame(side=16, top=4, left=4, h=6, w=6):
    arr = np.zeros((side, side))
    arr[top : top + h, left : left + w] = 1.0
    return Frame.from_array(arr)


def make_video(frames):
    return VideoSequence.from_frames(tuple(frames))


def eleven_frame_video():
    """Frames 1..10 identical, frame 11 distinct: pair 10 has the lowest
    similarity because identical frames score exactly 1."""
    same = block_frame()
    different = block_frame(top=8, left=9, h=4, w=4)
    return make_video([same] * 10 + [different])


class TestSsiiVector:
    def test_constant_video_ties_break_ascending(self):
        video = make_video([block_frame()] * 5)
        vec = ssii_vector(video)
        assert [i for i, _ in vec.entries] == [1, 2, 3, 4]
        assert all(v == 1.0 for _, v in vec.entries)

    def test_distinct_tail_sorts_first(self):
        vec = ssii_vector(eleven_frame_video())
        indices = [i for i, _ in vec.entries]
        values = [v for _, v in vec.entries]
        assert indices[0] == 10
        assert values[0] < 1.0
        assert all(v == 1.0 for v in values[1:])

    def test_reversal_preserves_value_multiset(self):
        rng = np.random.default_rng(31)
        frames = [Frame.from_array(rng.random((12, 12))) for _ in range(6)]
        fwd = ssii_vector(make_video(frames))
        rev = ssii_vector(make_video(frames[::-1]))
        np.testing.assert_allclose(
            sorted(v for _, v in fwd.entries),
            sorted(v for _, v in rev.entries),
            atol=1e-12,
        )

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            ssii_vector(make_video([block_frame()]))


class TestSelectKeyframes:
    def test_short_video_backfills_tail(self):
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

    def test_second_frame_of_pair_mode(self):
        sel = select_keyframes(eleven_frame_video(), k=1, keyframe_of_pair="second")
        assert sel.frame_indices == (11,)

    def test_deterministic(self):
        video = eleven_frame_video()
        a = select_keyframes(video, k=4)
        b = select_keyframes(video, k=4)
        assert a.frame_indices == b.frame_indices

    def test_minimum_pair_always_included(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            frames = [Frame.from_array(rng.random((12, 12))) for _ in range(7)]
            video = make_video(frames)
            vec = ssii_vector(video)
            best_pair = vec.entries[0][0]
            for k in (1, 3, 6):
                assert best_pair in select_keyframes(video, k=k).frame_indices

    def test_appending_duplicate_tail_never_displaces(self):
        """A final duplicate frame forms a similarity-1 pair that sorts
        after everything else, so prior selections survive."""
        rng = np.random.default_rng(33)
        frames = [Frame.from_array(rng.random((12, 12))) for _ in range(6)]
        extended = frames + [frames[-1]]
        for k in (1, 2, 3, 5, 6, 8):
            before = set(select_keyframes(make_video(frames), k=k).frame_indices)
            after = set(select_keyframes(make_video(extended), k=k).frame_indices)
            assert before <= after

    def test_selection_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            KeyframeSelection(frame_indices=(3, 3), k_requested=2)


class TestKeyframeStack:
    def depth_video(self, n=12, side=24):
        frames = []
        for t in range(n):
            arr = np.zeros((side, side))
            arr[4 : 12 + (t % 3), 6:14] = 0.8
            frames.append(Frame.from_array(arr))
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
        assert len(stack.ssii.entries) == 11
        expected = np.stack([processed.frames[i - 1].plane(0) for i in sel.frame_indices])
        np.testing.assert_array_equal(stack.frames, expected)

    def test_single_frame_selection(self):
        empty = Frame.from_array(np.zeros((16, 16)))
        video = make_video([empty, block_frame(), empty])
        stack = keyframe_stack(video, k=10, side=16)
        assert stack.frames.shape == (1, 16, 16)
        assert stack.frame_indices == (2,)
        assert stack.dropped_indices == (1, 3)
        assert stack.ssii.entries == ()

    def test_all_background_video_errors(self):
        video = make_video([Frame.from_array(np.zeros((16, 16)))] * 4)
        with pytest.raises(ValueError, match="empty silhouettes"):
            keyframe_stack(video, k=2, side=16)

    def test_empty_frames_dropped_with_warning_count(self):
        """A blank frame is dropped before ranking; the stack reports raw
        frame numbers and the pairs number the kept frames."""
        good = self.depth_video(n=6, side=16).frames
        empty = Frame.from_array(np.zeros((16, 16)))
        video = make_video([good[0], good[1], empty, good[3], good[4], good[5]])
        stack = keyframe_stack(video, k=3, side=16)
        assert stack.dropped_indices == (3,)
        assert 3 not in stack.frame_indices
        assert stack.frames.shape == (3, 16, 16)
        assert sorted(i for i, _ in stack.ssii.entries) == [1, 2, 3, 4]

    def test_silhouette_content_binary(self):
        stack = keyframe_stack(self.depth_video(), k=3, side=16)
        assert stack.frames.min() >= 0.0 and stack.frames.max() <= 1.0
