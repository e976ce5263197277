"""File format round trips and boundary validation for frames and tensors."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynafuse.tensorio import (
    FeatureSequence,
    VideoSequence,
    read_frame,
    read_feature_sequence,
    read_tensor,
    video_from_frame_files,
    write_feature_sequence,
    write_frame,
    write_tensor,
)

# deterministic and bounded, so the property tests add about a second
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestFrameType:
    """A frame is a (C, H, W) array: write_frame checks what it is given,
    read_frame returns it read-only and a video holds frames of one shape."""

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "x.pgm"
        for shape in [(2, 2), (1, 2, 2, 1), (0, 2, 2), (1, 0, 2), (1, 2, 0)]:
            with pytest.raises(ValueError, match="expected a non-empty"):
                write_frame(np.zeros(shape), path, "pgm")
            assert not path.exists()

    def test_channel_validation(self, tmp_path):
        for fmt, channels in [("pgm", 2), ("pgm", 3), ("ppm", 1), ("ppm", 2)]:
            path = tmp_path / f"x.{fmt}"
            with pytest.raises(ValueError, match="channel mismatch"):
                write_frame(np.zeros((channels, 2, 2)), path, fmt)
            assert not path.exists()
        with pytest.raises(ValueError, match="channels must be 1 or 3"):
            VideoSequence(np.zeros((1, 2, 2, 2)))

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "x.pgm"
        for bad in (np.nan, np.inf, -np.inf):
            data = np.zeros((1, 2, 2))
            data[0, 0, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                write_frame(data, path, "pgm")
            assert not path.exists()
            with pytest.raises(ValueError, match="non-finite"):
                VideoSequence(data[None])

    def test_immutable_after_construction(self, tmp_path):
        write_frame(np.zeros((1, 2, 2)), tmp_path / "x.pgm", "pgm")
        frame = read_frame(tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            frame[0, 0, 0] = 1.0

    def test_video_uniform_shape(self):
        with pytest.raises(ValueError, match="share one shape"):
            VideoSequence.from_frames([np.zeros((1, 2, 2)), np.zeros((1, 3, 3))])


class TestVideoSequence:
    def test_frames_are_cached_read_only_views(self):
        """``frames`` is ``data`` itself, read-only; stacking the buffers of
        its slices, as perfbench does, gives ``data`` back bit for bit."""
        video = VideoSequence(np.random.default_rng(1).random((3, 1, 4, 5)), view_id=2)
        assert len(video) == 3 and video.frame_shape == (1, 4, 5)
        assert video.frames is video.data
        assert np.stack([f.data for f in video.frames]).tobytes() == video.data.tobytes()
        with pytest.raises(ValueError):
            video.data[0, 0, 0, 0] = 1.0

    def test_caller_array_is_copied_not_frozen(self):
        """A sequence copies a writeable array instead of making it read-only,
        and takes an array that is already read-only without a copy."""
        frames = np.zeros((2, 1, 3, 3))
        vectors = np.zeros((3, 2))
        video = VideoSequence(frames)
        features = FeatureSequence(vectors=vectors)
        assert frames.flags.writeable and vectors.flags.writeable
        frames[:] = 1.0
        vectors[:] = 1.0
        assert not video.data.any() and not features.vectors.any()
        assert not video.data.flags.writeable and not features.vectors.flags.writeable
        assert VideoSequence(video.data).data is video.data

    def test_loader_rejects_mixed_shapes(self, tmp_path):
        write_frame(np.zeros((1, 2, 2)), tmp_path / "a.pgm", "pgm")
        write_frame(np.zeros((1, 3, 2)), tmp_path / "b.pgm", "pgm")
        with pytest.raises(ValueError, match="share one shape"):
            video_from_frame_files([tmp_path / "a.pgm", tmp_path / "b.pgm"])

    def test_loader_rejects_zero_files(self):
        with pytest.raises(ValueError, match="zero frame files"):
            video_from_frame_files([])

    @PROPERTY
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_validation(self, n, c, h, w, bad, seed):
        """The constructor and from_frames accept exactly the finite videos
        with 1 or 3 channels; from_frames also rejects mixed shapes."""
        rng = np.random.default_rng(seed)
        data = rng.random((n, c, h, w))
        if bad is not None:
            data.flat[rng.integers(data.size)] = bad
        builds = (lambda: VideoSequence(data.copy()), lambda: VideoSequence.from_frames(list(data)))
        for build in builds:
            if c in (1, 3) and bad is None:
                assert build().data.tobytes() == data.tobytes()
            else:
                with pytest.raises(ValueError):
                    build()
        taller = rng.random((c, h + 1, w))
        with pytest.raises(ValueError, match="share one shape"):
            VideoSequence.from_frames([*data, taller])
        with pytest.raises(ValueError):
            VideoSequence([*data, taller])


def _blob(fmt: str, h: int, w: int, maxval: int, seed: int) -> bytes:
    channels = 1 if fmt == "pgm" else 3
    dtype = np.uint8 if maxval == 255 else np.dtype("<u2")
    payload = np.random.default_rng(seed).integers(0, maxval + 1, (h, w, channels)).astype(dtype)
    magic = "P5" if fmt == "pgm" else "P6"
    return f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii") + payload.tobytes()


def _both_readers(blob: bytes):
    """Read one file with read_frame and with video_from_frame_files.

    Returns (frame data, video data), None for a reader that raised
    ValueError; any other exception fails the calling test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.pnm"
        path.write_bytes(blob)
        results = []
        readers = (lambda: read_frame(path), lambda: video_from_frame_files([path]).data[0])
        for read in readers:
            try:
                results.append(read())
            except ValueError:
                results.append(None)
    return tuple(results)


blob_specs = st.builds(
    _blob,
    fmt=st.sampled_from(["pgm", "ppm"]),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    maxval=st.sampled_from([255, 65535]),
    seed=st.integers(0, 2**32 - 1),
)


class TestDecoderProperties:
    @PROPERTY
    @given(
        fmt=st.sampled_from(["pgm", "ppm"]),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        maxvals=st.lists(st.sampled_from([255, 65535]), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(fmt="pgm", h=3, w=2, maxvals=[255, 65535, 255], seed=0)
    @example(fmt="ppm", h=2, w=3, maxvals=[65535, 255], seed=1)
    def test_video_equals_stacked_frames(self, fmt, h, w, maxvals, seed):
        """Loading a video decodes each file bit for bit as read_frame does,
        with maxval taken per file."""
        rng = np.random.default_rng(seed)
        channels = 1 if fmt == "pgm" else 3
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{t:04d}.{fmt}" for t in range(len(maxvals))]
            for path, maxval in zip(paths, maxvals):
                write_frame(rng.random((channels, h, w)), path, fmt, maxval=maxval)
            video = video_from_frame_files(paths)
            stacked = np.stack([read_frame(path) for path in paths])
        assert video.data.dtype == stacked.dtype == np.float64
        assert video.data.shape == stacked.shape
        assert video.data.tobytes() == stacked.tobytes()

    @PROPERTY
    @given(blob=blob_specs, cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_raises_value_error(self, blob, cut):
        frame, video = _both_readers(blob[: int(cut * len(blob))])
        assert frame is None and video is None

    @PROPERTY
    @given(
        blob=blob_specs,
        edits=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)), min_size=1, max_size=4),
    )
    def test_fuzzed_header_raises_only_value_error(self, blob, edits):
        mutable = bytearray(blob)
        header_len = blob.index(b"\n", blob.index(b"\n", 3) + 1) + 1
        for pos, value in edits:
            mutable[pos % header_len] = value
        frame, video = _both_readers(bytes(mutable))
        assert (frame is None) == (video is None)
        if frame is not None:
            assert frame.tobytes() == video.tobytes()

    @PROPERTY
    @given(
        prefix=st.sampled_from([b"", b"P5", b"P6", b"P5\n", b"P6 3 2 "]),
        tail=st.binary(max_size=48),
    )
    def test_arbitrary_bytes_raise_only_value_error(self, prefix, tail):
        frame, video = _both_readers(prefix + tail)
        assert (frame is None) == (video is None)


class TestGraymapPixmap:
    def test_p5_known_bytes(self, tmp_path):
        """P5 2x2 maxval 255 with bytes [0, 255, 128, 64] scales linearly."""
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        frame = read_frame(path, "portable-graymap")
        assert frame.shape == (1, 2, 2)
        np.testing.assert_allclose(
            frame[0], [[0.0, 1.0], [128 / 255, 64 / 255]]
        )

    def test_p6_identity_pixel(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        frame = read_frame(path, "portable-pixmap")
        assert frame.shape == (3, 1, 1)
        np.testing.assert_allclose(frame.ravel(), [1.0, 0.0, 0.0])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255]))
        with pytest.raises(ValueError, match="truncated"):
            read_frame(path)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P9\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="byte 0"):
            read_frame(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x7f")
        frame = read_frame(path)
        np.testing.assert_allclose(frame[0], [[127 / 255]])

    def test_roundtrip_quantization_bound(self, tmp_path):
        """read(write(f)) differs by at most 1/(2*maxval) per element."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            frame = rng.random((1, 8, 8))
            path = tmp_path / f"t{trial}.pgm"
            write_frame(frame, path, "pgm")
            back = read_frame(path, "pgm")
            assert np.abs(back - frame).max() <= 1 / 510

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(12)
        frame = rng.random((3, 6, 5))
        path = tmp_path / "t.ppm"
        write_frame(frame, path, "ppm", maxval=65535)
        back = read_frame(path, "ppm")
        assert np.abs(back - frame).max() <= 1 / (2 * 65535)

    def test_all_zero_roundtrips_exactly(self, tmp_path):
        frame = np.zeros((1, 4, 4))
        path = tmp_path / "z.pgm"
        write_frame(frame, path, "portable-graymap")
        back = read_frame(path)
        np.testing.assert_array_equal(back, frame)

    def test_channel_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="channel mismatch"):
            write_frame(np.zeros((3, 4, 4)), tmp_path / "x.pgm", "pgm")

    def test_format_mismatch_on_read(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_frame(np.zeros((1, 4, 4)), path, "pgm")
        with pytest.raises(ValueError, match="expected ppm"):
            read_frame(path, "portable-pixmap")


class TestTensorFormat:
    def test_shape_contract(self, tmp_path):
        """rank=2 dims=[3,4] with 12 floats reads back as a (3, 4) array."""
        payload = np.arange(12, dtype="<f4")
        blob = b"RPT1" + np.asarray([2], dtype="<u4").tobytes()
        blob += np.asarray([3, 4], dtype="<u4").tobytes() + payload.tobytes()
        path = tmp_path / "t.rpt1"
        path.write_bytes(blob)
        arr, meta = read_tensor(path)
        assert arr.shape == (3, 4)
        assert meta is None
        np.testing.assert_array_equal(arr, payload.reshape(3, 4))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rpt1"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_nan_payload_rejected(self, tmp_path):
        payload = np.array([1.0, np.nan], dtype="<f4")
        blob = b"RPT1" + np.asarray([1], dtype="<u4").tobytes()
        blob += np.asarray([2], dtype="<u4").tobytes() + payload.tobytes()
        path = tmp_path / "t.rpt1"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="non-finite"):
            read_tensor(path)

    def test_payload_length_mismatch(self, tmp_path):
        # dims 65536^4 = 2^64 elements: a fixed-width product would wrap to 0
        for dims in ([4], [65536] * 4):
            blob = b"RPT1" + np.asarray([len(dims)], dtype="<u4").tobytes()
            blob += np.asarray(dims, dtype="<u4").tobytes() + b"\x00" * 8
            path = tmp_path / "t.rpt1"
            path.write_bytes(blob)
            with pytest.raises(ValueError, match="payload length mismatch"):
                read_tensor(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        for trial, shape in enumerate([(5,), (3, 4), (2, 3, 4), (1, 1)]):
            arr = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / f"t{trial}.rpt1"
            write_tensor(arr, None, path)
            back, _ = read_tensor(path)
            np.testing.assert_array_equal(back, arr)

    def test_empty_dims_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(np.zeros((0, 3), dtype=np.float32), None, tmp_path / "t.rpt1")

    def test_metadata_preserved_verbatim(self, tmp_path):
        meta = {"class_id": 2, "subject_id": 5, "view_id": 1, "note": "abc"}
        path = tmp_path / "t.rpt1"
        write_tensor(np.ones((2, 2), dtype=np.float32), meta, path)
        _, back = read_tensor(path)
        assert back == meta

    def test_feature_sequence_roundtrip(self, tmp_path):
        seq = FeatureSequence(
            vectors=np.arange(12, dtype=np.float32).reshape(3, 4),
            class_id=1,
            subject_id=2,
            view_id=3,
        )
        path = tmp_path / "seq.rpt1"
        write_feature_sequence(seq, path)
        back = read_feature_sequence(path)
        np.testing.assert_array_equal(back.vectors, seq.vectors)
        assert (back.class_id, back.subject_id, back.view_id) == (1, 2, 3)


def _rpt1(dims: list[int], seed: int, metadata: bool) -> bytes:
    payload = np.random.default_rng(seed).standard_normal(dims).astype("<f4")
    blob = b"RPT1" + np.asarray([len(dims)], "<u4").tobytes() + np.asarray(dims, "<u4").tobytes()
    return blob + payload.tobytes() + (b'{"view_id": 3}' if metadata else b"")


def _read_tensor_or_none(blob: bytes):
    """read_tensor on one file, None if it raised ValueError; any other
    exception fails the calling test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.rpt1"
        path.write_bytes(blob)
        try:
            return read_tensor(path)
        except ValueError:
            return None


rpt1_specs = st.builds(
    _rpt1,
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    metadata=st.booleans(),
)


class TestTensorProperties:
    @PROPERTY
    @given(
        array=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        metadata=st.none() | st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4)),
    )
    def test_roundtrip_bit_for_bit(self, array, metadata):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rpt1"
            write_tensor(array, metadata, path)
            back, back_metadata = read_tensor(path)
        assert back.dtype == np.float32 and back.shape == array.shape
        assert back.tobytes() == array.tobytes()
        assert back_metadata == metadata

    @PROPERTY
    @given(blob=rpt1_specs, cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_raises_value_error(self, blob, cut):
        """Any cut short of the payload's end: the trailer, when there is
        one, follows the payload, so cutting it off leaves a valid file."""
        rank = int(np.frombuffer(blob, "<u4", count=1, offset=4)[0])
        dims = np.frombuffer(blob, "<u4", count=rank, offset=8)
        payload_end = 8 + 4 * rank + 4 * int(np.prod(dims))
        assert _read_tensor_or_none(blob[: int(cut * payload_end)]) is None

    @PROPERTY
    @given(
        blob=rpt1_specs,
        edits=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 255)), min_size=1, max_size=4),
    )
    def test_fuzzed_rank_and_dims_raise_only_value_error(self, blob, edits):
        mutable = bytearray(blob)
        header_len = 8 + 4 * int(np.frombuffer(blob, "<u4", count=1, offset=4)[0])
        for pos, value in edits:
            mutable[4 + pos % (header_len - 4)] = value
        _read_tensor_or_none(bytes(mutable))

    @PROPERTY
    @given(prefix=st.sampled_from([b"", b"RPT1", b"RPT1\x01\x00\x00\x00"]), tail=st.binary(max_size=48))
    def test_arbitrary_bytes_raise_only_value_error(self, prefix, tail):
        _read_tensor_or_none(prefix + tail)
