"""File format round trips and boundary validation for frames and tensors."""

import numpy as np
import pytest

from dynafuse.tensorio import (
    FeatureSequence,
    Frame,
    VideoSequence,
    read_frame,
    read_feature_sequence,
    read_tensor,
    write_feature_sequence,
    write_frame,
    write_tensor,
)


class TestFrameType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Frame(height=2, width=2, channels=1, data=np.zeros((1, 2, 3)))

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            Frame(height=2, width=2, channels=2, data=np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Frame(height=2, width=2, channels=1, data=data)

    def test_immutable_after_construction(self):
        f = Frame.from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1.0

    def test_video_uniform_shape(self):
        a = Frame.from_array(np.zeros((2, 2)))
        b = Frame.from_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            VideoSequence(frames=(a, b))


class TestGraymapPixmap:
    def test_p5_known_bytes(self, tmp_path):
        """P5 2x2 maxval 255 with bytes [0, 255, 128, 64] scales linearly."""
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        frame = read_frame(path, "portable-graymap")
        assert frame.shape == (1, 2, 2)
        np.testing.assert_allclose(
            frame.plane(0), [[0.0, 1.0], [128 / 255, 64 / 255]]
        )

    def test_p6_identity_pixel(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        frame = read_frame(path, "portable-pixmap")
        assert frame.shape == (3, 1, 1)
        np.testing.assert_allclose(frame.data.ravel(), [1.0, 0.0, 0.0])

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
        np.testing.assert_allclose(frame.plane(0), [[127 / 255]])

    def test_roundtrip_quantization_bound(self, tmp_path):
        """read(write(f)) differs by at most 1/(2*maxval) per element."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            frame = Frame.from_array(rng.random((8, 8)))
            path = tmp_path / f"t{trial}.pgm"
            write_frame(frame, path, "pgm")
            back = read_frame(path, "pgm")
            assert np.abs(back.plane(0) - frame.plane(0)).max() <= 1 / 510

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(12)
        frame = Frame.from_array(rng.random((3, 6, 5)))
        path = tmp_path / "t.ppm"
        write_frame(frame, path, "ppm", maxval=65535)
        back = read_frame(path, "ppm")
        assert np.abs(back.data - frame.data).max() <= 1 / (2 * 65535)

    def test_all_zero_roundtrips_exactly(self, tmp_path):
        frame = Frame.from_array(np.zeros((4, 4)))
        path = tmp_path / "z.pgm"
        write_frame(frame, path, "portable-graymap")
        back = read_frame(path)
        np.testing.assert_array_equal(back.plane(0), frame.plane(0))

    def test_channel_mismatch(self, tmp_path):
        frame = Frame.from_array(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="channel mismatch"):
            write_frame(frame, tmp_path / "x.pgm", "pgm")

    def test_format_mismatch_on_read(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_frame(Frame.from_array(np.zeros((4, 4))), path, "pgm")
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
