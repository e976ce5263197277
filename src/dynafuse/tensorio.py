"""Core sequence types and the binary file formats shared by all modules.

An image is a plain float64 array of shape (C, H, W) with C in {1, 3}
and intensities in [0, 1].  A ``VideoSequence`` is one read-only float64
array of shape (n, C, H, W), decoded and validated once; its frames are
the (C, H, W) slices of that array.  An array a caller hands in is
scanned for NaN and infinity.  A video decoded from frame files is
finite by construction, each value being an unsigned sample divided by
a maxval of at least 1, so loading checks that recipe once per frame
and never rescans the pixels.  Its class, subject and view ids are 0:
those come from the dataset manifest, not from the frames.

Two on-disk formats are supported:

* binary portable graymap/pixmap for single frames: P5 holds one
  channel and P6 three, so the magic gives a file's channel count and the
  channel count gives the magic a frame is written with (each header
  field: whitespace and ``#`` comments, then ``[0-9]+``), and
* a small tensor container ("RPT1") for feature sequences, frame stacks
  and model weights: magic ``RPT1``, u32 rank, u32 dims, float32 payload
  in C order, optional trailing UTF-8 JSON metadata.  All multibyte
  integers are little-endian, including 16-bit graymap/pixmap samples.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_CHANNELS_BY_MAGIC = {b"P5": 1, b"P6": 3}
_TENSOR_MAGIC = b"RPT1"
_HEADER_SPACE = re.compile(rb"(?:[ \t\r\n]|#[^\n]*)*")
_HEADER_INT = re.compile(rb"[0-9]+")
_ID_FIELDS = ("class_id", "subject_id", "view_id")


def _require_finite(arr: np.ndarray, message: str) -> None:
    """The one per-value scan: raise ValueError(message) on NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(message)


def _freeze(arr) -> np.ndarray:
    """``arr`` as a read-only C-contiguous float64 array.  A writeable
    array is copied rather than frozen, so the caller's array stays its
    own; a buffer handed over already read-only is used without a copy."""
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.flags.writeable and np.may_share_memory(out, arr):
        out = out.copy()
    out.flags.writeable = False
    return out


def _check_ids(seq) -> None:
    """The one sequence id check: each id an integer (not a bool) >= 0."""
    for name in _ID_FIELDS:
        value = getattr(seq, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be >= 0 and an integer, got {value!r:.60}")


@dataclass(frozen=True)
class VideoSequence:
    """Temporally ordered frames with class/subject/view metadata.

    ``data`` is one read-only float64 array of shape (n, C, H, W) with
    n >= 1, C in {1, 3} and every value finite; a writeable array passed
    in is copied.  The constructor and ``from_frames`` scan every value of
    a caller's array; ``video_from_frame_files`` builds its videos finite
    by construction and skips that scan.  Frame order is temporal order;
    formulas downstream index frames 1-based.
    """

    data: np.ndarray
    class_id: int = 0
    subject_id: int = 0
    view_id: int = 0

    def __post_init__(self):
        self._check(scan=True)

    def _check(self, scan: bool) -> None:
        """Check the layout and the ids and store ``data`` read-only;
        ``scan`` adds the per-value finiteness scan between the two."""
        data = _freeze(self.data)
        if data.ndim != 4:
            raise ValueError(f"video data must be 4-D (n, C, H, W), got ndim={data.ndim}")
        n, c, h, w = data.shape
        if n < 1:
            raise ValueError("empty video: a sequence needs at least one frame")
        if c not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {c}")
        if h < 1 or w < 1:
            raise ValueError("frame dimensions must be positive")
        if scan:
            _require_finite(data, "video data contains non-finite values")
        _check_ids(self)
        object.__setattr__(self, "data", data)

    @classmethod
    def _decoded(cls, data: np.ndarray, samples: Sequence) -> "VideoSequence":
        """A video, with ids 0, whose frame ``data[i]`` holds unsigned-integer
        samples of dtype ``samples[i][0]`` divided by ``samples[i][1]``.

        Such a value is at most the sample range (a maxval is at least 1),
        so it is finite.  The recipe is checked once per frame, in place of
        the per-value scan; the layout check is the constructor's.
        """
        if len(samples) != len(data):
            raise ValueError(f"{len(samples)} sample records for {len(data)} frames")
        for dtype, maxval in samples:
            if np.dtype(dtype).kind != "u":
                raise ValueError(f"decoded samples must be unsigned integers, got {dtype}")
            if not (math.isfinite(maxval) and maxval >= 1):
                raise ValueError(f"maxval must be finite and >= 1, got {maxval}")
        video = object.__new__(cls)
        object.__setattr__(video, "data", data)
        for name in _ID_FIELDS:
            object.__setattr__(video, name, 0)
        video._check(scan=False)
        return video

    @classmethod
    def from_frames(cls, frames: Iterable, **meta) -> "VideoSequence":
        """Stack (C, H, W) arrays of one shape into a video."""
        planes = [np.asarray(f, np.float64) for f in frames]
        if not planes:
            raise ValueError("empty video: a sequence needs at least one frame")
        if any(p.shape != planes[0].shape for p in planes[1:]):
            raise ValueError("all frames of a sequence must share one shape")
        data = np.stack(planes)
        data.flags.writeable = False
        return cls(data, **meta)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> np.ndarray:
        """``data`` itself, whose (C, H, W) slices are the frames; kept for
        callers that iterate ``frames``, while the package indexes ``data``."""
        return self.data


@dataclass(frozen=True)
class FeatureSequence:
    """Per-frame feature vectors: a read-only float64 (N, d) array (a
    writeable array passed in is copied) plus sequence metadata."""

    vectors: np.ndarray
    class_id: int = 0
    subject_id: int = 0
    view_id: int = 0

    def __post_init__(self):
        vectors = _freeze(self.vectors)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D (N, d), got ndim={vectors.ndim}")
        if vectors.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        _require_finite(vectors, "feature vectors contain non-finite values")
        _check_ids(self)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return self.vectors.shape[0]


# ---------------------------------------------------------------------------
# Portable graymap / pixmap (binary P5 / P6)
# ---------------------------------------------------------------------------


def _decode(blob: bytes) -> tuple[np.ndarray, int]:
    """Parse a binary P5 graymap or P6 pixmap.

    After the magic, width, height and maxval are each read as
    ``_HEADER_SPACE`` (whitespace and ``#`` comments) then ``_HEADER_INT``,
    and one whitespace byte ends the header; a parse error gives its byte
    offset.  Returns the integer samples as a (C, H, W) view of the
    interleaved (H, W, C) payload, C being 1 for P5 and 3 for P6, and the
    maxval they scale by.
    """
    magic = blob[:2]
    if magic not in _CHANNELS_BY_MAGIC:
        raise ValueError(f"parse error at byte 0: bad magic {magic!r}, expected P5 or P6")
    pos, fields = 2, []
    for what in ("width", "height", "maxval"):
        pos = _HEADER_SPACE.match(blob, pos).end()
        digits = _HEADER_INT.match(blob, pos)
        if digits is None:
            raise ValueError(f"parse error at byte {pos}: expected {what}")
        fields.append(int(digits.group()))
        pos = digits.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"parse error at byte 2: non-positive dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ValueError(f"parse error at byte {pos}: maxval must be 255 or 65535")
    if pos >= len(blob) or blob[pos] not in b" \t\r\n":
        raise ValueError(f"parse error at byte {pos}: expected whitespace before payload")
    start = pos + 1
    channels = _CHANNELS_BY_MAGIC[magic]
    count = width * height * channels
    dtype = np.dtype(np.uint8) if maxval == 255 else np.dtype("<u2")
    need = count * dtype.itemsize
    have = len(blob) - start
    if have < need:
        raise ValueError(
            f"parse error at byte {len(blob)}: payload truncated ({have} of {need} bytes)"
        )
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=start)
    return raw.reshape(height, width, channels).transpose(2, 0, 1), maxval


def _load_frame(path) -> tuple[np.ndarray, int]:
    """Read and ``_decode`` one frame file; a parse error raises ValueError
    with the path before the reason."""
    try:
        return _decode(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_frame(path) -> np.ndarray:
    """Read a binary P5 graymap or P6 pixmap into a read-only (C, H, W)
    float64 array of [0, 1] intensities, C being 1 for P5 and 3 for P6.

    A file that does not parse raises ValueError with its path before the
    reason.
    """
    raw, maxval = _load_frame(path)
    frame = np.ascontiguousarray(raw) / float(maxval)
    frame.flags.writeable = False
    return frame


def write_frame(frame: np.ndarray, path, maxval: int = 255) -> None:
    """Write a (C, H, W) intensity array as binary P5 (C = 1) or P6 (C = 3),
    quantizing to maxval steps.

    Raises ValueError, and writes nothing, unless the array is 3-D with 1
    or 3 channels and no empty dimension and every value is finite.
    """
    data = np.asarray(frame, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] not in (1, 3) or 0 in data.shape:
        raise ValueError(
            f"expected a non-empty (C, H, W) image with C 1 or 3, got shape {data.shape}"
        )
    channels, height, width = data.shape
    _require_finite(data, "frame data contains non-finite values")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    header = f"{'P5' if channels == 1 else 'P6'}\n{width} {height}\n{maxval}\n"
    quant = np.clip(np.round(data * maxval), 0, maxval)
    dtype = np.uint8 if maxval == 255 else np.dtype("<u2")
    interleaved = quant.transpose(1, 2, 0).astype(dtype)
    Path(path).write_bytes(header.encode("ascii") + interleaved.tobytes())


# ---------------------------------------------------------------------------
# RPT1 tensor container
# ---------------------------------------------------------------------------


def write_tensor(array: np.ndarray, metadata: dict | None, path) -> None:
    """Write an array as an RPT1 tensor file; round-trips bit-exactly.

    The payload is stored as float32; pass float32 input for bit-exact
    round trips.  ``metadata`` (when given) must be a JSON-serializable
    dict and is appended verbatim as UTF-8 JSON.
    """
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim < 1 or any(d < 1 for d in arr.shape):
        raise ValueError(f"tensor must have rank >= 1 and positive dims, got shape {arr.shape}")
    _require_finite(arr, "tensor payload contains non-finite values")
    dims = np.asarray(arr.shape, dtype="<u4")
    rank = np.asarray([arr.ndim], dtype="<u4")
    parts = [_TENSOR_MAGIC, rank.tobytes(), dims.tobytes(), arr.astype("<f4").tobytes()]
    if metadata is not None:
        parts.append(json.dumps(metadata, sort_keys=True).encode("utf-8"))
    Path(path).write_bytes(b"".join(parts))


def read_tensor(path) -> tuple[np.ndarray, dict | None]:
    """Read an RPT1 tensor file, returning (float32 array, metadata or None).

    A malformed file raises ValueError with the path before the reason.
    """
    try:
        return _parse_tensor(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_tensor(blob: bytes) -> tuple[np.ndarray, dict | None]:
    if blob[:4] != _TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {blob[:4]!r}, expected {_TENSOR_MAGIC!r}")
    if len(blob) < 8:
        raise ValueError("tensor header truncated")
    rank = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    if rank < 1:
        raise ValueError("tensor rank must be >= 1")
    dims_end = 8 + 4 * rank
    if len(blob) < dims_end:
        raise ValueError("tensor dims truncated")
    dims = np.frombuffer(blob, dtype="<u4", count=rank, offset=8).tolist()
    if min(dims) < 1:
        raise ValueError(f"tensor dims must be positive, got {dims}")
    count = math.prod(dims)  # Python ints: a u32 product cannot wrap
    payload_end = dims_end + 4 * count
    if len(blob) < payload_end:
        raise ValueError(
            f"tensor payload length mismatch: need {4 * count} bytes, "
            f"have {len(blob) - dims_end}"
        )
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=dims_end)
    arr = arr.reshape(dims).astype(np.float32)
    _require_finite(arr, "tensor payload contains non-finite values")
    metadata = None
    trailer = blob[payload_end:]
    if trailer:
        try:
            metadata = json.loads(trailer.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"bad tensor metadata block: {exc}") from exc
    return arr, metadata


def write_feature_sequence(seq: FeatureSequence, path) -> None:
    """Serialize an (N, d) feature sequence with its metadata."""
    meta = {
        "class_id": seq.class_id,
        "subject_id": seq.subject_id,
        "view_id": seq.view_id,
    }
    write_tensor(seq.vectors.astype(np.float32), meta, path)


def read_feature_sequence(path) -> FeatureSequence:
    """Read a rank-2 RPT1 file back into a FeatureSequence.

    The metadata must be absent or a JSON object, and any id it holds an
    integer >= 0; an id it lacks is 0.  A bad file raises ValueError with
    the path before the reason.
    """
    arr, meta = read_tensor(path)
    try:
        if arr.ndim != 2:
            raise ValueError(f"feature sequence must be rank 2, got rank {arr.ndim}")
        if not isinstance(meta, (dict, type(None))):
            raise ValueError(f"feature metadata must be a JSON object, got {meta!r:.60}")
        return FeatureSequence(arr, **{k: v for k, v in (meta or {}).items() if k in _ID_FIELDS})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def video_from_frame_files(paths: Sequence) -> VideoSequence:
    """Load an ordered list of P5/P6 files as one video with ids 0.

    The (n, C, H, W) array is allocated from the first file's header and
    each file is decoded straight into its slot; maxval is per file.  The
    values are finite by construction, so they are never scanned.  A file
    that does not parse, or whose shape differs from the first file's,
    raises ValueError with its path before the reason.
    """
    if not paths:
        raise ValueError("cannot build a video from zero frame files")
    data = None
    samples = []
    for i, path in enumerate(paths):
        raw, maxval = _load_frame(path)
        if data is None:
            data = np.empty((len(paths),) + raw.shape)
        elif raw.shape != data.shape[1:]:
            raise ValueError(
                f"{path}: frame shape {raw.shape} differs from {data.shape[1:]} "
                f"of {paths[0]}; all frames of a sequence must share one shape"
            )
        np.divide(np.ascontiguousarray(raw), float(maxval), out=data[i])
        samples.append((raw.dtype, maxval))
    data.flags.writeable = False
    return VideoSequence._decoded(data, samples)
