"""Core sequence types and the binary file formats shared by all modules.

An image is a plain float64 array of shape (C, H, W) with C in {1, 3}
and intensities in [0, 1].  A ``VideoSequence`` is one read-only float64
array of shape (n, C, H, W), decoded and validated once; its frames are
the (C, H, W) slices of that array.

Two on-disk formats are supported:

* binary portable graymap/pixmap (P5/P6) for single frames, and
* a small tensor container ("RPT1") for feature sequences, frame stacks
  and model weights: magic ``RPT1``, u32 rank, u32 dims, float32 payload
  in C order, optional trailing UTF-8 JSON metadata.  All multibyte
  integers are little-endian, including 16-bit graymap/pixmap samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

FORMAT_ALIASES = {
    "pgm": "pgm",
    "ppm": "ppm",
    "portable-graymap": "pgm",
    "portable-pixmap": "ppm",
}

_MAGIC_BY_FORMAT = {"pgm": b"P5", "ppm": b"P6"}
_FORMAT_BY_MAGIC = {b"P5": "pgm", b"P6": "ppm"}
_TENSOR_MAGIC = b"RPT1"


def _freeze(arr) -> np.ndarray:
    """``arr`` as a read-only C-contiguous float64 array.  A writeable
    array is copied rather than frozen, so the caller's array stays its
    own; a buffer handed over already read-only is used without a copy."""
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.flags.writeable and np.may_share_memory(out, arr):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class VideoSequence:
    """Temporally ordered frames with class/subject/view metadata.

    ``data`` is one read-only float64 array of shape (n, C, H, W) with
    n >= 1 and C in {1, 3}; a writeable array passed in is copied.  Frame
    order is temporal order; formulas downstream index frames 1-based.
    """

    data: np.ndarray
    class_id: int = 0
    subject_id: int = 0
    view_id: int = 0
    fps_hint: float | None = None

    def __post_init__(self):
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
        if not np.all(np.isfinite(data)):
            raise ValueError("video data contains non-finite values")
        for name in ("class_id", "subject_id", "view_id"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(self, "data", data)

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
    def frame_shape(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

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
    fps_hint: float | None = None

    def __post_init__(self):
        vectors = _freeze(self.vectors)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D (N, d), got ndim={vectors.ndim}")
        if vectors.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("feature vectors contain non-finite values")
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# ---------------------------------------------------------------------------
# Portable graymap / pixmap (binary P5 / P6)
# ---------------------------------------------------------------------------


class _Tokenizer:
    """Header tokenizer tracking byte offsets for error messages.

    Whitespace separates tokens; '#' starts a comment running to end of
    line, as in the netpbm family.
    """

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def _skip_space(self) -> None:
        while self.pos < len(self.blob):
            b = self.blob[self.pos]
            if b in b" \t\r\n":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.blob) and self.blob[self.pos] != ord("\n"):
                    self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        self._skip_space()
        start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"parse error at byte {start}: expected {what}")
        return int(self.blob[start : self.pos])

    def payload_start(self) -> int:
        """Consume the single whitespace byte that terminates the header."""
        if self.pos >= len(self.blob) or self.blob[self.pos] not in b" \t\r\n":
            raise ValueError(
                f"parse error at byte {self.pos}: expected whitespace before payload"
            )
        return self.pos + 1


def _decode(blob: bytes, format: str | None = None) -> tuple[np.ndarray, int]:
    """Parse a binary P5 graymap or P6 pixmap.

    Returns the integer samples as a (C, H, W) view of the interleaved
    (H, W, C) payload, and the maxval they scale by.  ``format`` may name
    the expected format ('pgm'/'portable-graymap' or
    'ppm'/'portable-pixmap'); a mismatch with the file magic is a parse
    error.  With ``format=None`` the magic decides.
    """
    magic = blob[:2]
    if magic not in _FORMAT_BY_MAGIC:
        raise ValueError(f"parse error at byte 0: bad magic {magic!r}, expected P5 or P6")
    fmt = _FORMAT_BY_MAGIC[magic]
    if format is not None:
        want = FORMAT_ALIASES.get(format)
        if want is None:
            raise ValueError(f"unknown frame format {format!r}")
        if want != fmt:
            raise ValueError(f"parse error at byte 0: file is {fmt}, expected {want}")
    tok = _Tokenizer(blob)
    tok.pos = 2
    width = tok.next_int("width")
    height = tok.next_int("height")
    maxval = tok.next_int("maxval")
    if width < 1 or height < 1:
        raise ValueError(f"parse error at byte 2: non-positive dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ValueError(f"parse error at byte {tok.pos}: maxval must be 255 or 65535")
    start = tok.payload_start()
    channels = 1 if fmt == "pgm" else 3
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


def read_frame(path, format: str | None = None) -> np.ndarray:
    """Read a binary P5 graymap or P6 pixmap into a read-only (C, H, W)
    float64 array of [0, 1] intensities.

    ``format`` may name the expected format (see ``_decode``).
    """
    raw, maxval = _decode(Path(path).read_bytes(), format)
    frame = np.ascontiguousarray(raw) / float(maxval)
    frame.flags.writeable = False
    return frame


def write_frame(frame: np.ndarray, path, format: str, maxval: int = 255) -> None:
    """Write a (C, H, W) intensity array as binary P5/P6, quantizing to maxval steps.

    Raises ValueError, and writes nothing, unless the array is 3-D with no
    empty dimension, its channel count fits the format and every value is
    finite.
    """
    fmt = FORMAT_ALIASES.get(format)
    if fmt is None:
        raise ValueError(f"unknown frame format {format!r}")
    data = np.asarray(frame, dtype=np.float64)
    if data.ndim != 3 or 0 in data.shape:
        raise ValueError(f"expected a non-empty (C, H, W) image, got shape {data.shape}")
    channels, height, width = data.shape
    want_channels = 1 if fmt == "pgm" else 3
    if channels != want_channels:
        raise ValueError(
            f"channel mismatch: {fmt} needs {want_channels} channels, "
            f"frame has {channels}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError("frame data contains non-finite values")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    header = f"{_MAGIC_BY_FORMAT[fmt].decode()}\n{width} {height}\n{maxval}\n"
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor payload contains non-finite values")
    dims = np.asarray(arr.shape, dtype="<u4")
    rank = np.asarray([arr.ndim], dtype="<u4")
    parts = [_TENSOR_MAGIC, rank.tobytes(), dims.tobytes(), arr.astype("<f4").tobytes()]
    if metadata is not None:
        parts.append(json.dumps(metadata, sort_keys=True).encode("utf-8"))
    Path(path).write_bytes(b"".join(parts))


def read_tensor(path) -> tuple[np.ndarray, dict | None]:
    """Read an RPT1 tensor file, returning (float32 array, metadata or None)."""
    blob = Path(path).read_bytes()
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor payload contains non-finite values")
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
    if seq.fps_hint is not None:
        meta["fps_hint"] = seq.fps_hint
    write_tensor(seq.vectors.astype(np.float32), meta, path)


def read_feature_sequence(path) -> FeatureSequence:
    """Read a rank-2 RPT1 file back into a FeatureSequence."""
    arr, meta = read_tensor(path)
    if arr.ndim != 2:
        raise ValueError(f"feature sequence must be rank 2, got rank {arr.ndim}")
    meta = meta or {}
    return FeatureSequence(
        vectors=arr,
        class_id=int(meta.get("class_id", 0)),
        subject_id=int(meta.get("subject_id", 0)),
        view_id=int(meta.get("view_id", 0)),
        fps_hint=meta.get("fps_hint"),
    )


def video_from_frame_files(
    paths: Sequence, class_id: int = 0, subject_id: int = 0, view_id: int = 0
) -> VideoSequence:
    """Load an ordered list of P5/P6 files as one video.

    The (n, C, H, W) array is allocated from the first file's header and
    each file is decoded straight into its slot; maxval is per file.
    """
    if not paths:
        raise ValueError("cannot build a video from zero frame files")
    data = None
    for i, path in enumerate(paths):
        raw, maxval = _decode(Path(path).read_bytes())
        if data is None:
            data = np.empty((len(paths),) + raw.shape)
        elif raw.shape != data.shape[1:]:
            raise ValueError("all frames of a sequence must share one shape")
        np.divide(np.ascontiguousarray(raw), float(maxval), out=data[i])
    data.flags.writeable = False
    return VideoSequence(data, class_id=class_id, subject_id=subject_id, view_id=view_id)
