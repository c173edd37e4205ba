"""Binary artifact formats.

All formats are little-endian with 4-byte ASCII magics and 32-bit float
payloads, so a write-read cycle is bit-identical byte-for-byte:

* RRI1: range image. magic, u32 height, width, plane count, then each
  plane as h*w f32 row-major, then h*w validity bytes (0/1).
* RFP1: feature point cloud. magic, u32 point count, u32 feature dim,
  then per point (x, y, z, intensity) f32 followed by the features.
* RWT1: named tensors. magic, u32 record count, then per record a u16
  name length, UTF-8 name, u8 rank, u32 dims, f32 payload row-major.
* RRF1: pooled RoI features. magic, u32 box count, u32 feature length,
  then one f32 vector per box.

KITTI-style .bin clouds are raw little-endian f32 quadruples
(x, y, z, intensity) with no header. Box list files are UTF-8 text, one
`cx cy cz l w h yaw` line per box.

The headed formats share one reader: it reads a file once and hands out
views of its bytes, so the type a reader builds makes the only copy of the
payload. Every binary writer goes through one writer, which writes header
bytes and C-ordered arrays each as its own buffer, never a joined copy.

Values are stored in single precision; readers widen to float64. Code that
needs bit-stable composition across process boundaries therefore goes on
with values rounded as their file stores them, never with the wider ones.
`as_stored` is that one rounding, for stage outputs and generated
parameters alike. A stage may instead build an RRI1 file's feature planes
in the stored dtype (`STORED`), which `write_rri1` sends out beside the
image's base planes, unconverted. Writers refuse, before opening the file,
a value that single precision holds only as inf, so no artifact is written
that its reader would reject.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .core import BASE_CHANNELS, Box3D, FeaturePointCloud, RangeImage, SensorModel

_POINT_RECORD = 16  # four little-endian f32 per KITTI point

STORED = np.dtype("<f4")  # the dtype of every stored value


class FormatError(ValueError):
    """Raised when a binary artifact violates its format contract."""


class _Reader:
    """An artifact file read once and walked from its magic to its end in
    views of its bytes; every error names the file."""

    def __init__(self, path, magic: bytes):
        self.path = path
        self._data = memoryview(Path(path).read_bytes())
        self._offset = len(magic)
        if self._data[: len(magic)] != magic:
            raise FormatError(f"{path}: missing {magic.decode()} magic")

    def take(self, n: int) -> memoryview:
        end = self._offset + n
        if end > len(self._data):
            raise FormatError(f"{self.path}: truncated file")
        part = self._data[self._offset : end]
        self._offset = end
        return part

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype=STORED) -> np.ndarray:
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype)

    def end(self) -> None:
        extra = len(self._data) - self._offset
        if extra:
            raise FormatError(f"{self.path}: {extra} trailing byte(s)")


def _write(path, *parts) -> None:
    """Write `parts` in order; a C-ordered array goes out as its own buffer."""
    with open(path, "wb") as f:
        f.writelines(parts)


def _finite_f32(path, values, what: str) -> np.ndarray:
    """`values` as a C-ordered little-endian f32 array, which must be finite:
    a finite value beyond the f32 range casts to inf, and readers reject it.
    """
    with np.errstate(over="ignore"):
        # ascontiguousarray would promote rank-0 tensors to rank 1.
        arr = np.asarray(values, dtype=STORED, order="C")
    # min and max see every inf and NaN without a payload-sized temporary.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise FormatError(f"{path}: {what} must be finite in single precision")
    return arr


# ---------------------------------------------------------------------------
# RRI1 range images
# ---------------------------------------------------------------------------

def write_rri1(path, img: RangeImage, features=None) -> None:
    """`img` as RRI1; given `features`, img's five base planes and then
    those (F, h, w) planes, zero at img's invalid pixels. Each part goes out
    as its own buffer, with no conversion if it is already `STORED`."""
    h, w = img.sensor.height, img.sensor.width
    parts = [img.channels]
    if features is not None:
        shape = np.shape(features)
        if len(shape) != 3 or shape[1:] != (h, w):
            raise FormatError(f"{path}: features must be (F, {h}, {w}), got {shape}")
        if np.any(np.any(features, axis=0) & ~img.valid):  # -0.0 counts as zero
            raise FormatError(f"{path}: features must hold 0 at invalid pixels")
        parts = [img.channels[:BASE_CHANNELS], features]
    parts = [_finite_f32(path, part, "channels") for part in parts]
    _write(path, b"RRI1", struct.pack("<III", h, w, sum(map(len, parts))), *parts, img.valid)


def as_stored(values) -> np.ndarray:
    """`values` rounded to single precision as every artifact stores them,
    then widened to float64: the values a reader returns, zero signs kept.
    A value beyond the f32 range becomes inf without a warning, and every
    array-backed type rejects it as not finite, as its reader would.
    """
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=STORED).astype(np.float64)


def read_rri1(path, sensor: SensorModel) -> RangeImage:
    r = _Reader(path, b"RRI1")
    h, w, planes = r.unpack("<III")
    if (h, w) != (sensor.height, sensor.width):
        raise FormatError(
            f"{path}: image is {h}x{w}, sensor expects "
            f"{sensor.height}x{sensor.width}"
        )
    channels = r.array(planes * h * w)
    flags = r.array(h * w, np.uint8)
    r.end()
    if np.any(flags > 1):
        raise FormatError(f"{path}: validity bytes must be 0 or 1")
    try:
        return RangeImage(sensor, channels.reshape(planes, h, w), (flags == 1).reshape(h, w))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# RFP1 feature point clouds
# ---------------------------------------------------------------------------

def write_rfp1(path, cloud: FeaturePointCloud) -> None:
    n = len(cloud)
    d_f = cloud.feature_dim
    records = np.empty((n, 4 + d_f), dtype=STORED)
    with np.errstate(over="ignore"):
        records[:, :3] = cloud.xyz
        records[:, 3] = cloud.intensity
        records[:, 4:] = cloud.features
    records = _finite_f32(path, records, "point records")
    _write(path, b"RFP1", struct.pack("<II", n, d_f), records)


def read_rfp1(path) -> FeaturePointCloud:
    r = _Reader(path, b"RFP1")
    n, d_f = r.unpack("<II")
    records = r.array(n * (4 + d_f)).reshape(n, 4 + d_f)
    r.end()
    return FeaturePointCloud(records[:, :3], records[:, 3], records[:, 4:])


# ---------------------------------------------------------------------------
# RWT1 named tensors
# ---------------------------------------------------------------------------

def write_rwt1(path, tensors: dict[str, np.ndarray]) -> None:
    parts = [b"RWT1", struct.pack("<I", len(tensors))]
    for name, tensor in tensors.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"{path}: tensor name too long: {name[:40]}...")
        arr = _finite_f32(path, tensor, name)
        parts += [struct.pack("<H", len(encoded)), encoded]
        parts += [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    _write(path, *parts)


def read_rwt1(path) -> dict[str, np.ndarray]:
    r = _Reader(path, b"RWT1")
    (count,) = r.unpack("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = str(r.take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}I")
        body = r.array(math.prod(dims))  # exact, and 1 for rank 0
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        out[name] = body.astype(np.float64).reshape(dims)
    r.end()
    return out


# ---------------------------------------------------------------------------
# RRF1 pooled RoI features
# ---------------------------------------------------------------------------

def write_rrf1(path, vectors: np.ndarray) -> None:
    arr = _finite_f32(path, vectors, "RoI vectors")
    if arr.ndim != 2:
        raise FormatError(f"{path}: RoI payload must be (boxes, length), got {arr.shape}")
    _write(path, b"RRF1", struct.pack("<II", *arr.shape), arr)


def read_rrf1(path) -> np.ndarray:
    r = _Reader(path, b"RRF1")
    boxes, length = r.unpack("<II")
    body = r.array(boxes * length)
    r.end()
    vectors = _finite_f32(path, body, "RoI vectors")
    return vectors.astype(np.float64).reshape(boxes, length)


# ---------------------------------------------------------------------------
# KITTI-style raw clouds
# ---------------------------------------------------------------------------

def read_kitti_bin_array(path) -> np.ndarray:
    """Raw f32 quadruples to (N, 4) float64 (x, y, z, intensity) rows.

    Rejects files whose size is not a multiple of 16 and reports the record
    index of any non-finite value.
    """
    data = Path(path).read_bytes()
    if len(data) % _POINT_RECORD != 0:
        raise FormatError(
            f"{path}: size {len(data)} is not a multiple of {_POINT_RECORD}"
        )
    records = np.frombuffer(data, dtype=STORED).astype(np.float64).reshape(-1, 4)
    bad = np.flatnonzero(~np.all(np.isfinite(records), axis=1))
    if bad.size:
        raise FormatError(f"{path}: non-finite values at record {int(bad[0])}")
    return records


def write_kitti_bin(path, records) -> None:
    """Store (N, 4) (x, y, z, intensity) records as raw f32."""
    records = np.asarray(records)
    if records.ndim != 2 or records.shape[1] != 4:
        raise FormatError(f"{path}: need (N, 4) point records, got {records.shape}")
    _write(path, _finite_f32(path, records, "points"))


# ---------------------------------------------------------------------------
# Box list files
# ---------------------------------------------------------------------------

def read_boxes(path) -> list[Box3D]:
    """One `cx cy cz l w h yaw` line per box; `#` comments allowed."""
    boxes = []
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            raise FormatError(
                f"{path}:{lineno}: expected 7 fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric field") from None
        try:
            boxes.append(Box3D(*values))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return boxes


def write_boxes(path, boxes) -> None:
    lines = [
        f"{b.cx!r} {b.cy!r} {b.cz!r} {b.length!r} {b.width!r} {b.height!r} {b.yaw!r}"
        for b in boxes
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def sha256_file(path) -> str:
    """Hex SHA-256 of a file, read in 256 KiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 18):
            digest.update(block)
    return digest.hexdigest()
