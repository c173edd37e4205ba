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

Values are stored in single precision; readers widen to float64. Code that
needs bit-stable composition across process boundaries therefore goes on
with values rounded as their file stores them, never with the wider ones:
`as_stored` gives, in memory, the image that `read_rri1` would return. Values
already on the f32 grid, as generated parameters are, need no rounding.
Writers refuse, before opening the file, a value that single precision holds
only as inf, so no artifact is written that its reader would reject.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .core import Box3D, FeaturePointCloud, RangeImage, SensorModel

_POINT_RECORD = 16  # four little-endian f32 per KITTI point


class FormatError(ValueError):
    """Raised when a binary artifact violates its format contract."""


def _check_magic(data: bytes, magic: bytes, path):
    if len(data) < 4 or data[:4] != magic:
        raise FormatError(f"{path}: missing {magic.decode()} magic")


def _take(data: bytes, offset: int, size: int, path) -> tuple[bytes, int]:
    if offset + size > len(data):
        raise FormatError(f"{path}: truncated file")
    return data[offset : offset + size], offset + size


def _finite_f32(path, values, what: str) -> np.ndarray:
    """`values` as a C-ordered little-endian f32 array, which must be finite:
    a finite value beyond the f32 range casts to inf, and readers reject it.
    """
    with np.errstate(over="ignore"):
        # ascontiguousarray would promote rank-0 tensors to rank 1.
        arr = np.asarray(values, dtype="<f4", order="C")
    # min and max see every inf and NaN without a payload-sized temporary.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise FormatError(f"{path}: {what} must be finite in single precision")
    return arr


# ---------------------------------------------------------------------------
# RRI1 range images
# ---------------------------------------------------------------------------

def write_rri1(path, img: RangeImage) -> None:
    h, w = img.sensor.height, img.sensor.width
    planes = _finite_f32(path, img.channels, "channels")
    with open(path, "wb") as f:
        f.write(b"RRI1" + struct.pack("<III", h, w, img.plane_count))
        planes.tofile(f)
        img.valid.astype(np.uint8).tofile(f)


def as_stored(img: RangeImage) -> RangeImage:
    """The image `read_rri1` returns for the file `write_rri1` makes of `img`,
    validated alike: a value beyond the f32 range becomes inf and is rejected.
    """
    return RangeImage(img.sensor, img.channels.astype(np.float32), img.valid)


def read_rri1(path, sensor: SensorModel) -> RangeImage:
    data = Path(path).read_bytes()
    _check_magic(data, b"RRI1", path)
    head, offset = _take(data, 4, 12, path)
    h, w, planes = struct.unpack("<III", head)
    if (h, w) != (sensor.height, sensor.width):
        raise FormatError(
            f"{path}: image is {h}x{w}, sensor expects "
            f"{sensor.height}x{sensor.width}"
        )
    body, offset = _take(data, offset, planes * h * w * 4, path)
    mask, offset = _take(data, offset, h * w, path)
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing byte(s)")
    channels = np.frombuffer(body, dtype="<f4")
    flags = np.frombuffer(mask, dtype=np.uint8)
    if np.any(flags > 1):
        raise FormatError(f"{path}: validity bytes must be 0 or 1")
    return RangeImage(
        sensor, channels.reshape(planes, h, w), (flags == 1).reshape(h, w)
    )


# ---------------------------------------------------------------------------
# RFP1 feature point clouds
# ---------------------------------------------------------------------------

def write_rfp1(path, cloud: FeaturePointCloud) -> None:
    n = len(cloud)
    d_f = cloud.feature_dim
    records = np.empty((n, 4 + d_f), dtype="<f4")
    with np.errstate(over="ignore"):
        records[:, :3] = cloud.xyz
        records[:, 3] = cloud.intensity
        records[:, 4:] = cloud.features
    records = _finite_f32(path, records, "point records")
    Path(path).write_bytes(
        b"RFP1" + struct.pack("<II", n, d_f) + records.tobytes()
    )


def read_rfp1(path) -> FeaturePointCloud:
    data = Path(path).read_bytes()
    _check_magic(data, b"RFP1", path)
    head, offset = _take(data, 4, 8, path)
    n, d_f = struct.unpack("<II", head)
    body, offset = _take(data, offset, n * (4 + d_f) * 4, path)
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing byte(s)")
    records = np.frombuffer(body, dtype="<f4").reshape(n, 4 + d_f)
    return FeaturePointCloud(records[:, :3], records[:, 3], records[:, 4:])


# ---------------------------------------------------------------------------
# RWT1 named tensors
# ---------------------------------------------------------------------------

def write_rwt1(path, tensors: dict[str, np.ndarray]) -> None:
    parts = [b"RWT1", struct.pack("<I", len(tensors))]
    for name, tensor in tensors.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name[:40]}...")
        arr = _finite_f32(path, tensor, name)
        if arr.ndim > 0xFF:
            raise FormatError(f"{name}: rank {arr.ndim} exceeds format limit")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_rwt1(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    _check_magic(data, b"RWT1", path)
    head, offset = _take(data, 4, 4, path)
    (count,) = struct.unpack("<I", head)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        head, offset = _take(data, offset, 2, path)
        (name_len,) = struct.unpack("<H", head)
        raw_name, offset = _take(data, offset, name_len, path)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        head, offset = _take(data, offset, 1, path)
        rank = head[0]
        head, offset = _take(data, offset, 4 * rank, path)
        dims = struct.unpack(f"<{rank}I", head)
        size = math.prod(dims)  # exact, and 1 for rank 0
        body, offset = _take(data, offset, size * 4, path)
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        out[name] = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(dims)
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing byte(s)")
    return out


# ---------------------------------------------------------------------------
# RRF1 pooled RoI features
# ---------------------------------------------------------------------------

def write_rrf1(path, vectors: np.ndarray) -> None:
    arr = _finite_f32(path, vectors, "RoI vectors")
    if arr.ndim != 2:
        raise FormatError(f"RoI payload must be (boxes, length), got {arr.shape}")
    Path(path).write_bytes(
        b"RRF1" + struct.pack("<II", arr.shape[0], arr.shape[1]) + arr.tobytes()
    )


def read_rrf1(path) -> np.ndarray:
    data = Path(path).read_bytes()
    _check_magic(data, b"RRF1", path)
    head, offset = _take(data, 4, 8, path)
    boxes, length = struct.unpack("<II", head)
    body, offset = _take(data, offset, boxes * length * 4, path)
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing byte(s)")
    vectors = _finite_f32(path, np.frombuffer(body, dtype="<f4"), "RoI vectors")
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
    records = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(-1, 4)
    bad = np.flatnonzero(~np.all(np.isfinite(records), axis=1))
    if bad.size:
        raise FormatError(f"{path}: non-finite values at record {int(bad[0])}")
    return records


def write_kitti_bin(path, points) -> None:
    """Store the (x, y, z, intensity) columns of (N, >= 4) rows as raw f32."""
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] < 4:
        raise FormatError(f"{path}: need (N, >= 4) point rows, got {points.shape}")
    arr = _finite_f32(path, points[:, :4], "points")
    Path(path).write_bytes(arr.tobytes())


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
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
