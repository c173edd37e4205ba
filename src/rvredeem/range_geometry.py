"""Bijective pixel-point mapping and range-image construction.

The projection ties a real-valued pixel (u, v) with range r to a 3D point:

    theta = (1 - 2u/w) * pi          azimuth, +pi at u=0 down to -pi at u=w
    phi   = (1 - v/h) * f_total - f_up   elevation
    x = r cos(phi) cos(theta)
    y = r cos(phi) sin(theta)
    z = r sin(phi)

and back via theta = atan2(y, x), phi = asin(z/r). Azimuth covers the full
circle, so only elevation can put a point out of the field of view. The
elevation interval reachable by rows v in [0, h) is (-f_up, f_total - f_up];
the open bottom end keeps the row invariant 0 <= v < h strict.

Whether `fov_up` names the above-horizon magnitude depends on the sensor
vendor's datasheet convention; the formulas above are the contract, and the
row order simply follows from them.

All math here runs in 64-bit floats: the round-trip guarantees are only
meaningful without single-precision noise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BASE_CHANNELS,
    CH_INTENSITY,
    CH_RANGE,
    FeaturePointCloud,
    Point,
    RangeImage,
    SensorModel,
    clamp_intensity,
    points_to_array,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PixelCoord:
    """Real-valued pixel location plus the range measured there."""

    u: float
    v: float
    r: float

    def validate(self, sensor: SensorModel) -> "PixelCoord":
        if not (0.0 <= self.u < sensor.width):
            raise ValueError(f"pixel u={self.u!r} outside [0, {sensor.width})")
        if not (0.0 <= self.v < sensor.height):
            raise ValueError(f"pixel v={self.v!r} outside [0, {sensor.height})")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"pixel range must be positive, got {self.r!r}")
        return self


def pixel_angles(u, v, sensor: SensorModel):
    """(theta, phi) for real-valued pixel coordinates. Vectorized."""
    theta = (1.0 - 2.0 * np.asarray(u, dtype=np.float64) / sensor.width) * math.pi
    phi = (
        1.0 - np.asarray(v, dtype=np.float64) / sensor.height
    ) * sensor.fov_total - sensor.fov_up
    return theta, phi


def pixel_to_point(px: PixelCoord, sensor: SensorModel, intensity: float = 0.0) -> Point:
    """3D point for a pixel; |(x, y, z)| agrees with px.r to a few ulps.

    Delegates to the vectorized kernel so scalar and batch paths are
    bit-identical.
    """
    px.validate(sensor)
    x, y, z = unproject_pixels(px.u, px.v, px.r, sensor)
    return Point(float(x), float(y), float(z), intensity, px.r)


def unproject_pixels(u, v, r, sensor: SensorModel) -> np.ndarray:
    """Vectorized pixel_to_point over coordinate arrays; returns (N, 3) xyz."""
    theta, phi = pixel_angles(u, v, sensor)
    r = np.asarray(r, dtype=np.float64)
    cos_phi = np.cos(phi)
    return np.stack(
        [r * cos_phi * np.cos(theta), r * cos_phi * np.sin(theta), r * np.sin(phi)],
        axis=-1,
    )


def point_to_pixel(p: Point, sensor: SensorModel) -> PixelCoord | None:
    """Algebraic inverse of pixel_to_point; None when out of the field of view.

    atan2 yields theta in (-pi, pi], which maps to u in [0, w): the azimuth
    never leaves the image. Elevation outside (-f_up, f_total - f_up], i.e. a
    row index outside [0, h), is out of view. Delegates to the vectorized
    kernel so scalar and batch paths are bit-identical.
    """
    if not (p.range > 0.0):
        raise ValueError("cannot project a zero-range point")
    xyz = np.array([[p.x, p.y, p.z]], dtype=np.float64)
    u, v, r, in_fov = project_points(xyz, sensor)
    if not in_fov[0]:
        return None
    return PixelCoord(float(u[0]), float(v[0]), float(r[0]))


def project_points(xyz: np.ndarray, sensor: SensorModel):
    """Vectorized point_to_pixel over an (N, 3) array.

    Returns (u, v, r, in_fov). u and v are real-valued; entries where
    `in_fov` is False are unspecified.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    r = np.sqrt((x * x + y * y) + z * z)
    safe_r = np.where(r > 0.0, r, 1.0)
    theta = np.arctan2(y, x)
    phi = np.arcsin(np.clip(z / safe_r, -1.0, 1.0))
    u = sensor.width * (1.0 - theta / math.pi) / 2.0
    v = sensor.height * (1.0 - (phi + sensor.fov_up) / sensor.fov_total)
    in_fov = (r > 0.0) & (v >= 0.0) & (v < sensor.height)
    u = np.where(u >= sensor.width, u - sensor.width, u)
    return u, v, r, in_fov


def build_range_image(points, sensor: SensorModel) -> RangeImage:
    """Bin (N, 3..5) point rows (see `points_to_array`) into the range image.

    Each in-view point lands at flat pixel id floor(v) * w + floor(u), and
    each pixel keeps its nearest point, the lowest input index among equal
    ranges, so the result never depends on traversal order. The ranking key
    is the range `project_points` derives from x, y, z, not the stored range
    column. Two scatter-mins pick the winners: the least range per pixel,
    then the least input position among the points at that range. Both are
    exact: in-view ranges are finite and positive, so no NaN or signed zero
    enters a minimum. Out-of-view points and in-view points that lose their
    pixel are counted in log lines; an empty cloud, or one with nothing in
    view, gives an image with no valid pixel. Coordinates and ranges must be
    finite; intensities follow `clamp_intensity`, checked on every row, kept
    or not.
    """
    arr = points_to_array(points)
    if not (np.isfinite(arr[:, :3]).all() and np.isfinite(arr[:, CH_RANGE]).all()):
        bad = np.flatnonzero(~np.isfinite(np.delete(arr, CH_INTENSITY, axis=1)).all(axis=1))
        raise ValueError(f"point x, y, z and range must be finite; row {bad[0]} is not")
    arr[:, CH_INTENSITY] = clamp_intensity(arr[:, CH_INTENSITY], "point intensity")
    h, w = sensor.height, sensor.width
    u, v, r, in_fov = project_points(arr[:, :3], sensor)
    dropped = int(arr.shape[0] - np.sum(in_fov))
    if dropped:
        logger.info("build_range_image: %d point(s) outside the field of view", dropped)
    keep = np.flatnonzero(in_fov)
    pixel = np.floor(v[keep]).astype(np.int64) * w + np.floor(u[keep]).astype(np.int64)
    r = r[keep]
    best = np.full(h * w, np.inf)
    np.minimum.at(best, pixel, r)
    nearest = np.flatnonzero(r == best[pixel])
    win = np.full(h * w, keep.size)
    np.minimum.at(win, pixel[nearest], nearest)
    won = np.flatnonzero(win < keep.size)
    collided = keep.size - won.size
    if collided:
        logger.info("build_range_image: %d in-view point(s) lost their pixel", collided)
    planes = np.zeros((BASE_CHANNELS, h * w), dtype=np.float64)
    planes[:, won] = arr[keep[win[won]]].T
    valid = np.zeros(h * w, dtype=bool)
    valid[won] = True
    return RangeImage(sensor, planes.reshape(BASE_CHANNELS, h, w), valid.reshape(h, w))


def redeem_feature_points(
    img: RangeImage, expected_dim: int | None = None
) -> FeaturePointCloud:
    """One feature point per valid pixel, in row-major pixel order.

    Every plane is read at the valid pixels' flat ids in one gather.
    Coordinates and intensity come from the stored planes, never re-derived
    from pixel centers, so no quantization error enters the cloud. The
    embedding is the pixel's feature-plane vector. Output count equals the
    valid-mask popcount.
    """
    d_f = img.plane_count - BASE_CHANNELS
    if expected_dim is not None and d_f != expected_dim:
        raise ValueError(
            f"expected {expected_dim} feature plane(s), image has {d_f}"
        )
    columns = img.channels.reshape(img.plane_count, -1).take(np.flatnonzero(img.valid), axis=1)
    return FeaturePointCloud(columns[:3].T, columns[CH_INTENSITY], columns[BASE_CHANNELS:].T)
