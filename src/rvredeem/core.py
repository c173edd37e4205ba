"""Domain types and configuration shared by the whole pipeline.

Angles are stored in radians everywhere. Config files may provide degrees by
suffixing a key with `_deg`; the value is converted once at load time. The
vertical field of view is stored as two nonnegative magnitudes (above and
below the reference row mapping); the sign conventions of the projection all
live in `range_geometry`.

All types here are immutable after construction and safe to share across
workers. Every array field of an artifact or parameter type, here and in the
stage modules, is a read-only, finite, C-ordered copy made by `frozen_array`.

Config defaults live only on the dataclass fields: loaders pass just the keys
a file sets. Empty values are rejected, and `sgrid.coarse_grid` must be 2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# The first five range-image planes are x, y, z, intensity and range.
CH_INTENSITY = 3
CH_RANGE = 4
BASE_CHANNELS = 5


class ConfigError(ValueError):
    """Raised on a missing, unparsable, or invariant-violating config key."""


def frozen_array(name: str, value, dtype=np.float64) -> np.ndarray:
    """A read-only C-ordered copy of `value` as `dtype`: how types keep arrays.

    Exactly one copy is made from any input, a list of planes included, so
    freezing never reaches an array the caller holds, and every later check
    reads the data the object keeps. A float copy must be finite; an integer
    dtype takes only integer input, never truncated floats. Errors name the
    field: "{name} must be finite".
    """
    if np.dtype(dtype).kind in "iu":
        src = np.asarray(value)
        if src.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers, got dtype {src.dtype}")
    out = np.array(value, dtype=dtype, order="C")
    if out.dtype.kind == "f" and not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


def clamp_intensity(value, key: str = "intensity"):
    """Clamp intensities into [0, 1], warning once per call on violations.

    Calibrated sensor intensities occasionally exceed 1; rejecting them would
    make real scans unloadable, so finite out-of-range values are clamped
    instead. NaN or +-inf raises ValueError naming `key`. Works on scalars and
    arrays.
    """
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} must be finite")
    if (arr < 0.0).any() or (arr > 1.0).any():
        n = int(np.sum((arr < 0.0) | (arr > 1.0)))
        logger.warning("%s: clamped %d value(s) outside [0, 1]", key, n)
        arr = np.clip(arr, 0.0, 1.0)
    if np.ndim(value) == 0:
        return float(arr)
    return arr


@dataclass(frozen=True)
class SensorModel:
    """Angular geometry of the scanner and the range-image dimensions.

    `fov_up` and `fov_down` are the nonnegative magnitudes of the vertical
    field of view split; `fov_total = fov_up + fov_down` must stay within
    [0, pi] so elevations remain inside [-pi/2, pi/2].
    """

    height: int
    width: int
    fov_up: float
    fov_down: float

    def __post_init__(self):
        if self.height < 1:
            raise ValueError(f"sensor height must be >= 1, got {self.height}")
        if self.width < 1:
            raise ValueError(f"sensor width must be >= 1, got {self.width}")
        if not math.isfinite(self.fov_up) or self.fov_up < 0.0:
            raise ValueError(f"fov_up must be nonnegative, got {self.fov_up}")
        if not math.isfinite(self.fov_down) or self.fov_down < 0.0:
            raise ValueError(f"fov_down must be nonnegative, got {self.fov_down}")
        total = self.fov_up + self.fov_down
        if total <= 0.0:
            raise ValueError("total vertical field of view must be positive")
        if total > math.pi:
            raise ValueError(
                f"total vertical field of view {total:.6f} exceeds pi"
            )

    @property
    def fov_total(self) -> float:
        return self.fov_up + self.fov_down


@dataclass(frozen=True)
class Point:
    """A single return: Cartesian coordinates, intensity, and derived range.

    A given range must be finite and agree with |xyz| to 1e-9 relative.
    """

    x: float
    y: float
    z: float
    intensity: float = 0.0
    range: float = field(default=math.nan)

    def __post_init__(self):
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"point coordinate {name} must be finite")
        object.__setattr__(
            self, "intensity", clamp_intensity(self.intensity, "point intensity")
        )
        r = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if math.isnan(self.range):
            object.__setattr__(self, "range", r)
        elif not math.isfinite(self.range):
            raise ValueError("point range must be finite")
        elif abs(self.range - r) > 1e-9 * max(r, 1e-300):
            raise ValueError(f"stored range {float(self.range)!r} disagrees with |xyz| = {r!r}")


@dataclass(frozen=True)
class RangeImage:
    """H x W grid of per-pixel value planes plus a validity mask.

    The first five planes are fixed as (x, y, z, intensity, range); any
    further planes carry features. Invalid pixels hold zero in every plane,
    and the range plane is strictly positive wherever `valid` is set.
    """

    sensor: SensorModel
    channels: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        for name, dtype in (("channels", np.float64), ("valid", bool)):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name), dtype))
        ch, mask = self.channels, self.valid
        h, w = self.sensor.height, self.sensor.width
        if ch.ndim != 3 or ch.shape[1:] != (h, w):
            raise ValueError(
                f"channels must be (P, {h}, {w}), got {ch.shape}"
            )
        if ch.shape[0] < BASE_CHANNELS:
            raise ValueError(
                f"need at least {BASE_CHANNELS} planes, got {ch.shape[0]}"
            )
        if mask.shape != (h, w):
            raise ValueError(f"valid mask must be ({h}, {w}), got {mask.shape}")
        # Any plane nonzero at any invalid pixel; -0.0 counts as zero.
        if np.any(np.any(ch, axis=0) & ~mask):
            raise ValueError("invalid pixels must hold 0 in all planes")
        if np.any(ch[CH_RANGE][mask] <= 0.0):
            raise ValueError("valid pixels must have strictly positive range")

    @property
    def plane_count(self) -> int:
        return self.channels.shape[0]

    @property
    def feature_planes(self) -> np.ndarray:
        return self.channels[BASE_CHANNELS:]

    def with_features(self, features: np.ndarray) -> "RangeImage":
        """New image keeping the five base planes, replacing feature planes.

        The features must already hold 0 at invalid pixels, as the layers
        that compute them leave them; the planes are stacked in one copy.
        """
        feats = np.asarray(features)
        h, w = self.sensor.height, self.sensor.width
        if feats.ndim != 3 or feats.shape[1:] != (h, w):
            raise ValueError(f"feature planes must be (F, {h}, {w}), got {feats.shape}")
        return RangeImage(self.sensor, [*self.channels[:BASE_CHANNELS], *feats], self.valid)


@dataclass(frozen=True)
class FeaturePointCloud:
    """Points with intensity and a fixed-width feature embedding per point.

    The one point-set type of the pipeline: three row-aligned arrays, (N, 3)
    coordinates, (N,) intensities in [0, 1] and (N, d) features.
    """

    xyz: np.ndarray
    intensity: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intensity", clamp_intensity(self.intensity, "cloud intensity"))
        for name in ("xyz", "intensity", "features"):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name)))
        xyz, inten, feats = self.xyz, self.intensity, self.features
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        n = xyz.shape[0]
        if inten.shape != (n,):
            raise ValueError(f"intensity must be ({n},), got {inten.shape}")
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError(f"features must be ({n}, d), got {feats.shape}")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.remainder(yaw, math.tau)
    if a <= -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class Box3D:
    """Rotated 3D box: center, sizes (length along x at yaw 0), z-axis yaw."""

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self):
        for name in ("cx", "cy", "cz", "length", "width", "height", "yaw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} must be finite")
        for name in ("length", "width", "height"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"box {name} must be strictly positive")
        # Plain floats, so repr-based box files never see numpy scalars.
        for name in ("cx", "cy", "cz", "length", "width", "height"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Pooling radii come from the squared diagonal, so it must be finite.
        if not math.isfinite(sum(x * x for x in (self.length, self.width, self.height))):
            raise ValueError("box length^2 + width^2 + height^2 must be finite")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz], dtype=np.float64)

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.length, self.width, self.height], dtype=np.float64)


@dataclass(frozen=True)
class SGridConfig:
    """Dual-grid RoI pooling configuration.

    The coarse grid must be 2: its features are upsampled from a 2x2x2 lattice.
    Radii of None resolve per box to half the cell diagonal of that branch's
    grid, which guarantees neighboring grid-point balls leave no gaps.
    """

    fine_grid: int = 3
    coarse_grid: int = 2
    fine_radius: float | None = None
    coarse_radius: float | None = None
    neighbor_cap: int = 16
    pool_hidden: int = 32
    fine_channels: int = 32
    coarse_channels: int = 32
    head_hidden: int = 128
    upsample_mode: str = "trilinear"

    def __post_init__(self):
        if self.coarse_grid != 2:
            raise ValueError(
                "sgrid coarse_grid must be 2 (upsampling interpolates a 2x2x2"
                f" lattice), got {self.coarse_grid}"
            )
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"sgrid {f.name} must be >= 1")
        for name in ("fine_radius", "coarse_radius"):
            r = getattr(self, name)
            if r is not None and not (math.isfinite(r) and r > 0.0):
                raise ValueError(f"sgrid {name} must be positive or auto")
        if self.upsample_mode not in ("trilinear", "nearest"):
            raise ValueError(
                f"sgrid upsample_mode must be trilinear or nearest, got {self.upsample_mode}"
            )

    @property
    def roi_feature_length(self) -> int:
        return self.fine_grid**3 * (self.fine_channels + self.coarse_channels)


def grid_shape(voxel_size, range_min, range_max) -> tuple[int, int, int]:
    """Cells per axis, (nx, ny, nz) = ceil((max - min) / size).

    Raises ValueError naming the field when a voxel size is not finite and
    positive or a bound is not finite, when max <= min on an axis, and when
    the cells are out of reach: an extent or quotient that overflows, an
    axis of no cell, or more cells than an int64 flat index counts.
    """
    size = np.asarray(voxel_size, dtype=np.float64)
    lo = np.asarray(range_min, dtype=np.float64)
    hi = np.asarray(range_max, dtype=np.float64)
    if not (np.isfinite(size) & (size > 0.0)).all():
        raise ValueError(f"voxel_size must be finite and positive, got {size.tolist()}")
    for name, bound in (("range_min", lo), ("range_max", hi)):
        if not np.isfinite(bound).all():
            raise ValueError(f"{name} must be finite, got {bound.tolist()}")
    if not (hi > lo).all():
        raise ValueError("grid range must satisfy max > min")
    with np.errstate(over="ignore"):
        cells = np.ceil((hi - lo) / size)
    if not (np.isfinite(cells).all() and cells.min() >= 1 and math.prod(map(int, cells)) < 2**63):
        raise ValueError(f"voxel_size splits the range into {cells.tolist()} cells, not 1 to 2**63 - 1")
    return tuple(int(n) for n in cells)


@dataclass(frozen=True)
class PipelineConfig:
    """Fully validated pipeline configuration."""

    sensor: SensorModel
    conv_channels: int = 32
    mlp_hidden: int = 32
    feature_dim: int = 64
    wrap_horizontal: bool = True
    keypoint_count: int = 2048
    voxel_size: tuple[float, float, float] = (0.4, 0.4, 0.25)
    range_min: tuple[float, float, float] = (-48.0, -48.0, -3.0)
    range_max: tuple[float, float, float] = (48.0, 48.0, 3.0)
    sgrid: SGridConfig = field(default_factory=SGridConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("conv_channels", "mlp_hidden", "feature_dim", "keypoint_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.feature_dim % 2 != 0:
            raise ValueError(
                f"feature_dim must be even (two equal half-width branches), got {self.feature_dim}"
            )
        for axis, lo, hi in zip("xyz", self.range_min, self.range_max):
            for bound, value in (("min", lo), ("max", hi)):
                if not math.isfinite(value):
                    raise ValueError(f"voxel {bound}_{axis} must be finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        grid_shape(self.voxel_size, self.range_min, self.range_max)  # the rest of the geometry


# ---------------------------------------------------------------------------
# Config file loading: line-oriented `key = value`, `#` comments, dotted keys.
# ---------------------------------------------------------------------------

def parse_kv_file(path) -> dict[str, str]:
    """Parse a `key = value` file into a string map.

    `#` starts a comment; blank lines are skipped; keys may be dotted.
    Duplicate keys are rejected so a typo cannot silently win.
    """
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"duplicate key: {key}")
        out[key] = value
    return out


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True}
_BOOLEANS.update({"false": False, "0": False, "no": False, "off": False})

# Field annotation -> (parser of a nonempty value, what a valid value is).
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda text: _BOOLEANS[text.lower()], "a boolean"),
    "float | None": (
        lambda text: None if text.lower() == "auto" else float(text),
        "a number or `auto`",
    ),
    "str": (str, "a nonempty value"),
}


class KeyReader:
    """Typed reads that consume the keys of a parsed key-value file."""

    def __init__(self, raw: dict[str, str]):
        self.unread = dict(raw)

    def get(self, key: str, kind: str):
        """Parse `key` as field type `kind`, raising a ConfigError that names it."""
        if key not in self.unread:
            raise ConfigError(f"missing required key: {key}")
        text = self.unread.pop(key)
        parse, expected = _PARSERS[kind]
        try:
            if text:
                return parse(text)
        except (KeyError, ValueError):
            pass
        raise ConfigError(f"{key}: expected {expected}, got {text!r}")

    def get_angle(self, key: str) -> float:
        """Radians from `key`, or degrees from `key_deg`; exactly one required."""
        deg = key + "_deg"
        if key in self.unread and deg in self.unread:
            raise ConfigError(f"{key}: give either {key} or {deg}, not both")
        if deg in self.unread:
            return math.radians(self.get(deg, "float"))
        if key not in self.unread:
            raise ConfigError(f"missing required key: {key} (or {deg})")
        return self.get(key, "float")

    def read_fields(self, cls, keys: dict[str, str]) -> dict:
        """Keyword arguments for dataclass `cls` from `keys` (file key -> field).

        Only keys in the file are passed, so every other field keeps its
        dataclass default; a field without a default is required.
        """
        spec = {f.name: f for f in fields(cls)}
        return {
            name: self.get(key, spec[name].type)
            for key, name in keys.items()
            if key in self.unread
            or (spec[name].default is MISSING and spec[name].default_factory is MISSING)
        }

    def finish(self) -> None:
        """Reject the file if any of its keys was not read."""
        if self.unread:
            raise ConfigError(f"unknown key: {min(self.unread)}")


# File key -> PipelineConfig field; `sensor.` and `voxel.` keys are read apart.
_PIPELINE_KEYS = {
    "rvfe.conv_channels": "conv_channels",
    "rvfe.mlp_hidden": "mlp_hidden",
    "rvfe.feature_dim": "feature_dim",
    "rvfe.wrap_horizontal": "wrap_horizontal",
    "keypoints.count": "keypoint_count",
    "seed": "seed",
}
_SGRID_KEYS = {f"sgrid.{f.name}": f.name for f in fields(SGridConfig)}
# Key prefix, completed by the axis x, y or z -> (x, y, z) PipelineConfig field.
_VOXEL_KEYS = {"voxel.size_": "voxel_size", "voxel.min_": "range_min", "voxel.max_": "range_max"}


def _build(cls, prefix: str, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Load and fully validate a pipeline config from a key-value file.

    Every error names the offending key. Loading is pure: the same file
    always yields an identical configuration.
    """
    reader = KeyReader(parse_kv_file(path))
    sensor = _build(
        SensorModel,
        "sensor",
        height=reader.get("sensor.height", "int"),
        width=reader.get("sensor.width", "int"),
        fov_up=reader.get_angle("sensor.fov_up"),
        fov_down=reader.get_angle("sensor.fov_down"),
    )
    # An axis missing from the file keeps its entry of the field's default.
    voxel = {
        name: tuple(
            reader.get(prefix + a, "float") if prefix + a in reader.unread else default
            for a, default in zip("xyz", getattr(PipelineConfig, name))
        )
        for prefix, name in _VOXEL_KEYS.items()
    }
    config = _build(
        PipelineConfig,
        "config",
        sensor=sensor,
        sgrid=_build(SGridConfig, "sgrid", **reader.read_fields(SGridConfig, _SGRID_KEYS)),
        **voxel,
        **reader.read_fields(PipelineConfig, _PIPELINE_KEYS),
    )
    reader.finish()
    return config
