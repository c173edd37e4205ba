"""Synthetic scene generation for tests and benchmarks.

A scene is a set of ground-truth boxes resting on a flat ground plane, with
points sampled uniformly on the box surfaces (foreground) and on the ground
square (background). Every draw comes from one splitmix64 stream, so a given
spec reproduces the identical scene bit for bit on any platform.

Draw order, fixed forever: per box, 6 scalar draws for the pose
(cx, cy, length, width, height, yaw), then after all boxes, per box a block
of n face selectors, a block of n first in-face coordinates, a block of n
second in-face coordinates, and a block of n intensities. Ground points
follow as x block, y block, intensity block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Box3D, ConfigError, FeaturePointCloud, KeyReader, frozen_array, parse_kv_file
from .rng import STREAM_SCENE, DetRng, derive_seed
from .sgrid import canonical_transform, inverse_canonical_transform

log = logging.getLogger(__name__)

SURFACE_TOL = 1e-9

# Sampled box shapes, roughly car-sized. Fixed constants of the generator.
_LENGTH_RANGE = (3.2, 4.8)
_WIDTH_RANGE = (1.6, 2.0)
_HEIGHT_RANGE = (1.4, 1.8)

# For face index f: axis f // 2 is pinned at +/- half-extent (sign +1 for
# even f), and _FREE1/_FREE2 list the remaining axes in ascending order.
_FREE1 = np.array([1, 1, 0, 0, 0, 0])
_FREE2 = np.array([2, 2, 2, 2, 1, 1])


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs: counts and densities are in points per square meter."""

    box_count: int
    box_density: float
    ground_density: float
    extent: float
    seed: int
    ground_z: float = -1.7

    def __post_init__(self):
        if self.box_count < 0:
            raise ConfigError(f"box count must be nonnegative, got {self.box_count}")
        if self.box_density < 0.0 or self.ground_density < 0.0:
            raise ConfigError("densities must be nonnegative")
        if not self.extent > 0.0:
            raise ConfigError(f"extent must be positive, got {self.extent}")
        if not math.isfinite(self.ground_z):
            raise ConfigError("ground_z must be finite")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")


# File key -> SynthSpec field: the field's own name, but `boxes` sets `box_count`.
_SPEC_KEYS = {"boxes" if f.name == "box_count" else f.name: f.name for f in fields(SynthSpec)}


def parse_synth_spec(path) -> SynthSpec:
    """Read a key=value scene spec. Only `ground_z` has a default."""
    reader = KeyReader(parse_kv_file(path))
    spec = SynthSpec(**reader.read_fields(SynthSpec, _SPEC_KEYS))
    reader.finish()
    return spec


@dataclass(frozen=True)
class SyntheticScene:
    """Boxes plus a labeled point cloud.

    labels[i] is the index of the box whose surface produced point i, or -1
    for ground points. Construction re-checks the surface invariant: each
    foreground point, taken to its box's canonical frame, lies inside the box
    with at least one coordinate within SURFACE_TOL of +/- half-extent.
    """

    boxes: tuple[Box3D, ...]
    cloud: FeaturePointCloud
    labels: np.ndarray

    def __post_init__(self):
        labels = frozen_array("labels", self.labels, np.int64)
        if labels.shape != (len(self.cloud),):
            raise ValueError(
                f"labels must be ({len(self.cloud)},), got {labels.shape}"
            )
        if labels.size and (labels.min() < -1 or labels.max() >= len(self.boxes)):
            raise ValueError("labels must be -1 or a valid box index")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "boxes", tuple(self.boxes))
        for index, box in enumerate(self.boxes):
            member = labels == index
            if not member.any():
                continue
            canon = canonical_transform(self.cloud.xyz[member], box)
            half = box.dims / 2.0
            gap = np.abs(np.abs(canon) - half)
            if np.any(np.abs(canon) > half + SURFACE_TOL) or np.any(
                gap.min(axis=1) > SURFACE_TOL
            ):
                raise ValueError(f"point off the surface of box {index}")

    @property
    def foreground_count(self) -> int:
        return int(np.count_nonzero(self.labels >= 0))

    @property
    def background_count(self) -> int:
        return int(np.count_nonzero(self.labels < 0))


def _box_surface_points(rng: DetRng, box: Box3D, count: int) -> np.ndarray:
    """Uniform samples on the box surface, area-weighted across the 6 faces."""
    dims = box.dims
    length, width, height = dims
    areas = np.array(
        [
            width * height,
            width * height,
            length * height,
            length * height,
            length * width,
            length * width,
        ]
    )
    cumulative = np.cumsum(areas) / areas.sum()
    face_u = rng.uniforms(count)
    faces = np.searchsorted(cumulative, face_u, side="right")
    faces = np.minimum(faces, 5)  # guard the u == 1.0 corner, unreachable here
    s = rng.uniforms(count) - 0.5
    t = rng.uniforms(count) - 0.5
    axis = faces // 2
    sign = 1.0 - 2.0 * (faces % 2)
    rows = np.arange(count)
    canon = np.empty((count, 3))
    canon[rows, axis] = sign * (dims[axis] / 2.0)
    canon[rows, _FREE1[faces]] = s * dims[_FREE1[faces]]
    canon[rows, _FREE2[faces]] = t * dims[_FREE2[faces]]
    return inverse_canonical_transform(canon, box)


def gen_synthetic_scene(spec: SynthSpec) -> SyntheticScene:
    """Sample a scene from the spec. Identical seeds give identical scenes."""
    rng = DetRng(derive_seed(spec.seed, STREAM_SCENE))

    boxes = []
    for _ in range(spec.box_count):
        cx = rng.uniform(-spec.extent, spec.extent)
        cy = rng.uniform(-spec.extent, spec.extent)
        length = rng.uniform(*_LENGTH_RANGE)
        width = rng.uniform(*_WIDTH_RANGE)
        height = rng.uniform(*_HEIGHT_RANGE)
        yaw = rng.uniform(-math.pi, math.pi)
        boxes.append(
            Box3D(cx, cy, spec.ground_z + height / 2.0, length, width, height, yaw)
        )

    chunks = []
    labels = []
    for index, box in enumerate(boxes):
        length, width, height = box.dims
        area = 2.0 * (length * width + length * height + width * height)
        count = int(round(spec.box_density * area))
        xyz = _box_surface_points(rng, box, count)
        intensity = rng.uniforms(count)
        chunks.append((xyz, intensity))
        labels.append(np.full(count, index, dtype=np.int64))

    side = 2.0 * spec.extent
    ground_count = int(round(spec.ground_density * side * side))
    ground = np.empty((ground_count, 3))
    ground[:, 0] = rng.uniforms(ground_count, -spec.extent, spec.extent)
    ground[:, 1] = rng.uniforms(ground_count, -spec.extent, spec.extent)
    ground[:, 2] = spec.ground_z
    chunks.append((ground, rng.uniforms(ground_count)))
    labels.append(np.full(ground_count, -1, dtype=np.int64))

    xyz = np.concatenate([c[0] for c in chunks], axis=0)
    intensity = np.concatenate([c[1] for c in chunks])
    cloud = FeaturePointCloud(xyz, intensity, np.empty((xyz.shape[0], 0)))
    scene = SyntheticScene(tuple(boxes), cloud, np.concatenate(labels))
    log.info(
        "synthesized scene: %d boxes, %d foreground + %d background points",
        len(boxes),
        scene.foreground_count,
        scene.background_count,
    )
    return scene
