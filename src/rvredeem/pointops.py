"""Point-set primitives: sampling, neighborhoods, voxel grids, BEV maps.

All operations are pure and deterministic. Ties are broken by the lowest
point index everywhere, and every distance comparison uses squared
Euclidean distance, so ordering never depends on square-root rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import FeaturePointCloud, frozen_array

logger = logging.getLogger(__name__)


def _coordinates(xyz) -> np.ndarray:
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"coordinates must be (N, 3), got {xyz.shape}")
    return xyz


def _squared_distances(xyz: np.ndarray, point: np.ndarray) -> np.ndarray:
    diff = xyz - point
    return np.sum(diff * diff, axis=1)


def grid_shape(voxel_size, range_min, range_max) -> tuple[int, int, int]:
    """Cells per axis, (nx, ny, nz) = ceil((max - min) / size)."""
    lo = np.asarray(range_min, dtype=np.float64)
    hi = np.asarray(range_max, dtype=np.float64)
    return tuple(int(n) for n in np.ceil((hi - lo) / np.asarray(voxel_size)))


@dataclass(frozen=True)
class VoxelGrid:
    """Sparse voxelization: occupied cells hold a count and a mean feature.

    `shape`, the full grid extent (nx, ny, nz), follows from the geometry
    (`grid_shape`) and is not stored. Occupied cell k has integer
    index `voxels[k]` = (ix, iy, iz), `counts[k]` points and mean feature
    `means[k]`; cells are listed in strictly increasing flat (row-major)
    index order, so each cell appears once. Every index lies inside the
    extents, and the counts sum to the number of in-range points that
    produced the grid.
    """

    voxel_size: tuple[float, float, float]
    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]
    voxels: np.ndarray  # (V, 3) int64
    counts: np.ndarray  # (V,) int64
    means: np.ndarray  # (V, d_f) float64

    def __post_init__(self):
        for axis in range(3):
            if self.voxel_size[axis] <= 0.0:
                raise ValueError("voxel sizes must be positive")
            if self.range_max[axis] <= self.range_min[axis]:
                raise ValueError("grid range must satisfy max > min")
        for name, dtype in (("voxels", np.int64), ("counts", np.int64), ("means", np.float64)):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name), dtype))
        idx, counts, means = self.voxels, self.counts, self.means
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise ValueError(f"voxel indices must be (V, 3), got {idx.shape}")
        v = idx.shape[0]
        if counts.shape != (v,):
            raise ValueError(f"voxel counts must be ({v},), got {counts.shape}")
        if means.ndim != 2 or means.shape[0] != v:
            raise ValueError(f"voxel means must be ({v}, d), got {means.shape}")
        shape = self.shape
        if min(shape) < 1:
            raise ValueError("grid shape must be positive")
        if np.any((idx < 0) | (idx >= np.asarray(shape))):
            raise ValueError(f"occupied voxel outside grid shape {shape}")
        if np.any(counts < 1):
            raise ValueError("occupied voxels must have positive counts")
        flat = np.ravel_multi_index(tuple(idx.T), shape)
        if np.any(np.diff(flat) <= 0):
            raise ValueError("voxel indices must be unique and in flat-index order")

    @property
    def shape(self) -> tuple[int, int, int]:
        return grid_shape(self.voxel_size, self.range_min, self.range_max)

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]


def furthest_point_sampling(xyz, count: int, seed_index: int = 0) -> np.ndarray:
    """Greedy max-min downsampling of (N, 3) coordinates to `count` indices.

    Starts at seed_index; each step picks the point whose squared distance
    to the selected set is largest, lowest index on ties (argmax returns the
    first maximum). Asking for C >= N returns all N indices in selection
    order. The result is an int64 index array into `xyz`.

    The coordinates are copied once into three contiguous columns, and each
    step writes (dx^2 + dy^2) + dz^2 into two preallocated scratch vectors.
    Those are the additions, in the same order, of the (N, 3) row sum that
    `ball_query` uses, so every distance and every pick are bit for bit
    that formula's, without an allocation per step.
    """
    xyz = _coordinates(xyz)
    n = xyz.shape[0]
    if n == 0:
        raise ValueError("cannot sample from an empty cloud")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not (0 <= seed_index < n):
        raise ValueError(f"seed_index {seed_index} outside [0, {n})")
    count = min(count, n)
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = seed_index
    x, y, z = (np.ascontiguousarray(xyz[:, a]) for a in range(3))
    best = np.full(n, np.inf, dtype=np.float64)
    d2 = np.empty(n, dtype=np.float64)
    term = np.empty(n, dtype=np.float64)
    last = seed_index
    for step in range(1, count):
        px, py, pz = xyz[last]
        np.subtract(x, px, out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(y, py, out=term)
        np.multiply(term, term, out=term)
        np.add(d2, term, out=d2)
        np.subtract(z, pz, out=term)
        np.multiply(term, term, out=term)
        np.add(d2, term, out=d2)
        np.minimum(best, d2, out=best)
        best[last] = -1.0  # never reselect
        last = int(np.argmax(best))
        chosen[step] = last
    return chosen


def ball_query(center, radius: float, xyz, max_k: int) -> np.ndarray:
    """Indices into (N, 3) `xyz` within distance radius, nearest first, capped.

    Comparison is on squared distances. Ordering is (distance, index), so
    truncation at max_k is deterministic.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    d2 = _squared_distances(_coordinates(xyz), center)
    hits = np.flatnonzero(d2 <= radius * radius)
    order = np.lexsort((hits, d2[hits]))
    return hits[order][:max_k].astype(np.int64)


@dataclass(frozen=True)
class SharedMlp:
    """Dense layers applied per point, rectified after every layer."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        frozen = []
        prev_out = None
        for i, (weight, bias) in enumerate(self.layers):
            weight = frozen_array(f"layers[{i}] weight", weight)
            bias = frozen_array(f"layers[{i}] bias", bias)
            if weight.ndim != 2 or bias.shape != (weight.shape[0],):
                raise ValueError("each layer needs (out, in) weight and (out,) bias")
            if prev_out is not None and weight.shape[1] != prev_out:
                raise ValueError("layer widths must chain")
            prev_out = weight.shape[0]
            frozen.append((weight, bias))
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """Run the stack on (in_dim, n) column data."""
        out = columns
        for weight, bias in self.layers:
            out = np.maximum(weight @ out + bias[:, None], 0.0)
        return out


def pointnet_aggregate(
    center: np.ndarray,
    neighbor_xyz: np.ndarray,
    neighbor_features: np.ndarray,
    mlp: SharedMlp,
) -> np.ndarray:
    """Max-pooled local feature, (mlp.out_dim,); all zero with no neighbors.

    Each neighbor is encoded as concat(xyz - center, features), pushed
    through the shared MLP, then reduced by channel-wise max. The max starts
    from +0.0 (`initial=0.0`), which changes no value: every rectified MLP
    output is >= +0.0, and a -0.0 output would need a -0.0 bias, which
    `init_dense` never emits. So an empty neighbor list takes the same path
    and pools to zeros; callers that need emptiness take it from the query.
    """
    center = np.asarray(center, dtype=np.float64).reshape(3)
    xyz = np.asarray(neighbor_xyz, dtype=np.float64).reshape(-1, 3)
    feats = np.asarray(neighbor_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != xyz.shape[0]:
        raise ValueError(
            f"features must be ({xyz.shape[0]}, d), got {feats.shape}"
        )
    encoded = np.concatenate([xyz - center, feats], axis=1).T
    if encoded.shape[0] != mlp.in_dim:
        raise ValueError(
            f"MLP expects {mlp.in_dim} inputs, encoding has {encoded.shape[0]}"
        )
    return np.max(mlp.apply(encoded), axis=1, initial=0.0)


def voxelize(
    cloud: FeaturePointCloud,
    voxel_size: tuple[float, float, float],
    range_min: tuple[float, float, float],
    range_max: tuple[float, float, float],
) -> VoxelGrid:
    """Mean-pool features into a sparse voxel grid.

    A point belongs to voxel floor((p - min) / size); a point exactly on a
    cell boundary therefore lands in the higher-index cell. Points whose
    index falls outside the grid are counted in a log line and excluded.
    """
    size = np.asarray(voxel_size, dtype=np.float64)
    vmin = np.asarray(range_min, dtype=np.float64)
    shape = grid_shape(voxel_size, range_min, range_max)
    idx = np.floor((cloud.xyz - vmin) / size).astype(np.int64)
    in_range = np.all((idx >= 0) & (idx < np.asarray(shape)), axis=1)
    dropped = int(len(cloud) - np.sum(in_range))
    if dropped:
        logger.info("voxelize: %d point(s) outside the grid range", dropped)

    # Group by flattened voxel id with a stable sort; summation order inside
    # each group follows ascending point index, so results are reproducible.
    flat = np.ravel_multi_index(tuple(idx[in_range].T), shape)
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    # Flat ids are nonnegative, so the prepended -1 opens the first group
    # without inventing one when nothing is in range.
    starts = np.flatnonzero(np.diff(flat_sorted, prepend=-1))
    counts = np.diff(starts, append=flat_sorted.size)
    sums = np.add.reduceat(cloud.features[in_range][order], starts, axis=0)
    return VoxelGrid(
        voxel_size=tuple(float(s) for s in size),
        range_min=tuple(float(v) for v in vmin),
        range_max=tuple(float(v) for v in range_max),
        voxels=np.stack(np.unravel_index(flat_sorted[starts], shape), axis=1),
        counts=counts,
        means=sums / counts[:, None],
    )


def bev_flatten(grid: VoxelGrid) -> np.ndarray:
    """(nx, ny, nz * d_f) map: z-layer k fills channel block [k*d_f, (k+1)*d_f).

    Empty voxels contribute zeros.
    """
    nx, ny, nz = grid.shape
    out = np.zeros((nx, ny, nz, grid.feature_dim), dtype=np.float64)
    ix, iy, iz = grid.voxels.T
    out[ix, iy, iz] = grid.means
    return out.reshape(nx, ny, nz * grid.feature_dim)
