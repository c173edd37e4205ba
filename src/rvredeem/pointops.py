"""Point-set primitives: sampling, neighborhoods, voxel grids, BEV maps.

All operations are pure and deterministic. Ties are broken by the lowest
point index everywhere, and every distance comparison uses squared
Euclidean distance, so ordering never depends on square-root rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import FeaturePointCloud, frozen_array, grid_shape

logger = logging.getLogger(__name__)

# Largest group NumPy's pairwise sum adds one term at a time (its 8-term block).
_SEQUENTIAL_SUM_MAX = 8


def _coordinates(xyz) -> np.ndarray:
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"coordinates must be (N, 3), got {xyz.shape}")
    return xyz


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
        shape = self.shape  # grid_shape checks the geometry and the cell count
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


# Furthest point sampling cuts every cloud into buckets of _FPS_BUCKET
# consecutive points. Skipping far buckets costs about 20 NumPy calls a
# step, updating every point 7, so clouds below _FPS_SKIP_MIN buckets
# (13,312 points) update every point; README "Point ops" has the timings.
_FPS_BUCKET = 64
_FPS_SKIP_MIN = 208


def furthest_point_sampling(xyz, count: int, seed_index: int = 0) -> np.ndarray:
    """Greedy max-min downsampling of (N, 3) coordinates to `count` indices.

    Starts at seed_index; each step picks the point whose squared distance
    to the selected set is largest, lowest index on ties (argmax returns the
    first maximum). Asking for C >= N returns all N indices in selection
    order, and an empty cloud an empty index. The result is an int64 index
    array into `xyz`.

    Every squared distance is (dx^2 + dy^2) + dz^2, the additions, in the
    same order, of the (N, 3) row sum that `ball_query` uses, so every
    distance and every pick are bit for bit that formula's.

    The points are held as (3, buckets, _FPS_BUCKET) and their running
    minima as (buckets, _FPS_BUCKET). Copies of the last point pad the last
    bucket; they leave its box as it is and, held at -1 like chosen points,
    are never picked. Below _FPS_SKIP_MIN buckets a step updates every
    point. From there on a step bounds the squared distance to each
    bucket's axis-aligned box from below, per axis the gap or zero, in the
    same order; rounding is monotone, so a bucket whose bound is not below
    its largest minimum cannot change and is skipped. Either way the pick
    is the lowest index holding the largest minimum.
    """
    xyz = _coordinates(xyz)
    n = xyz.shape[0]
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not (0 <= seed_index < n):
        raise ValueError(f"seed_index {seed_index} outside [0, {n})")
    buckets = -(-n // _FPS_BUCKET)
    padded = np.concatenate([xyz, np.repeat(xyz[-1:], buckets * _FPS_BUCKET - n, axis=0)])
    pts = np.ascontiguousarray(padded.T).reshape(3, buckets, _FPS_BUCKET)
    every_point = buckets < _FPS_SKIP_MIN
    if not every_point:
        # lo - p and p - hi as lo + (-p) and (-hi) + p, the same roundings,
        # in one addition per step.
        box = np.stack([pts.min(axis=2), -pts.max(axis=2)])
        signed = np.stack([-xyz, xyz], axis=1)[..., None]
        gaps = np.empty_like(box)
        gap = gaps[0]
    # Keep this allocation order: on the scan workload, `top` ahead of the
    # box arrays or `best` after them raised peak RSS by 2-6 MB.
    best = np.full((buckets, _FPS_BUCKET), np.inf)
    flat_best = best.reshape(-1)
    flat_best[n:] = -1.0
    top = np.full(buckets, np.inf)
    chosen = np.empty(min(count, n), dtype=np.int64)
    chosen[0] = last = seed_index
    if every_point:
        d = np.empty_like(pts)
        dx, dy, dz = d
        for step in range(1, chosen.size):
            np.subtract(pts, xyz[last, :, None, None], out=d)
            d *= d
            np.add(dx, dy, out=dx)
            dx += dz
            np.minimum(best, dx, out=best)
            flat_best[last] = -1.0  # never reselect
            chosen[step] = last = int(flat_best.argmax())
        return chosen
    for step in range(1, chosen.size):
        np.add(box, signed[last], out=gaps)
        np.maximum(gap, gaps[1], out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = gap[0] + gap[1]
        bound += gap[2]
        near = (bound < top).nonzero()[0]
        d = pts.take(near, axis=1)
        d -= signed[last, 1, :, :, None]
        d *= d
        d2 = d[0] + d[1]
        d2 += d[2]
        np.minimum(d2, best.take(near, axis=0), out=d2)
        best[near] = d2
        top[near] = d2.max(axis=1)
        flat_best[last] = -1.0  # never reselect
        b = last // _FPS_BUCKET
        top[b] = best[b].max()
        b = int(top.argmax())
        last = b * _FPS_BUCKET + int(best[b].argmax())
        chosen[step] = last
    return chosen


def ball_query(center, radius: float, xyz, max_k: int) -> np.ndarray:
    """Indices into (N, 3) `xyz` within distance radius, nearest first, capped.

    Comparison is on squared distances, the row sums (dx^2 + dy^2) + dz^2.
    `nonzero` lists hits by ascending index, and a stable sort by distance
    keeps that order among ties: the order is (distance, index), so the int64
    result is truncated at max_k deterministically.
    """
    if not radius >= 0.0:  # also rejects NaN
        raise ValueError(f"radius must be >= 0, got {radius}")
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    diff = _coordinates(xyz) - np.asarray(center, dtype=np.float64).reshape(3)
    diff *= diff
    d2 = np.add.reduce(diff, axis=1)
    hits = (d2 <= radius * radius).nonzero()[0]
    return hits[d2[hits].argsort(kind="stable")[:max_k]]


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
        """Run the stack on (..., in_dim, n) column data; `columns` is not written.

        Each layer adds its bias and rectifies in place on the fresh product.
        """
        out = columns
        for weight, bias in self.layers:
            out = weight @ out
            out += bias[:, None]
            np.maximum(out, 0.0, out=out)
        return out


def pointnet_aggregate(
    center: np.ndarray,
    neighbor_xyz: np.ndarray,
    neighbor_features: np.ndarray,
    mlp: SharedMlp,
) -> np.ndarray:
    """Max-pooled local feature, (..., mlp.out_dim); all zero with no neighbors.

    Leading axes are neighborhoods of one size k: (..., 3) centers,
    (..., k, 3) neighbors and (..., k, d) features. Each neighbor is encoded
    as concat(xyz - center, features), pushed through the shared MLP, then
    reduced by channel-wise max. A neighborhood's (3 + d, k) encoding is laid
    out as in its own call, so the stacked matmul of `SharedMlp.apply` makes
    the BLAS call that one call makes, and the bytes are that call's. The
    max starts from +0.0 (`initial=0.0`), which changes no value: every
    rectified MLP output is >= +0.0, and a -0.0 output would need a -0.0
    bias, which `init_dense` never emits. So an empty neighbor list takes
    the same path and pools to zeros; callers that need emptiness take it
    from the query.
    """
    center = np.asarray(center, dtype=np.float64)
    xyz = np.asarray(neighbor_xyz, dtype=np.float64)
    feats = np.asarray(neighbor_features, dtype=np.float64)
    if center.shape[-1:] != (3,) or xyz.ndim < 2 or xyz.shape[:-2] + xyz.shape[-1:] != center.shape:
        raise ValueError(f"need (..., 3) centers and (..., k, 3) neighbors, got {center.shape} "
                         f"and {xyz.shape}")
    if feats.shape[:-1] != xyz.shape[:-1]:
        raise ValueError(f"features must be {xyz.shape[:-1]} + (d,), got {feats.shape}")
    encoded = np.concatenate([xyz - center[..., None, :], feats], axis=-1)
    if encoded.shape[-1] != mlp.in_dim:
        raise ValueError(f"MLP expects {mlp.in_dim} inputs, encoding has {encoded.shape[-1]}")
    return mlp.apply(np.swapaxes(encoded, -1, -2)).max(axis=-1, initial=0.0)


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
    The range test is on the quotient q itself (0 <= q < n is 0 <= floor(q)
    < n for a whole n), so only in-range quotients are cast to int64, and a
    point however far out cannot overflow the cast.
    """
    size = np.asarray(voxel_size, dtype=np.float64)
    vmin = np.asarray(range_min, dtype=np.float64)
    shape = grid_shape(voxel_size, range_min, range_max)
    cells = (cloud.xyz - vmin) / size
    in_range = np.all((cells >= 0.0) & (cells < np.asarray(shape)), axis=1)
    idx = np.floor(cells[in_range]).astype(np.int64)
    dropped = int(len(cloud) - np.sum(in_range))
    if dropped:
        logger.info("voxelize: %d point(s) outside the grid range", dropped)

    # Group by flattened voxel id with a stable sort, so each group's rows
    # follow ascending point index. The sums keep `np.add.reduceat`'s bytes,
    # which a test pins: it adds a group's first row to NumPy's pairwise sum
    # of the rest, and below 8 terms that sum runs in order from -0.0. So a
    # voxel of at most 8 points adds its rows of rank 1..7 into -0.0, then
    # its first row; -0.0 + x is x for every x, signed zeros included, where
    # +0.0 would turn two -0.0 rows into +0.0. Larger voxels keep reduceat.
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    # Flat ids are nonnegative, so the prepended -1 opens the first group
    # without inventing one when nothing is in range.
    starts = np.flatnonzero(np.diff(flat_sorted, prepend=-1))
    counts = np.diff(starts, append=flat_sorted.size)
    feats = cloud.features[np.flatnonzero(in_range)[order]]
    sums = np.full((starts.size, feats.shape[1]), -0.0)
    for k in range(1, _SEQUENTIAL_SUM_MAX):
        at = np.flatnonzero((counts > k) & (counts <= _SEQUENTIAL_SUM_MAX))
        sums[at] += feats[starts[at] + k]
    sums += feats[starts]
    big = counts > _SEQUENTIAL_SUM_MAX
    if big.any():
        firsts = np.cumsum(counts[big]) - counts[big]
        sums[big] = np.add.reduceat(feats[np.repeat(big, counts)], firsts, axis=0)
    sums /= counts[:, None]
    return VoxelGrid(
        voxel_size=tuple(float(s) for s in size),
        range_min=tuple(float(v) for v in vmin),
        range_max=tuple(float(v) for v in range_max),
        voxels=np.stack(np.unravel_index(flat_sorted[starts], shape), axis=1),
        counts=counts,
        means=sums,
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
