"""Dual-resolution RoI grid pooling over rotated boxes, plus the refine head.

Each proposal box is partitioned twice in its canonical frame: a fine
3x3x3 grid and a coarse 2x2x2 grid. Every grid point gathers the keypoints
in its ball, nearest first and at most `neighbor_cap`, and pools them
through a shared PointNet-style MLP. The coarse branch is then upsampled to
the 27 fine positions and each fine grid point concatenates its own feature
with the upsampled coarse one (fine first). All geometry inside the pooling
runs in the box's canonical frame, so rigidly moving scene and boxes
together cannot change the result beyond floating-point noise.
The result is one (B,) record array, so `rois.vector` is the (B, L)
array of all vectors and `rois[i].vector` is box i's.

The balls of all boxes come from one query over the scene, as in PV-RCNN's
RoI-grid pooling. A world-frame prefilter keeps the (box, keypoint) pairs
within reach of the box center: half the diagonal plus the larger radius,
widened by `_REACH_SLACK` and `_REACH_FLOOR`. It drops no hit: a hit is
within the radius of a grid point inside the box, and offset, rotation and
squared sums round by a few ulps relative to the reach, far below the
slack; the floor covers squares that underflow. Each grid point index then
serves all boxes at once. The kept pairs' canonical coordinates, squared
distances, (distance, keypoint index) order and cut at `neighbor_cap` are
those of a `ball_query` over all keypoints.

Per-branch sampling radii default to half the cell diagonal of that
branch's grid, which makes neighboring grid-point balls touch without
gaps. The refinement head is a two-layer rectified trunk with separate
linear outputs: a sigmoid-squashed confidence and 7 box residuals.

The pooling MLP, the upsample and the head take stacks on leading axes
and give each item the bytes of its own call: their weights and the sigmoid
are elementwise, and a stacked `np.matmul` makes, per neighborhood or box,
the BLAS call that one makes. One matrix product over all columns or boxes
would round by the kernel's blocks instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Box3D, FeaturePointCloud, SGridConfig, frozen_array
from .pointops import (
    SharedMlp,
    ball_query,  # noqa: F401 (unused here; the benchmark's tracer wraps this name)
    pointnet_aggregate,
)
from .rng import (
    STREAM_HEAD,
    STREAM_POOL_COARSE,
    STREAM_POOL_FINE,
    DetRng,
    derive_seed,
)
from .rvfe import init_dense

RESIDUAL_DIM = 7  # (cx, cy, cz, l, w, h, yaw) deltas


# ---------------------------------------------------------------------------
# Canonical box frame
# ---------------------------------------------------------------------------

def _rotate(shifted: np.ndarray, c, s) -> np.ndarray:
    """(..., 3) offsets rotated about z by -a, given c = cos(a) and
    s = sin(a) as floats or as arrays broadcast against shifted[..., 0]."""
    out = np.empty_like(shifted)
    out[..., 0] = c * shifted[..., 0] + s * shifted[..., 1]
    out[..., 1] = -s * shifted[..., 0] + c * shifted[..., 1]
    out[..., 2] = shifted[..., 2]
    return out


def canonical_transform(p, box: Box3D) -> np.ndarray:
    """World point(s) into the box frame: translate -center, rotate -yaw."""
    p = np.asarray(p, dtype=np.float64)
    return _rotate(p - box.center, math.cos(box.yaw), math.sin(box.yaw))


def inverse_canonical_transform(p, box: Box3D) -> np.ndarray:
    """Box-frame point(s) back to world: rotate +yaw, translate +center."""
    p = np.asarray(p, dtype=np.float64)
    return _rotate(p, math.cos(box.yaw), -math.sin(box.yaw)) + box.center


def _grid(dims, grid: int):
    """((..., 3, G) per-axis levels, (..., G^3, 3) cell centers) of the
    G-partitions of (..., 3) box dims."""
    if grid < 1:
        raise ValueError(f"grid size must be >= 1, got {grid}")
    steps = (np.arange(grid) + 0.5) / grid - 0.5
    levels = np.multiply.outer(np.asarray(dims, dtype=np.float64), steps)
    lead = levels.shape[:-2]
    centers = np.empty(lead + (grid, grid, grid, 3))
    centers[..., 0] = levels[..., 0, None, None, :]
    centers[..., 1] = levels[..., 1, None, :, None]
    centers[..., 2] = levels[..., 2, :, None, None]
    return levels, centers.reshape(lead + (-1, 3))


def grid_cell_centers(dims: np.ndarray, grid: int) -> np.ndarray:
    """(G^3, 3) canonical cell centers, x-fastest then y then z."""
    return _grid(dims, grid)[1]


def gen_grid_points(box: Box3D, grid: int) -> np.ndarray:
    """(G^3, 3) world-frame cell centers of the box's uniform partition."""
    return inverse_canonical_transform(grid_cell_centers(box.dims, grid), box)


def auto_radius(box: Box3D, grid: int) -> float:
    """Half the cell diagonal of a G-partition: balls cover the box gap-free."""
    return 0.5 * math.sqrt(
        (box.length / grid) ** 2 + (box.width / grid) ** 2 + (box.height / grid) ** 2
    )


# ---------------------------------------------------------------------------
# Upsampling
# ---------------------------------------------------------------------------

def _corner_layout(coarse_positions: np.ndarray):
    """(lo, hi), (..., 3) each, of (..., 8, 3) corners; each axis takes two values.

    Values and rejections are `np.unique`'s per axis: -0.0 and +0.0 are one
    value, all NaNs one more, sorted last (so hi is NaN if any is).
    """
    if coarse_positions.shape[-2:] != (8, 3):
        raise ValueError(f"need 8 coarse positions, got {coarse_positions.shape}")
    lo = np.fmin.reduce(coarse_positions, axis=-2)
    hi = coarse_positions.max(axis=-2)
    on_level = np.isnan(coarse_positions) | (coarse_positions == lo[..., None, :])
    on_level |= coarse_positions == hi[..., None, :]
    if not np.all(on_level.all(axis=-2) & ~np.isnan(lo) & (lo != hi)):
        raise ValueError("coarse positions must span 2 levels per axis")
    return lo, hi


def upsample_grid(
    coarse: np.ndarray,
    coarse_positions: np.ndarray,
    fine_positions: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Interpolate 8 coarse per-point features at the fine positions.

    Leading axes are boxes, each with its own call's bytes (module
    docstring): (..., 8, c) features at (..., 8, 3) corners give (..., n, c)
    at (..., n, 3) positions. Trilinear interpolation in canonical
    coordinates with the coarse points as cell corners; positions outside
    the coarse hull are clamped onto it, so extrapolation never happens.
    "nearest" replicates the closest corner (lowest index on ties).
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    coarse_positions = np.asarray(coarse_positions, dtype=np.float64)
    fine_positions = np.asarray(fine_positions, dtype=np.float64)
    if coarse.ndim < 2 or coarse.shape[-2] != 8:
        raise ValueError(f"coarse features must be (..., 8, c), got {coarse.shape}")
    lo, hi = (v[..., None, :] for v in _corner_layout(coarse_positions))
    clamped = np.clip(fine_positions, lo, hi)
    if mode == "nearest":
        diff = clamped[..., :, None, :] - coarse_positions[..., None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        return np.take_along_axis(coarse, np.argmin(d2, axis=-1)[..., None], axis=-2)
    if mode != "trilinear":
        raise ValueError(f"unknown upsample mode: {mode!r}")
    t = ((clamped - lo) / (hi - lo))[..., None, :]  # (..., n, 1, 3) in [0, 1]
    side = (coarse_positions > (lo + hi) / 2.0)[..., None, :, :]  # True at the hi level
    w = np.where(side, t, 1.0 - t)  # (..., n, 8, 3)
    return ((w[..., 0] * w[..., 1]) * w[..., 2]) @ coarse


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SGridParams:
    """Learnable tensors for pooling and refinement.

    Kept separate from SGridConfig (plain numbers loaded from text) so
    configs stay comparable and parameters stay serializable.
    """

    mlp_fine: SharedMlp
    mlp_coarse: SharedMlp
    trunk: SharedMlp
    w_conf: np.ndarray  # (1, d_h)
    b_conf: np.ndarray  # (1,)
    w_res: np.ndarray  # (7, d_h)
    b_res: np.ndarray  # (7,)

    def __post_init__(self):
        for name in ("w_conf", "b_conf", "w_res", "b_res"):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name)))
        d_h = self.trunk.out_dim
        if self.w_conf.shape != (1, d_h) or self.b_conf.shape != (1,):
            raise ValueError("confidence branch must map trunk output to a scalar")
        if self.w_res.shape != (RESIDUAL_DIM, d_h) or self.b_res.shape != (RESIDUAL_DIM,):
            raise ValueError(f"residual branch must be ({RESIDUAL_DIM}, {d_h})")


# Widening of the pair prefilter's reach, relative then absolute (module docstring).
_REACH_SLACK = 1e-9
_REACH_FLOOR = 1e-150


def _near_pairs(xyz: np.ndarray, boxes: list[Box3D], reach: np.ndarray):
    """(box, keypoint, canonical coordinates) of each pair within reach.

    Each box takes a window of the keypoints sorted on x, its edges one ulp
    beyond their rounded values, and keeps the offsets p - center whose
    squared length is at most reach^2. Only those are rotated. The windows
    are tested a run of boxes at a time, each run's windows holding at most
    about twice as many pairs as there are keypoints, so besides the kept
    pairs no more than that is held at once, however wide the windows are.
    """
    centers = np.array([box.center for box in boxes])
    order = np.argsort(xyz[:, 0], kind="stable")
    values = xyz[order, 0]
    lo = np.searchsorted(values, np.nextafter(centers[:, 0] - reach, -np.inf))
    hi = np.searchsorted(values, np.nextafter(centers[:, 0] + reach, np.inf), "right")
    counts = hi - lo
    start = np.cumsum(counts) - counts
    # A run starts at each box whose window starts a new block of len(xyz) pairs.
    runs = np.flatnonzero(np.diff(start // max(len(xyz), 1), prepend=-1))
    owner, kp, shifted = [], [], []
    for a, e in zip(runs.tolist(), runs[1:].tolist() + [len(boxes)]):
        n = counts[a:e]
        run_owner = np.repeat(np.arange(a, e), n)
        # Pair j of the window of box b is keypoint order[lo[b] + j - start[b]].
        run_kp = order[start[a] + np.arange(run_owner.size) + np.repeat(lo[a:e] - start[a:e], n)]
        run_shifted = xyz[run_kp] - centers[run_owner]
        sq = run_shifted * run_shifted
        near = (sq[:, 0] + sq[:, 1]) + sq[:, 2] <= (reach * reach)[run_owner]
        owner.append(run_owner[near])
        kp.append(run_kp[near])
        shifted.append(run_shifted[near])
    owner, kp = np.concatenate(owner), np.concatenate(kp)
    cos = np.array([math.cos(box.yaw) for box in boxes])
    sin = np.array([math.sin(box.yaw) for box in boxes])
    return owner, kp, _rotate(np.concatenate(shifted), cos[owner], sin[owner])


def _pool_grids(owner, kp, canon, features, dims, grid: int, radii, cap: int, mlp):
    """(grid points (B, G^3, 3), features (B, G^3, c), empty flags (B, G^3))
    of one branch over all B boxes, from the pairs `_near_pairs` keeps.

    Grid point g of every box at once: each pair's squared distance to it is
    (dx^2 + dy^2) + dz^2 of the offsets to its box's grid levels,
    `ball_query`'s sum. One lexsort orders the hits by (box, distance,
    keypoint index), and each box keeps its first `cap`. The boxes whose
    lists have the same size k are pooled by one `pointnet_aggregate` call
    on their gathered (m, k) rows, each with its own call's bytes (module
    docstring). A box with no hit keeps a zero row, what
    `pointnet_aggregate` pools from nothing, and its empty flag. Working
    memory grows with the pairs, not with the pairs times G^3.
    """
    levels, positions = _grid(dims, grid)
    off = canon[:, :, None] - levels[owner]
    off *= off
    r2 = (radii * radii)[owner]
    feats = np.zeros(positions.shape[:2] + (mlp.out_dim,))
    empty = np.ones(positions.shape[:2], dtype=bool)
    for g, (iz, iy, ix) in enumerate(np.ndindex(grid, grid, grid)):
        d2 = (off[:, 0, ix] + off[:, 1, iy]) + off[:, 2, iz]
        hit = np.flatnonzero(d2 <= r2)
        hit = hit[np.lexsort((kp[hit], d2[hit], owner[hit]))]
        first = np.flatnonzero(np.diff(owner[hit], prepend=-1))
        size = np.minimum(np.diff(first, append=hit.size), cap)
        for k in np.flatnonzero(np.bincount(size)).tolist():
            at = hit[first[size == k][:, None] + np.arange(k)]  # (m, k) pairs
            box = owner[at[:, 0]]
            feats[box, g] = pointnet_aggregate(positions[box, g], canon[at], features[kp[at]], mlp)
        empty[owner[hit[first]], g] = False
    return positions, feats, empty


def sgrid_pool(
    keypoints: FeaturePointCloud,
    boxes,
    cfg: SGridConfig,
    params: SGridParams,
) -> np.recarray:
    """Dual-grid RoI pooling (module docstring), one record per box;
    keypoint intensities are not used.

    Record i holds box i's `vector` (L,) float64, grid-point major: for
    each fine grid point its fine channels, then the upsampled coarse
    ones; and its `fine_empty` (G1^3,) and `coarse_empty` (G2^3,) flags.
    The records are a fresh writable array; `formats.write_rrf1` refuses
    vectors that are not finite.
    """
    mlps, enc = (params.mlp_fine, params.mlp_coarse), 3 + keypoints.feature_dim
    for name, mlp, out in zip(("fine", "coarse"), mlps, (cfg.fine_channels, cfg.coarse_channels)):
        if (mlp.in_dim, mlp.out_dim) != (enc, out):
            raise ValueError(f"{name} MLP maps {mlp.in_dim} -> {mlp.out_dim} channels, but the "
                             f"keypoints and the config need {enc} -> {out}")
    dtype = np.dtype([("vector", np.float64, (cfg.roi_feature_length,)),
                      ("fine_empty", bool, (cfg.fine_grid**3,)),
                      ("coarse_empty", bool, (cfg.coarse_grid**3,))], align=True)
    boxes = list(boxes)
    if not boxes:
        return np.recarray(0, dtype)
    grids = (cfg.fine_grid, cfg.coarse_grid)
    radii = [
        np.array([auto_radius(box, grid) if radius is None else radius for box in boxes])
        for grid, radius in zip(grids, (cfg.fine_radius, cfg.coarse_radius))
    ]
    # auto_radius of a 1-grid is half the box diagonal.
    reach = np.array([auto_radius(box, 1) for box in boxes]) + np.maximum(*radii)
    pairs = _near_pairs(keypoints.xyz, boxes, reach * (1.0 + _REACH_SLACK) + _REACH_FLOOR)
    dims = np.array([box.dims for box in boxes])
    (fine_pos, fine, fine_empty), (coarse_pos, coarse, coarse_empty) = (
        _pool_grids(*pairs, keypoints.features, dims, grid, r, cfg.neighbor_cap, mlp)
        for grid, r, mlp in zip(grids, radii, mlps)
    )
    upsampled = upsample_grid(coarse, coarse_pos, fine_pos, cfg.upsample_mode)
    rois = np.recarray(len(boxes), dtype)
    # Each record's vector is contiguous, so this reshape is a view of it.
    cells = rois.vector.reshape(fine.shape[:2] + (-1,))
    cells[..., :cfg.fine_channels] = fine
    cells[..., cfg.fine_channels:] = upsampled
    rois.fine_empty, rois.coarse_empty = fine_empty, coarse_empty
    return rois


# ---------------------------------------------------------------------------
# Refinement head
# ---------------------------------------------------------------------------

def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def refine_head_forward(vectors: np.ndarray, params: SGridParams):
    """(confidences in [0, 1], 7 box residuals each) of (..., L) RoI vectors, shaped (...)
    and (..., 7); leading axes are boxes, each with its own call's bytes (module docstring)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1:] != (params.trunk.in_dim,):
        raise ValueError(f"head expects {params.trunk.in_dim} inputs, got shape {vectors.shape}")
    hidden = params.trunk.apply(vectors[..., None])
    logits = np.matmul(params.w_conf[0], hidden)[..., 0] + params.b_conf[0]
    conf = np.array([_sigmoid(z) for z in logits.ravel().tolist()]).reshape(logits.shape)
    residuals = np.matmul(params.w_res, hidden)[..., 0] + params.b_res
    return conf, residuals


# ---------------------------------------------------------------------------
# Deterministic initialization
# ---------------------------------------------------------------------------

def _mlp_init(rng: DetRng, widths) -> SharedMlp:
    layers = (init_dense(rng, n_out, n_in) for n_in, n_out in zip(widths, widths[1:]))
    return SharedMlp(layers=tuple(layers))


def init_sgrid_params(seed: int, cfg: SGridConfig, point_feature_dim: int) -> SGridParams:
    """Deterministic pooling and head parameters; same seed, same bits.

    Values are single-precision representable so a 32-bit weights file
    round-trips exactly.
    """
    if point_feature_dim < 0:
        raise ValueError("point feature dim must be nonnegative")
    enc = 3 + point_feature_dim
    rng_fine = DetRng(derive_seed(seed, STREAM_POOL_FINE))
    rng_coarse = DetRng(derive_seed(seed, STREAM_POOL_COARSE))
    rng_head = DetRng(derive_seed(seed, STREAM_HEAD))
    mlp_fine = _mlp_init(rng_fine, (enc, cfg.pool_hidden, cfg.fine_channels))
    mlp_coarse = _mlp_init(rng_coarse, (enc, cfg.pool_hidden, cfg.coarse_channels))
    trunk = _mlp_init(
        rng_head, (cfg.roi_feature_length, cfg.head_hidden, cfg.head_hidden)
    )
    w_conf, b_conf = init_dense(rng_head, 1, cfg.head_hidden)
    w_res, b_res = init_dense(rng_head, RESIDUAL_DIM, cfg.head_hidden)
    return SGridParams(mlp_fine, mlp_coarse, trunk, w_conf, b_conf, w_res, b_res)
