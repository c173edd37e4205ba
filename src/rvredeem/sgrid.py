"""Dual-resolution RoI grid pooling over rotated boxes, plus the refine head.

Each proposal box is partitioned twice in its canonical frame: a fine
3x3x3 grid and a coarse 2x2x2 grid. Every grid point gathers nearby
keypoints with a ball query and pools them through a shared PointNet-style
MLP. The coarse branch is then upsampled to the 27 fine positions and each
fine grid point concatenates its own feature with the upsampled coarse one
(fine first). All geometry inside the pooling runs in the box's canonical
frame, so rigidly moving scene and boxes together cannot change the result
beyond floating-point noise.

Per-branch sampling radii default to half the cell diagonal of that
branch's grid, which makes neighboring grid-point balls touch without
gaps. The refinement head is a two-layer rectified trunk with separate
linear outputs: a sigmoid-squashed confidence and 7 box residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Box3D, FeaturePointCloud, SGridConfig, frozen_array
from .pointops import SharedMlp, ball_query, pointnet_aggregate
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

def canonical_transform(p, box: Box3D) -> np.ndarray:
    """World point(s) into the box frame: translate -center, rotate -yaw."""
    p = np.asarray(p, dtype=np.float64)
    shifted = p - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = np.empty_like(shifted)
    out[..., 0] = c * shifted[..., 0] + s * shifted[..., 1]
    out[..., 1] = -s * shifted[..., 0] + c * shifted[..., 1]
    out[..., 2] = shifted[..., 2]
    return out


def inverse_canonical_transform(p, box: Box3D) -> np.ndarray:
    """Box-frame point(s) back to world: rotate +yaw, translate +center."""
    p = np.asarray(p, dtype=np.float64)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = np.empty_like(p)
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2]
    return out + box.center


def _grid(dims, grid: int):
    """((3, G) per-axis levels, (G^3, 3) cell centers) of a G-partition."""
    if grid < 1:
        raise ValueError(f"grid size must be >= 1, got {grid}")
    steps = (np.arange(grid) + 0.5) / grid - 0.5
    levels = np.multiply.outer(np.asarray(dims, dtype=np.float64), steps)
    centers = np.empty((grid, grid, grid, 3))
    centers[..., 0] = levels[0]
    centers[..., 1] = levels[1][:, None]
    centers[..., 2] = levels[2][:, None, None]
    return levels, centers.reshape(-1, 3)


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
    """Per-axis (lo, hi) values; each axis must take exactly two values.

    Values and rejections are `np.unique`'s per axis: -0.0 and +0.0 are one
    value, all NaNs one more, sorted last (so hi is NaN if any is).
    """
    if coarse_positions.shape != (8, 3):
        raise ValueError(f"need 8 coarse positions, got {coarse_positions.shape}")
    lo = np.fmin.reduce(coarse_positions, axis=0)
    hi = coarse_positions.max(axis=0)
    on_level = (coarse_positions == lo) | (coarse_positions == hi) | np.isnan(coarse_positions)
    if not np.all(on_level.all(axis=0) & ~np.isnan(lo) & (lo != hi)):
        raise ValueError("coarse positions must span 2 levels per axis")
    return lo, hi


def upsample_grid(
    coarse: np.ndarray,
    coarse_positions: np.ndarray,
    fine_positions: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Interpolate 8 coarse per-point features at the fine positions.

    Trilinear interpolation in canonical coordinates with the coarse points
    as cell corners; positions outside the coarse hull are clamped onto it,
    so extrapolation never happens. "nearest" replicates the closest corner
    (lowest index on ties).
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    coarse_positions = np.asarray(coarse_positions, dtype=np.float64)
    fine_positions = np.asarray(fine_positions, dtype=np.float64)
    if coarse.ndim != 2 or coarse.shape[0] != 8:
        raise ValueError(f"coarse features must be (8, c), got {coarse.shape}")
    lo, hi = _corner_layout(coarse_positions)
    clamped = np.clip(fine_positions, lo, hi)
    if mode == "nearest":
        diff = clamped[:, None, :] - coarse_positions[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        return coarse[np.argmin(d2, axis=1)]
    if mode != "trilinear":
        raise ValueError(f"unknown upsample mode: {mode!r}")
    t = (clamped - lo) / (hi - lo)  # (n, 3) in [0, 1]
    side = coarse_positions > (lo + hi) / 2.0  # (8, 3) True at the hi level
    weights = np.ones((fine_positions.shape[0], 8), dtype=np.float64)
    for a in range(3):
        weights *= np.where(side[:, a][None, :], t[:, a][:, None], 1.0 - t[:, a][:, None])
    return weights @ coarse


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoIFeature:
    """Flattened per-box pooled feature plus per-grid-point emptiness flags.

    The vector is grid-point major: for each of the fine grid points, the
    fine-branch channels followed by the upsampled coarse channels.
    """

    vector: np.ndarray  # (G1^3 * (c_fine + c_coarse),)
    fine_empty: np.ndarray  # (G1^3,) bool
    coarse_empty: np.ndarray  # (G2^3,) bool

    def __post_init__(self):
        for name, dtype in (("vector", np.float64), ("fine_empty", bool), ("coarse_empty", bool)):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name), dtype))
        vec, fine, coarse = self.vector, self.fine_empty, self.coarse_empty
        if vec.ndim != 1 or fine.ndim != 1 or coarse.ndim != 1:
            raise ValueError("RoI feature arrays must be one-dimensional")
        if fine.size == 0 or vec.size % fine.size != 0:
            raise ValueError(
                f"vector length {vec.size} not divisible by {fine.size} grid points"
            )


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


def _pool_branch(
    canon_xyz: np.ndarray,
    features: np.ndarray,
    box: Box3D,
    grid: int,
    radius: float | None,
    cap: int,
    mlp: SharedMlp,
):
    """Pool every point of the box's G-grid; returns (grid points (n, 3),
    features (n, c), empty flags (n,)). A radius of None is `auto_radius`.

    A grid point is empty when its ball query finds no keypoint. Its feature
    row stays zero, which is what `pointnet_aggregate` pools from nothing,
    so the MLP runs only for grid points with neighbors: on proposals-512
    more than half of all grid points are empty.

    Each grid point queries only the candidates: keypoints whose squared
    offset on every axis, to the nearest grid level on that axis, is at most
    r*r. The cull is exact. A squared distance is (s0 + s1) + s2 of
    nonnegative terms, and rounding is monotone, so the computed sum is no
    smaller than any s_a; a keypoint in a ball therefore passes on every
    axis. Candidates keep ascending index order and the same per-point
    squared distances, so each neighbor list, its (distance, index) order
    and its truncation at `cap` equal those of a query over all keypoints.
    """
    levels, positions = _grid(box.dims, grid)
    radius = auto_radius(box, grid) if radius is None else radius
    cand = np.arange(canon_xyz.shape[0])
    for a in range(3):
        offset = canon_xyz[cand, a] - levels[a][:, None]
        cand = cand[(offset * offset).min(axis=0) <= radius * radius]
    cand_xyz = canon_xyz[cand]
    cand_feats = features[cand]
    feats = np.zeros((positions.shape[0], mlp.out_dim), dtype=np.float64)
    empty = np.ones(positions.shape[0], dtype=bool)
    for g, center in enumerate(positions):
        idx = ball_query(center, radius, cand_xyz, cap)
        if idx.size:
            empty[g] = False
            feats[g] = pointnet_aggregate(center, cand_xyz[idx], cand_feats[idx], mlp)
    return positions, feats, empty


def sgrid_pool(
    keypoints: FeaturePointCloud,
    boxes,
    cfg: SGridConfig,
    params: SGridParams,
) -> list[RoIFeature]:
    """Dual-grid RoI pooling; one RoIFeature per box.

    All neighbor geometry is evaluated in each box's canonical frame: the
    keypoint coordinates are transformed once per box, queried around the
    canonical grid positions, and encoded relative to those positions.
    Keypoint intensities are not used.
    """
    if params.mlp_fine.out_dim != cfg.fine_channels:
        raise ValueError("fine MLP output width disagrees with the config")
    if params.mlp_coarse.out_dim != cfg.coarse_channels:
        raise ValueError("coarse MLP output width disagrees with the config")
    branches = (
        (cfg.fine_grid, cfg.fine_radius, params.mlp_fine),
        (cfg.coarse_grid, cfg.coarse_radius, params.mlp_coarse),
    )
    out = []
    for box in boxes:
        canon_xyz = canonical_transform(keypoints.xyz, box)
        (fine_pos, fine_feats, fine_empty), (coarse_pos, coarse_feats, coarse_empty) = (
            _pool_branch(canon_xyz, keypoints.features, box, grid, radius, cfg.neighbor_cap, mlp)
            for grid, radius, mlp in branches
        )
        upsampled = upsample_grid(coarse_feats, coarse_pos, fine_pos, cfg.upsample_mode)
        vector = np.concatenate([fine_feats, upsampled], axis=1).ravel()
        out.append(RoIFeature(vector, fine_empty, coarse_empty))
    return out


# ---------------------------------------------------------------------------
# Refinement head
# ---------------------------------------------------------------------------

def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def refine_head_forward(vector: np.ndarray, params: SGridParams):
    """(confidence in [0, 1], 7 box residuals) from one pooled RoI vector."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (params.trunk.in_dim,):
        raise ValueError(
            f"head expects {params.trunk.in_dim} inputs, RoI vector has shape {vector.shape}"
        )
    hidden = params.trunk.apply(vector[:, None])[:, 0]
    conf = _sigmoid(float(params.w_conf[0] @ hidden + params.b_conf[0]))
    residuals = params.w_res @ hidden + params.b_res
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
