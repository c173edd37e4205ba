"""Canonical frames, grid generation, dual-grid pooling, refinement head."""

import math

import numpy as np
import pytest

import oracles
from rvredeem.core import Box3D, FeaturePointCloud, SGridConfig
from rvredeem.pointops import SharedMlp, pointnet_aggregate
from rvredeem.sgrid import (
    RoIFeature,
    SGridParams,
    auto_radius,
    canonical_transform,
    gen_grid_points,
    grid_cell_centers,
    init_sgrid_params,
    inverse_canonical_transform,
    refine_head_forward,
    sgrid_pool,
    upsample_grid,
)


def pool_all_keypoints(kps, box, cfg, params):
    """(vector, fine flags, coarse flags) of one box, every query over all keypoints."""
    canon = canonical_transform(kps.xyz, box)
    fine_pos = grid_cell_centers(box.dims, cfg.fine_grid)
    coarse_pos = grid_cell_centers(box.dims, cfg.coarse_grid)
    branches = []
    for pos, radius, grid, mlp in (
        (fine_pos, cfg.fine_radius, cfg.fine_grid, params.mlp_fine),
        (coarse_pos, cfg.coarse_radius, cfg.coarse_grid, params.mlp_coarse),
    ):
        radius = auto_radius(box, grid) if radius is None else radius
        branches.append(oracles.pool_branch_all_keypoints(
            canon, kps.features, pos, radius, cfg.neighbor_cap, mlp.layers
        ))
    (fine, fine_empty), (coarse, coarse_empty) = branches
    upsampled = upsample_grid(coarse, coarse_pos, fine_pos, mode=cfg.upsample_mode)
    vector = np.concatenate([fine, upsampled], axis=1).ravel()
    return vector, fine_empty, coarse_empty


def assert_pool_matches_all_keypoints(kps, boxes, cfg, params):
    rois = sgrid_pool(kps, boxes, cfg, params)
    assert len(rois) == len(boxes)
    for roi, box in zip(rois, boxes):
        vector, fine_empty, coarse_empty = pool_all_keypoints(kps, box, cfg, params)
        assert roi.vector.tobytes() == vector.tobytes()
        np.testing.assert_array_equal(roi.fine_empty, fine_empty)
        np.testing.assert_array_equal(roi.coarse_empty, coarse_empty)
    return rois


def random_keypoints(rng, n, d_f=4, scale=6.0) -> FeaturePointCloud:
    return FeaturePointCloud(
        rng.uniform(-scale, scale, size=(n, 3)),
        np.zeros(n),
        rng.normal(size=(n, d_f)),
    )


def rotate_z(xyz, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return xyz @ rot.T


SMALL_CFG = SGridConfig(
    fine_radius=1.0,
    coarse_radius=2.0,
    neighbor_cap=8,
    pool_hidden=6,
    fine_channels=5,
    coarse_channels=4,
    head_hidden=8,
)


class TestCanonicalTransform:
    def test_center_maps_to_origin(self):
        box = Box3D(1.0, -2.0, 3.0, 4.0, 2.0, 1.5, 0.7)
        np.testing.assert_allclose(
            canonical_transform(box.center, box), [0.0, 0.0, 0.0], atol=1e-15
        )

    def test_zero_yaw_is_pure_translation(self):
        box = Box3D(1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0)
        out = canonical_transform([5.0, 5.0, 5.0], box)
        np.testing.assert_array_equal(out, [4.0, 3.0, 2.0])

    def test_round_trip(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            box = Box3D(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3),
                        float(rng.uniform(-math.pi, math.pi)))
            p = rng.uniform(-10, 10, size=(7, 3))
            back = inverse_canonical_transform(canonical_transform(p, box), box)
            np.testing.assert_allclose(back, p, atol=1e-12)


class TestGenGridPoints:
    def test_unit_cube_coarse_centers(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0.0)
        pts = gen_grid_points(box, 2)
        assert pts.shape == (8, 3)
        # x-fastest ordering: x flips first, then y, then z.
        expected = [
            (-0.25, -0.25, -0.25), (0.25, -0.25, -0.25),
            (-0.25, 0.25, -0.25), (0.25, 0.25, -0.25),
            (-0.25, -0.25, 0.25), (0.25, -0.25, 0.25),
            (-0.25, 0.25, 0.25), (0.25, 0.25, 0.25),
        ]
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_fine_grid_contains_exact_center(self):
        box = Box3D(2.0, -1.0, 0.5, 3.0, 2.0, 1.0, 1.1)
        pts = gen_grid_points(box, 3)
        assert pts.shape == (27, 3)
        np.testing.assert_allclose(pts[13], box.center, atol=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dims = rng.uniform(0.5, 4, 3)
            yaw = float(rng.uniform(-math.pi, math.pi))
            alpha = float(rng.uniform(-math.pi, math.pi))
            base = Box3D(0, 0, 0, *dims, yaw)
            spun = Box3D(0, 0, 0, *dims, yaw + alpha)
            np.testing.assert_allclose(
                gen_grid_points(spun, 3),
                rotate_z(gen_grid_points(base, 3), alpha),
                atol=1e-12,
            )

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            grid_cell_centers(np.ones(3), 0)


class TestAutoRadius:
    def test_half_cell_diagonal(self):
        box = Box3D(0, 0, 0, 2.0, 1.0, 0.5, 0.0)
        # Cells of the 2-grid are (1.0, 0.5, 0.25).
        expected = 0.5 * math.sqrt(1.0 + 0.25 + 0.0625)
        assert auto_radius(box, 2) == pytest.approx(expected, rel=1e-15)


def cube_corners():
    return grid_cell_centers(np.array([1.0, 1.0, 1.0]), 2)


class TestUpsampleGrid:
    def test_constant_field(self):
        coarse = np.full((8, 3), 2.5)
        fine = grid_cell_centers(np.ones(3), 3)
        out = upsample_grid(coarse, cube_corners(), fine, mode="trilinear")
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_corner_positions_exact(self):
        rng = np.random.default_rng(22)
        coarse = rng.normal(size=(8, 2))
        corners = cube_corners()
        out = upsample_grid(coarse, corners, corners, mode="trilinear")
        np.testing.assert_array_equal(out, coarse)

    def test_linear_field_exact_inside_hull(self):
        rng = np.random.default_rng(23)
        corners = cube_corners()
        coeff = rng.normal(size=3)
        offset = 0.3
        coarse = (corners @ coeff + offset)[:, None]
        inside = rng.uniform(-0.25, 0.25, size=(40, 3))
        out = upsample_grid(coarse, corners, inside, mode="trilinear")
        expected = (inside @ coeff + offset)[:, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_outside_positions_clamp_to_hull(self):
        rng = np.random.default_rng(24)
        corners = cube_corners()
        coarse = rng.normal(size=(8, 1))
        beyond = np.array([[5.0, 5.0, 5.0]])
        at_corner = np.array([[0.25, 0.25, 0.25]])
        np.testing.assert_array_equal(
            upsample_grid(coarse, corners, beyond, mode="trilinear"),
            upsample_grid(coarse, corners, at_corner, mode="trilinear"),
        )

    def test_matches_weight_oracle(self):
        rng = np.random.default_rng(25)
        corners = cube_corners()
        coarse = rng.normal(size=(8, 3))
        positions = rng.uniform(-0.25, 0.25, size=(30, 3))
        out = upsample_grid(coarse, corners, positions, mode="trilinear")
        for i, p in enumerate(positions):
            w = oracles.trilinear_weights(p, corners)
            np.testing.assert_allclose(out[i], w @ coarse, atol=1e-12)

    def test_nearest_mode_replicates_closest_corner(self):
        rng = np.random.default_rng(26)
        coarse = rng.normal(size=(8, 2))
        corners = cube_corners()
        near_first = np.array([[-0.2, -0.24, -0.21]])
        out = upsample_grid(coarse, corners, near_first, mode="nearest")
        np.testing.assert_array_equal(out[0], coarse[0])

    def test_rejects_degenerate_corners(self):
        flat = np.zeros((8, 3))
        with pytest.raises(ValueError):
            upsample_grid(np.zeros((8, 1)), flat, np.zeros((1, 3)), mode="trilinear")


class TestRoIFeature:
    def test_rejects_nan_vector(self):
        vector = np.ones(4)
        vector[3] = np.nan
        with pytest.raises(ValueError, match="vector must be finite"):
            RoIFeature(vector, np.zeros(2, dtype=bool), np.zeros(1, dtype=bool))


class TestSgridPool:
    def test_grid_counts_and_vector_length(self):
        rng = np.random.default_rng(27)
        kps = random_keypoints(rng, 50)
        params = init_sgrid_params(0, SMALL_CFG, 4)
        box = Box3D(0, 0, 0, 3.0, 2.0, 1.5, 0.4)
        (roi,) = sgrid_pool(kps, [box], SMALL_CFG, params)
        assert roi.fine_empty.size == 27
        assert roi.coarse_empty.size == 8
        assert roi.vector.size == 27 * (5 + 4)

    def test_zero_keypoints_all_flagged(self):
        kps = FeaturePointCloud(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 4)))
        params = init_sgrid_params(1, SMALL_CFG, 4)
        (roi,) = sgrid_pool(kps, [Box3D(0, 0, 0, 2, 2, 2, 0.0)], SMALL_CFG, params)
        assert not roi.vector.any()
        assert roi.fine_empty.all()
        assert roi.coarse_empty.all()

    def test_single_center_keypoint_compositional(self):
        # One keypoint at the box center. Recompose the expected output from
        # the primitive ops directly.
        params = init_sgrid_params(2, SMALL_CFG, 2)
        box = Box3D(1.0, 2.0, -0.5, 2.0, 2.0, 2.0, 0.8)
        feature = np.array([[0.7, -0.3]])
        kps = FeaturePointCloud(box.center[None, :], np.zeros(1), feature)
        (roi,) = sgrid_pool(kps, [box], SMALL_CFG, params)

        canon = canonical_transform(kps.xyz, box)
        fine_pos = grid_cell_centers(box.dims, 3)
        coarse_pos = grid_cell_centers(box.dims, 2)
        fine = np.empty((27, 5))
        fine_empty = np.empty(27, dtype=bool)
        for g in range(27):
            d2 = float(np.sum((canon[0] - fine_pos[g]) ** 2))
            if d2 <= SMALL_CFG.fine_radius**2:
                fine[g] = pointnet_aggregate(
                    fine_pos[g], canon, feature, params.mlp_fine
                )
            else:
                fine[g] = pointnet_aggregate(
                    fine_pos[g], np.zeros((0, 3)), np.zeros((0, 2)), params.mlp_fine
                )
            fine_empty[g] = d2 > SMALL_CFG.fine_radius**2
        coarse = np.empty((8, 4))
        for g in range(8):
            coarse[g] = pointnet_aggregate(
                coarse_pos[g], canon, feature, params.mlp_coarse
            )
        upsampled = upsample_grid(coarse, coarse_pos, fine_pos, mode="trilinear")
        expected = np.concatenate([fine, upsampled], axis=1).ravel()
        np.testing.assert_array_equal(roi.vector, expected)
        np.testing.assert_array_equal(roi.fine_empty, fine_empty)
        assert not roi.coarse_empty.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_rigid_transform_equivariance(self, seed):
        rng = np.random.default_rng(400 + seed)
        kps = random_keypoints(rng, 80)
        cfg = SGridConfig(
            neighbor_cap=8, pool_hidden=6, fine_channels=5,
            coarse_channels=4, head_hidden=8,
        )  # auto radii
        params = init_sgrid_params(3, cfg, 4)
        boxes = [
            Box3D(*rng.uniform(-3, 3, 3), *rng.uniform(0.8, 3, 3),
                  float(rng.uniform(-math.pi, math.pi)))
            for _ in range(3)
        ]
        alpha = float(rng.uniform(-math.pi, math.pi))
        shift = rng.uniform(-20, 20, 3)
        moved_kps = FeaturePointCloud(
            rotate_z(kps.xyz, alpha) + shift, kps.intensity, kps.features
        )
        moved_boxes = [
            Box3D(*(rotate_z(b.center, alpha) + shift), b.length, b.width,
                  b.height, b.yaw + alpha)
            for b in boxes
        ]
        base = sgrid_pool(kps, boxes, cfg, params)
        moved = sgrid_pool(moved_kps, moved_boxes, cfg, params)
        for a, b in zip(base, moved):
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-6)
            np.testing.assert_array_equal(a.fine_empty, b.fine_empty)
            np.testing.assert_array_equal(a.coarse_empty, b.coarse_empty)

    def test_far_keypoints_do_not_matter(self):
        rng = np.random.default_rng(28)
        kps = random_keypoints(rng, 40, scale=2.0)
        params = init_sgrid_params(4, SMALL_CFG, 4)
        box = Box3D(0, 0, 0, 2.0, 2.0, 2.0, 0.3)
        reach = max(SMALL_CFG.fine_radius, SMALL_CFG.coarse_radius)
        far = box.center + (reach + 0.5 * np.linalg.norm(box.dims) + 1.0) * np.array(
            [1.0, 0.0, 0.0]
        )
        extended = FeaturePointCloud(
            np.vstack([kps.xyz, far]),
            np.zeros(41),
            np.vstack([kps.features, rng.normal(size=(1, 4))]),
        )
        (a,) = sgrid_pool(kps, [box], SMALL_CFG, params)
        (b,) = sgrid_pool(extended, [box], SMALL_CFG, params)
        np.testing.assert_array_equal(a.vector, b.vector)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("auto", [False, True])
    def test_cull_matches_query_over_all_keypoints(self, seed, auto):
        # Dense enough that some balls hold more than neighbor_cap keypoints,
        # so the order of the cut is checked too.
        rng = np.random.default_rng(410 + seed)
        kps = random_keypoints(rng, 400, scale=4.0)
        cfg = SMALL_CFG
        if auto:
            cfg = SGridConfig(
                neighbor_cap=8, pool_hidden=6, fine_channels=5,
                coarse_channels=4, head_hidden=8,
            )
        params = init_sgrid_params(6, cfg, 4)
        boxes = [
            Box3D(*rng.uniform(-3, 3, 3), *rng.uniform(0.8, 4, 3),
                  float(rng.uniform(-math.pi, math.pi)))
            for _ in range(4)
        ]
        rois = assert_pool_matches_all_keypoints(kps, boxes, cfg, params)
        assert not all(roi.fine_empty.all() for roi in rois)

    def test_cull_keeps_keypoints_on_a_ball_boundary(self):
        # Fine levels are exactly -1, 0, 1 on every axis and r*r = 0.25, so a
        # keypoint 1.5 out along one axis, on grid levels along the others,
        # sits at squared distance exactly r*r from a face grid point.
        cfg = SGridConfig(
            fine_radius=0.5, coarse_radius=1.0, neighbor_cap=8, pool_hidden=6,
            fine_channels=5, coarse_channels=4, head_hidden=8,
        )
        box = Box3D(0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 0.0)
        on_sphere = []
        for axis in range(3):
            for sign in (-1.0, 1.0):
                for u in (-1.0, 0.0, 1.0):
                    p = [u, u, u]
                    p[axis] = 1.5 * sign
                    on_sphere.append(p)
        xyz = np.array(on_sphere)
        rng = np.random.default_rng(34)
        kps = FeaturePointCloud(xyz, np.zeros(len(xyz)), rng.normal(size=(len(xyz), 4)))
        params = init_sgrid_params(7, cfg, 4)
        (roi,) = assert_pool_matches_all_keypoints(kps, [box], cfg, params)
        # The face grid points find their keypoint, the centre finds none.
        assert not roi.fine_empty.all()
        assert roi.fine_empty[13]

    def test_cull_with_no_candidates(self):
        rng = np.random.default_rng(35)
        kps = random_keypoints(rng, 60, scale=2.0)
        params = init_sgrid_params(8, SMALL_CFG, 4)
        box = Box3D(40.0, -40.0, 0.0, 2.0, 2.0, 2.0, 0.6)
        (roi,) = assert_pool_matches_all_keypoints(kps, [box], SMALL_CFG, params)
        assert roi.fine_empty.all() and roi.coarse_empty.all()

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(29)
        kps = random_keypoints(rng, 10)
        params = init_sgrid_params(5, SMALL_CFG, 4)
        bad_cfg = SGridConfig(
            neighbor_cap=8, pool_hidden=6, fine_channels=6,
            coarse_channels=4, head_hidden=8,
        )
        with pytest.raises(ValueError):
            sgrid_pool(kps, [Box3D(0, 0, 0, 1, 1, 1, 0)], bad_cfg, params)


class TestRefineHead:
    def make_vector(self, rng, cfg=SMALL_CFG):
        return rng.normal(size=27 * (cfg.fine_channels + cfg.coarse_channels))

    def test_zero_params_give_half_confidence(self):
        cfg = SMALL_CFG
        d = 27 * (cfg.fine_channels + cfg.coarse_channels)
        params = SGridParams(
            mlp_fine=init_sgrid_params(0, cfg, 4).mlp_fine,
            mlp_coarse=init_sgrid_params(0, cfg, 4).mlp_coarse,
            trunk=SharedMlp(layers=(
                (np.zeros((8, d)), np.zeros(8)),
                (np.zeros((8, 8)), np.zeros(8)),
            )),
            w_conf=np.zeros((1, 8)),
            b_conf=np.zeros(1),
            w_res=np.zeros((7, 8)),
            b_res=np.zeros(7),
        )
        vector = self.make_vector(np.random.default_rng(30))
        conf, res = refine_head_forward(vector, params)
        assert conf == 0.5
        np.testing.assert_array_equal(res, np.zeros(7))

    def test_confidence_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(31)
        params = init_sgrid_params(6, SMALL_CFG, 4)
        for _ in range(20):
            conf, _ = refine_head_forward(self.make_vector(rng), params)
            assert 0.0 < conf < 1.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(32)
        params = init_sgrid_params(7, SMALL_CFG, 4)
        vector = self.make_vector(rng)
        conf, res = refine_head_forward(vector, params)

        x = vector
        for w, b in params.trunk.layers:
            x = oracles.relu(oracles.dense(x, w, b))
        z = oracles.dense(x, params.w_conf, params.b_conf)[0]
        expected_conf = 1.0 / (1.0 + math.exp(-z))
        expected_res = oracles.dense(x, params.w_res, params.b_res)
        assert conf == pytest.approx(expected_conf, abs=1e-10)
        np.testing.assert_allclose(res, expected_res, atol=1e-10)

    def test_residual_vector_has_seven_entries(self):
        rng = np.random.default_rng(33)
        params = init_sgrid_params(8, SMALL_CFG, 4)
        _, res = refine_head_forward(self.make_vector(rng), params)
        assert res.shape == (7,)

    def test_length_mismatch_rejected(self):
        params = init_sgrid_params(9, SMALL_CFG, 4)
        with pytest.raises(ValueError):
            refine_head_forward(np.zeros(27), params)


class TestInitSgridParams:
    def test_deterministic(self):
        a = init_sgrid_params(11, SMALL_CFG, 4)
        b = init_sgrid_params(11, SMALL_CFG, 4)
        np.testing.assert_array_equal(a.w_res, b.w_res)
        for (wa, ba), (wb, bb) in zip(a.mlp_fine.layers, b.mlp_fine.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_branch_streams_differ(self):
        p = init_sgrid_params(11, SMALL_CFG, 4)
        assert not np.array_equal(p.mlp_fine.layers[0][0], p.mlp_coarse.layers[0][0])

    def test_single_precision_grid(self):
        p = init_sgrid_params(12, SMALL_CFG, 4)
        for w, b in p.trunk.layers + p.mlp_fine.layers + p.mlp_coarse.layers:
            np.testing.assert_array_equal(w, w.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(
            p.w_conf, p.w_conf.astype(np.float32).astype(np.float64)
        )

    def test_dims_follow_config(self):
        p = init_sgrid_params(13, SMALL_CFG, 6)
        assert p.mlp_fine.in_dim == 9  # 3 + 6
        assert p.mlp_fine.out_dim == SMALL_CFG.fine_channels
        assert p.trunk.in_dim == 27 * (5 + 4)
        assert p.w_res.shape == (7, SMALL_CFG.head_hidden)
