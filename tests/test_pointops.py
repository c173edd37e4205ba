"""Sampling, neighborhoods, aggregation, voxel grids, BEV maps."""

import numpy as np
import pytest

import oracles
from rvredeem.core import FeaturePointCloud
from rvredeem.pointops import (
    SharedMlp,
    VoxelGrid,
    ball_query,
    bev_flatten,
    furthest_point_sampling,
    pointnet_aggregate,
    voxelize,
)


def make_cloud(xyz, features=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if features is None:
        features = np.zeros((xyz.shape[0], 2))
    return FeaturePointCloud(xyz, np.zeros(xyz.shape[0]), np.asarray(features))


def random_cloud(rng, n, d_f=3, scale=10.0):
    return FeaturePointCloud(
        rng.uniform(-scale, scale, size=(n, 3)),
        rng.uniform(0, 1, size=n),
        rng.normal(size=(n, d_f)),
    )


class TestFurthestPointSampling:
    def test_line_sequence_by_hand(self):
        # Points on the x axis at 0, 1, 2, 10. From seed 0 the farthest is
        # 10 (index 3), then 2 (squared distances 4 vs 1), then 1.
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]])
        idx = furthest_point_sampling(cloud.xyz, 4, seed_index=0)
        np.testing.assert_array_equal(idx, [0, 3, 2, 1])

    def test_count_capped_at_n(self):
        cloud = make_cloud(np.random.default_rng(0).normal(size=(5, 3)))
        idx = furthest_point_sampling(cloud.xyz, 7)
        assert len(idx) == 5
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]

    def test_seed_is_first(self):
        cloud = make_cloud(np.random.default_rng(1).normal(size=(10, 3)))
        idx = furthest_point_sampling(cloud.xyz, 4, seed_index=3)
        assert idx[0] == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 200))
        c = int(rng.integers(1, 40))
        cloud = random_cloud(rng, n)
        seed_index = int(rng.integers(0, n))
        idx = furthest_point_sampling(cloud.xyz, c, seed_index)
        expected = oracles.fps_indices(cloud.xyz, c, seed_index)
        np.testing.assert_array_equal(idx, expected)

    def test_matches_row_sum_on_lattice_with_ties(self):
        # A 27^3 lattice plus 300 repeated rows, shuffled: at each step many
        # points tie, so only the lowest-index rule decides. Scaled by 0.1,
        # the ties survive only if every distance rounds as the row sum does.
        rng = np.random.default_rng(105)
        axis = np.arange(27.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        lattice = lattice.reshape(-1, 3)
        xyz = np.vstack([lattice, lattice[rng.integers(0, len(lattice), 300)]])
        xyz = xyz[rng.permutation(len(xyz))]
        for scale in (1.0, 0.1):
            idx = furthest_point_sampling(xyz * scale, 256, seed_index=7)
            expected = oracles.fps_row_sum(xyz * scale, 256, 7)
            np.testing.assert_array_equal(idx, expected)

    @pytest.mark.parametrize("extra", [0, 5])
    def test_matches_row_sum_when_budget_covers_cloud(self, extra):
        # 150 points on a 7^3 lattice repeat some rows; every index is
        # returned once, duplicates last at distance zero.
        rng = np.random.default_rng(106)
        xyz = rng.integers(-3, 4, size=(150, 3)).astype(np.float64)
        idx = furthest_point_sampling(xyz, 150 + extra, seed_index=4)
        np.testing.assert_array_equal(np.sort(idx), np.arange(150))
        np.testing.assert_array_equal(idx, oracles.fps_row_sum(xyz, 150 + extra, 4))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 60)
        moved = FeaturePointCloud(
            cloud.xyz + np.array([100.0, -40.0, 7.0]),
            cloud.intensity,
            cloud.features,
        )
        a = furthest_point_sampling(cloud.xyz, 12, 2)
        b = furthest_point_sampling(moved.xyz, 12, 2)
        np.testing.assert_array_equal(a, b)

    def test_monotone_coverage(self):
        # The distance from the farthest unselected point to the selected
        # set cannot grow as more points are selected.
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 80)
        gaps = []
        for c in range(2, 30):
            idx = furthest_point_sampling(cloud.xyz, c)
            sel = cloud.xyz[idx]
            rest = np.setdiff1d(np.arange(80), idx)
            if rest.size == 0:
                break
            d2 = np.min(
                np.sum(
                    (cloud.xyz[rest, None, :] - sel[None, :, :]) ** 2, axis=2
                ),
                axis=1,
            )
            gaps.append(np.max(d2))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_gathers_matching_rows(self):
        # The result is an int64 index array into the rows it was given, so
        # a plain nested list of the same rows selects the same points.
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 30)
        idx = furthest_point_sampling(cloud.xyz, 6, 4)
        assert idx.dtype == np.int64 and idx.shape == (6,)
        listed = furthest_point_sampling(cloud.xyz.tolist(), 6, 4)
        np.testing.assert_array_equal(cloud.xyz[listed], cloud.xyz[idx])

    def test_duplicate_points_still_unique_indices(self):
        cloud = make_cloud([[1, 1, 1]] * 4)
        idx = furthest_point_sampling(cloud.xyz, 4)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_empty_cloud_rejected(self):
        cloud = make_cloud(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            furthest_point_sampling(cloud.xyz, 1)

    def test_bad_seed_rejected(self):
        cloud = make_cloud([[0, 0, 0]])
        with pytest.raises(ValueError):
            furthest_point_sampling(cloud.xyz, 1, seed_index=5)

    def test_rejects_non_xyz_rows(self):
        with pytest.raises(ValueError, match=r"must be \(N, 3\)"):
            furthest_point_sampling(np.zeros((4, 2)), 1)


class TestBallQuery:
    def test_sorted_nearest_first(self):
        cloud = make_cloud([[3, 0, 0], [1, 0, 0], [2, 0, 0]])
        idx = ball_query([0, 0, 0], 2.5, cloud.xyz, max_k=8)
        np.testing.assert_array_equal(idx, [1, 2])

    def test_cap_is_deterministic(self):
        cloud = make_cloud([[3, 0, 0], [1, 0, 0], [2, 0, 0]])
        idx = ball_query([0, 0, 0], 2.5, cloud.xyz, max_k=1)
        np.testing.assert_array_equal(idx, [1])

    def test_zero_radius_keeps_coincident(self):
        cloud = make_cloud([[1, 2, 3], [0, 0, 0], [1, 2, 3]])
        idx = ball_query([1, 2, 3], 0.0, cloud.xyz, max_k=8)
        np.testing.assert_array_equal(idx, [0, 2])

    def test_empty_result(self):
        cloud = make_cloud([[5, 5, 5]])
        assert ball_query([0, 0, 0], 1.0, cloud.xyz, max_k=4).size == 0

    def test_tie_breaks_by_index(self):
        cloud = make_cloud([[1, 0, 0], [-1, 0, 0], [0, 1, 0]])
        idx = ball_query([0, 0, 0], 1.0, cloud.xyz, max_k=2)
        np.testing.assert_array_equal(idx, [0, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(200 + seed)
        cloud = random_cloud(rng, 150, scale=5.0)
        centers = rng.uniform(-5, 5, size=(10, 3))
        radius = float(rng.uniform(0.5, 4.0))
        max_k = int(rng.integers(1, 12))
        expected = oracles.ball_query(centers, cloud.xyz, radius, max_k)
        for c, exp in zip(centers, expected):
            np.testing.assert_array_equal(ball_query(c, radius, cloud.xyz, max_k), exp)

    def test_rejects_bad_arguments(self):
        cloud = make_cloud([[0, 0, 0]])
        with pytest.raises(ValueError):
            ball_query([0, 0, 0], -1.0, cloud.xyz, max_k=1)
        with pytest.raises(ValueError):
            ball_query([0, 0, 0], 1.0, cloud.xyz, max_k=0)
        with pytest.raises(ValueError, match=r"must be \(N, 3\)"):
            ball_query([0, 0, 0], 1.0, np.zeros(3), max_k=1)


def tiny_mlp():
    return SharedMlp(
        layers=(
            (np.array([[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0]]),
             np.array([0.5, -2.0])),
        )
    )


class TestPointnetAggregate:
    def test_single_neighbor_by_hand(self):
        # Encoding (0, 1, 2, 4): row0 = 0 + 2*4 + 0.5 = 8.5, row1 = 1 - 2,
        # rectified to 0. Max over one neighbor is the vector itself.
        out = pointnet_aggregate(
            [1.0, 1.0, 1.0],
            [[1.0, 2.0, 3.0]],
            [[4.0]],
            tiny_mlp(),
        )
        np.testing.assert_array_equal(out, [8.5, 0.0])

    def test_empty_neighbors_pool_to_zeros(self):
        out = pointnet_aggregate(
            [0.0, 0.0, 0.0], np.zeros((0, 3)), np.zeros((0, 1)), tiny_mlp()
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_duplication_idempotent(self):
        rng = np.random.default_rng(9)
        mlp = SharedMlp(
            layers=(
                (rng.normal(size=(6, 5)), rng.normal(size=6)),
                (rng.normal(size=(4, 6)), rng.normal(size=4)),
            )
        )
        xyz = rng.normal(size=(5, 3))
        feats = rng.normal(size=(5, 2))
        center = rng.normal(size=3)
        once = pointnet_aggregate(center, xyz, feats, mlp)
        doubled = pointnet_aggregate(
            center, np.vstack([xyz, xyz]), np.vstack([feats, feats]), mlp
        )
        np.testing.assert_array_equal(once, doubled)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        mlp = SharedMlp(
            layers=((rng.normal(size=(4, 5)), rng.normal(size=4)),)
        )
        xyz = rng.normal(size=(6, 3))
        feats = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        a = pointnet_aggregate(np.zeros(3), xyz, feats, mlp)
        b = pointnet_aggregate(np.zeros(3), xyz[perm], feats[perm], mlp)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pointnet_aggregate(
                [0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], [[1.0, 2.0]], tiny_mlp()
            )

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            SharedMlp(layers=())
        with pytest.raises(ValueError):
            SharedMlp(
                layers=(
                    (np.zeros((2, 3)), np.zeros(2)),
                    (np.zeros((2, 5)), np.zeros(2)),  # width mismatch
                )
            )


GRID = dict(
    voxel_size=(1.0, 1.0, 0.5),
    range_min=(0.0, 0.0, 0.0),
    range_max=(4.0, 2.0, 1.0),
)


class TestVoxelize:
    def test_single_point(self):
        cloud = make_cloud([[1.5, 0.5, 0.25]], features=[[2.0, 3.0]])
        grid = voxelize(cloud, **GRID)
        assert grid.shape == (4, 2, 2)
        assert grid.voxels.tolist() == [[1, 0, 0]]
        assert grid.counts.tolist() == [1]
        np.testing.assert_array_equal(grid.means, [[2.0, 3.0]])

    def test_boundary_point_goes_to_higher_cell(self):
        cloud = make_cloud([[1.0, 0.0, 0.0]])
        grid = voxelize(cloud, **GRID)
        assert grid.voxels.tolist() == [[1, 0, 0]]

    def test_count_conservation(self):
        rng = np.random.default_rng(11)
        xyz = rng.uniform(-1, 5, size=(300, 3))  # some points out of range
        cloud = make_cloud(xyz, features=rng.normal(size=(300, 2)))
        grid = voxelize(cloud, **GRID)
        in_range = np.sum(
            np.all(
                (xyz >= np.array(GRID["range_min"]))
                & (
                    np.floor(
                        (xyz - np.array(GRID["range_min"]))
                        / np.array(GRID["voxel_size"])
                    )
                    < np.array(grid.shape)
                ),
                axis=1,
            )
        )
        assert grid.total_count == in_range

    def test_out_of_range_logged(self, caplog):
        cloud = make_cloud([[100.0, 0.0, 0.0]])
        with caplog.at_level("INFO"):
            grid = voxelize(cloud, **GRID)
        assert grid.voxels.shape == (0, 3)
        assert grid.counts.shape == (0,)
        assert grid.means.shape == (0, 2)
        assert "outside the grid range" in caplog.text

    @pytest.mark.parametrize("seed", range(4))
    def test_means_match_group_by_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        cloud = random_cloud(rng, 400, d_f=3, scale=3.0)
        size, vmin, vmax = (0.8, 0.5, 0.9), (-3.0, -3.0, -3.0), (3.0, 3.0, 3.0)
        grid = voxelize(cloud, size, vmin, vmax)
        expected = oracles.voxel_means(cloud.xyz, cloud.features, vmin, size)
        expected = {
            k: v
            for k, v in expected.items()
            if all(0 <= k[a] < grid.shape[a] for a in range(3))
        }
        assert [tuple(key) for key in grid.voxels.tolist()] == sorted(expected)
        for key, count, mean in zip(grid.voxels.tolist(), grid.counts, grid.means):
            exp_count, exp_mean = expected[tuple(key)]
            assert count == exp_count
            np.testing.assert_allclose(mean, exp_mean, atol=1e-12)

    def test_empty_cloud(self):
        grid = voxelize(make_cloud(np.zeros((0, 3))), **GRID)
        assert grid.total_count == 0
        assert grid.voxels.shape == (0, 3)
        assert grid.means.shape == (0, 2)

    def test_shape_follows_geometry_and_bounds_indices(self):
        # A 2x2x2 geometry has a 2x2x2 grid; no index may lie past it.
        geometry = ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        grid = VoxelGrid(*geometry, [[1, 1, 1]], [1], [[0.0]])
        assert grid.shape == (2, 2, 2)
        with pytest.raises(ValueError, match=r"outside grid shape \(2, 2, 2\)"):
            VoxelGrid(*geometry, [[4, 4, 4]], [1], [[0.0]])


class TestBevFlatten:
    def test_single_voxel_lands_in_z_block(self):
        cloud = make_cloud([[0.5, 0.5, 0.75]], features=[[5.0, 6.0]])
        grid = voxelize(cloud, **GRID)
        assert grid.voxels.tolist() == [[0, 0, 1]]
        bev = bev_flatten(grid)
        assert bev.shape == (4, 2, 4)
        np.testing.assert_array_equal(bev[0, 0], [0.0, 0.0, 5.0, 6.0])
        assert np.count_nonzero(bev) == 2

    def test_empty_grid_all_zero(self):
        grid = voxelize(make_cloud(np.zeros((0, 3))), **GRID)
        assert not bev_flatten(grid).any()

    def test_matches_reindex_oracle(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 200, d_f=2, scale=2.0)
        grid = voxelize(cloud, (1.0, 1.0, 1.0), (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
        bev = bev_flatten(grid)
        expected = np.zeros_like(bev)
        for (ix, iy, iz), mean in zip(grid.voxels, grid.means):
            for j in range(grid.feature_dim):
                expected[ix, iy, iz * grid.feature_dim + j] = mean[j]
        np.testing.assert_array_equal(bev, expected)

    def test_mass_conservation(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 500, d_f=4, scale=2.0)
        grid = voxelize(cloud, (0.5, 0.5, 0.5), (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
        bev = bev_flatten(grid)
        mass_bev = float(np.sum(bev))
        mass_vox = float(np.sum(grid.means))
        assert mass_bev == pytest.approx(mass_vox, abs=1e-12 * max(1.0, abs(mass_vox)))
