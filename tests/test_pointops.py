"""Sampling, neighborhoods, aggregation, voxel grids, BEV maps."""

import functools
import re

import numpy as np
import pytest

import oracles
from rvredeem import pointops
from rvredeem.core import FeaturePointCloud, SGridConfig, grid_shape
from rvredeem.pointops import (
    SharedMlp,
    VoxelGrid,
    ball_query,
    bev_flatten,
    furthest_point_sampling,
    pointnet_aggregate,
    voxelize,
)
from rvredeem.sgrid import init_sgrid_params


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

    def test_empty_cloud_gives_empty_index(self):
        cloud = make_cloud(np.zeros((0, 3)))
        idx = furthest_point_sampling(cloud.xyz, 1)
        assert idx.dtype == np.int64 and idx.shape == (0,)
        with pytest.raises(ValueError, match="count must be >= 1"):
            furthest_point_sampling(cloud.xyz, 0)

    def test_bad_seed_rejected(self):
        cloud = make_cloud([[0, 0, 0]])
        with pytest.raises(ValueError):
            furthest_point_sampling(cloud.xyz, 1, seed_index=5)

    def test_rejects_non_xyz_rows(self):
        with pytest.raises(ValueError, match=r"must be \(N, 3\)"):
            furthest_point_sampling(np.zeros((4, 2)), 1)


class TestBucketedFps:
    """Every cloud is held in buckets of pointops._FPS_BUCKET points. Clouds
    of fewer than pointops._FPS_SKIP_MIN buckets update every point at each
    step, larger ones skip far buckets; every pick must be the row-sum
    formula's either way."""

    @pytest.mark.parametrize("n", [13_311, 13_312, 13_312 + 37, 16_383, 16_384, 16_384 + 37])
    def test_size_rule_and_row_sum_picks(self, n):
        # Just below, at and above the size rule, and around 16,384 points;
        # the sizes ending in 37 end in a partial bucket.
        assert pointops._FPS_SKIP_MIN * pointops._FPS_BUCKET == 13_312
        xyz = np.random.default_rng(n).uniform(-40.0, 40.0, size=(n, 3))
        idx = furthest_point_sampling(xyz, 200, seed_index=n // 3)
        np.testing.assert_array_equal(idx, oracles.fps_row_sum(xyz, 200, n // 3))

    def test_lattice_ties_across_buckets(self):
        # A 26^3 integer lattice in order: at every step the farthest points
        # tie across many buckets, so only the lowest-index rule decides.
        axis = np.arange(26.0)
        xyz = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        idx = furthest_point_sampling(xyz, 300, seed_index=9_000)
        np.testing.assert_array_equal(idx, oracles.fps_row_sum(xyz, 300, 9_000))

    def test_duplicates_and_a_seed_in_the_last_bucket(self):
        # 257 distinct points repeated to 16,448: once they are all chosen
        # the rest lie at distance zero, and the lowest index goes next.
        base = np.random.default_rng(3).integers(-9, 10, size=(257, 3)).astype(np.float64)
        xyz = np.tile(base, (64, 1))
        idx = furthest_point_sampling(xyz, 400, seed_index=len(xyz) - 1)
        np.testing.assert_array_equal(idx, oracles.fps_row_sum(xyz, 400, len(xyz) - 1))

    def test_sky_shaped_cloud_updates_every_point(self):
        # 494 points as on the sky workload: 8 buckets, the last holding 46,
        # a budget above the cloud size, and 60 rows repeated.
        assert -(-494 // pointops._FPS_BUCKET) < pointops._FPS_SKIP_MIN
        rng = np.random.default_rng(494)
        xyz = rng.uniform(-30.0, 30.0, size=(434, 3))
        xyz = np.vstack([xyz, xyz[rng.integers(0, 434, 60)]])[rng.permutation(494)]
        idx = furthest_point_sampling(xyz, 2048)
        np.testing.assert_array_equal(np.sort(idx), np.arange(494))
        np.testing.assert_array_equal(idx, oracles.fps_row_sum(xyz, 2048, 0))

    @pytest.mark.parametrize("bucket", [1, 3, 64])
    def test_small_clouds_through_the_bucketed_loop(self, bucket, monkeypatch):
        # The bucket width patched, and the size rule patched to 1 bucket
        # and to more than any cloud has, so that the same clouds take both
        # kinds of step: random, lattice and duplicated points, partial last
        # buckets, seeds anywhere, budgets up to past the cloud size. The
        # lattice is scaled by 0.1, so its ties survive only if every
        # distance rounds as the row sum does.
        monkeypatch.setattr(pointops, "_FPS_BUCKET", bucket)
        rng = np.random.default_rng(bucket)
        for case in range(30):
            n = int(rng.integers(1, 300))
            if case % 3 == 0:
                xyz = rng.normal(size=(n, 3))
            elif case % 3 == 1:
                xyz = rng.integers(-3, 4, size=(n, 3)) * 0.1
            else:
                xyz = rng.normal(size=(n, 3))[rng.integers(0, max(1, n // 4), n)]
            count = int(rng.integers(1, n + 6))
            seed_index = int(rng.integers(0, n))
            expected = oracles.fps_row_sum(xyz, count, seed_index)
            for skip_min in (1, 10**9):
                monkeypatch.setattr(pointops, "_FPS_SKIP_MIN", skip_min)
                idx = furthest_point_sampling(xyz, count, seed_index)
                np.testing.assert_array_equal(idx, expected)


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

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (0.5, 0.5, 0.0)])
    def test_caps_through_equal_distances_on_a_lattice(self, center):
        # An integer lattice in shuffled order: each squared distance is
        # shared exactly by up to 24 points, and the caps cut these groups.
        g = np.arange(-2.0, 3.0)
        xyz = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        xyz = xyz[np.random.default_rng(7).permutation(len(xyz))]
        for radius in (1.0, 1.5, 2.0, 2.5):
            for cap in (1, 2, 4, 7, 10, 19, 33, 200):
                got = ball_query(center, radius, xyz, cap)
                (want,) = oracles.ball_query([np.array(center)], xyz, radius, cap)
                assert got.dtype == np.int64
                assert got.tobytes() == np.array(want, dtype=np.int64).tobytes()

    def test_rejects_bad_arguments(self):
        cloud = make_cloud([[0, 0, 0]])
        with pytest.raises(ValueError):
            ball_query([0, 0, 0], -1.0, cloud.xyz, max_k=1)
        with pytest.raises(ValueError):
            ball_query([0, 0, 0], 1.0, cloud.xyz, max_k=0)
        with pytest.raises(ValueError, match=r"must be \(N, 3\)"):
            ball_query([0, 0, 0], 1.0, np.zeros(3), max_k=1)

    def test_rejects_nan_radius(self):
        # NaN < 0 is false, so a sign test alone let NaN through to an
        # empty result.
        with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
            ball_query([0, 0, 0], float("nan"), np.zeros((1, 3)), max_k=1)


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

    @pytest.mark.parametrize("branch", ["mlp_fine", "mlp_coarse"])
    @pytest.mark.parametrize("k", [0, 1, 5, 16])
    def test_stack_matches_one_neighborhood_calls(self, branch, k):
        # The pipeline's widths: 64-feature keypoints and the default config.
        # Each neighborhood of a stack keeps the bytes of its own call.
        mlp = getattr(init_sgrid_params(18, SGridConfig(), 64), branch)
        rng = np.random.default_rng(60 + k)
        for lead in [(1,), (7,), (512,), (4, 3)]:
            center = rng.normal(size=lead + (3,))
            xyz = rng.normal(size=lead + (k, 3))
            feats = rng.normal(size=lead + (k, 64))
            pooled = pointnet_aggregate(center, xyz, feats, mlp)
            assert pooled.shape == lead + (mlp.out_dim,)
            for i in np.ndindex(lead):
                one = pointnet_aggregate(center[i], xyz[i], feats[i], mlp)
                assert one.tobytes() == pooled[i].tobytes()

    def test_stack_shape_mismatch_rejected(self):
        mlp = tiny_mlp()
        xyz, feats = np.zeros((2, 5, 3)), np.zeros((2, 5, 1))
        for center in [np.zeros(3), np.zeros((3, 3)), np.zeros((2, 4))]:
            with pytest.raises(ValueError, match=r"need \(\.\.\., 3\) centers"):
                pointnet_aggregate(center, xyz, feats, mlp)
        with pytest.raises(ValueError, match=r"need \(\.\.\., 3\) centers"):
            pointnet_aggregate(np.zeros(3), np.zeros(3), np.zeros((1, 1)), mlp)
        for bad in [np.zeros((2, 4, 1)), np.zeros((5, 1)), np.zeros((2, 5))]:
            with pytest.raises(ValueError, match=r"features must be \(2, 5\) \+ \(d,\)"):
                pointnet_aggregate(np.zeros((2, 3)), xyz, bad, mlp)

    def test_apply_keeps_the_two_temporary_bytes(self):
        # Rows of negative, zero (+0.0 and -0.0 biases on zero weights) and
        # positive pre-activation; the read-only input cannot be written.
        rng = np.random.default_rng(12)
        w1 = rng.normal(size=(7, 5))
        w1[4:6] = 0.0
        b1 = np.concatenate([rng.normal(size=4), [0.0, -0.0], [-50.0]])
        w1[6] = -np.abs(w1[6])
        w2 = rng.normal(size=(4, 7))
        w2[0] = np.abs(w2[0])
        w2[2:] = 0.0
        layers = ((w1, b1), (w2, np.array([2.0, -50.0, 0.0, -0.0])))
        columns = np.abs(rng.normal(size=(5, 40)))
        columns[:, 0] = 0.0
        columns.setflags(write=False)
        expected = columns
        for weight, bias in layers:
            pre = weight @ expected + bias[:, None]
            expected = np.maximum(pre, 0.0)
            assert (pre < 0).any() and (pre == 0).any() and (pre > 0).any()
        before = columns.tobytes()
        out = SharedMlp(layers=layers).apply(columns)
        assert out.tobytes() == expected.tobytes()
        assert columns.tobytes() == before

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

    @pytest.mark.parametrize("far", [1e20, -1e20, 1e300, -1e300])
    @pytest.mark.parametrize("axis", range(3))
    def test_far_points_are_dropped_without_an_overflowing_cast(self, far, axis):
        # Their quotients do not fit in int64; casting them warns (an error
        # under this suite's warning filter) and drops them only by the
        # accident of a negative result.
        xyz = np.array([[1.5, 0.5, 0.25], [0.5, 1.5, 0.75]])
        xyz[1, axis] = far
        grid = voxelize(make_cloud(xyz, features=[[2.0, 3.0], [5.0, 7.0]]), **GRID)
        assert grid.voxels.tolist() == [[1, 0, 0]]
        assert grid.counts.tolist() == [1]
        np.testing.assert_array_equal(grid.means, [[2.0, 3.0]])

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

    def test_sums_keep_the_reduceat_order(self):
        # Twelve points in one voxel, more than NumPy's 8-element pairwise
        # block, three in another and one alone, shuffled, with features of
        # mixed magnitude: another summation order shows in the bytes.
        rng = np.random.default_rng(29)
        centres = [[0.5, 0.5, 0.25], [2.5, 1.5, 0.75], [3.5, 0.5, 0.25]]
        xyz = rng.permutation(np.repeat(centres, [12, 3, 1], axis=0))
        feats = rng.normal(size=(16, 3)) * 10.0 ** rng.integers(-8, 9, size=(16, 3))
        grid = voxelize(make_cloud(xyz, feats), **GRID)
        cells = np.floor(xyz / GRID["voxel_size"]).astype(np.int64)
        order = np.argsort(np.ravel_multi_index(tuple(cells.T), grid.shape), kind="stable")
        starts = np.array([0, 12, 15])
        sums = np.add.reduceat(feats[order], starts, axis=0)
        assert grid.counts.tolist() == [12, 3, 1]
        assert grid.means.tobytes() == (sums / grid.counts[:, None]).tobytes()
        # Row-by-row sums in ascending point order round differently here.
        rows = np.split(feats[order], starts[1:])
        assert np.array([functools.reduce(np.add, r) for r in rows]).tobytes() != sums.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_sums_match_reduceat_on_every_voxel_size(self, seed):
        # Voxels of 1 to 20 points, shuffled, with features of mixed
        # magnitude and a third of them +0.0 or -0.0. Besides, two one-point
        # voxels hold -0.0 and a two-point voxel holds -0.0 twice: summed
        # from +0.0, that one would come out +0.0.
        rng = np.random.default_rng(500 + seed)
        geometry = ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (5.0, 5.0, 1.0))
        sizes = [*range(1, 21), 1, 1, 2]
        centres = [[c // 5 + 0.5, c % 5 + 0.5, 0.5] for c in range(len(sizes))]
        xyz = np.repeat(centres, sizes, axis=0)
        feats = rng.normal(size=(xyz.shape[0], 6)) * 10.0 ** rng.integers(-8, 9, size=(xyz.shape[0], 6))
        zeros = rng.random(feats.shape) < 1 / 3
        feats[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        feats[-4:] = -0.0
        perm = rng.permutation(xyz.shape[0])
        xyz, feats = xyz[perm], feats[perm]
        grid = voxelize(make_cloud(xyz, feats), *geometry)
        flat = np.ravel_multi_index(tuple(np.floor(xyz).astype(np.int64).T), grid.shape)
        order = np.argsort(flat, kind="stable")
        starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
        sums = np.add.reduceat(feats[order], starts, axis=0)
        assert grid.counts.tolist() == sizes
        assert grid.means.tobytes() == (sums / grid.counts[:, None]).tobytes()
        assert np.signbit(grid.means[-3:]).all()

    def test_empty_cloud(self):
        grid = voxelize(make_cloud(np.zeros((0, 3))), **GRID)
        assert grid.total_count == 0
        assert grid.voxels.shape == (0, 3)
        assert grid.means.shape == (0, 2)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("range_max", (np.inf, 1.0, 1.0), r"range_max must be finite, got \[inf, 1.0, 1.0\]"),
            ("range_min", (0.0, -np.inf, 0.0), r"range_min must be finite"),
            ("voxel_size", (1.0, np.nan, 1.0), r"voxel_size must be finite and positive"),
            ("voxel_size", (1.0, 1.0, np.inf), r"voxel_size must be finite and positive"),
            ("voxel_size", (1.0, 0.0, 1.0), r"voxel_size must be finite and positive"),
            ("range_max", (2.0, 0.0, 2.0), r"grid range must satisfy max > min"),
        ],
        ids=["inf-max", "inf-min", "nan-size", "inf-size", "zero-size", "empty-y"],
    )
    def test_bad_geometry_is_a_value_error(self, field, value, message):
        # An infinite bound would overflow the int conversion of the cell
        # count and a NaN size fail it; both must be a ValueError instead.
        geometry = {"voxel_size": (1.0, 1.0, 1.0), "range_min": (0.0, 0.0, 0.0),
                    "range_max": (2.0, 2.0, 2.0), field: value}
        with pytest.raises(ValueError, match=message):
            VoxelGrid(**geometry, voxels=np.zeros((0, 3)), counts=[], means=np.zeros((0, 1)))
        with pytest.raises(ValueError, match=message):
            voxelize(make_cloud([[0.5, 0.5, 0.5]]), **geometry)

    # Finite geometry out of reach: an extent that overflows, an axis of
    # about 10^300 cells or of inf cells, three axes of 2^21 cells, whose
    # 2^63 cells no int64 flat index reaches, and an axis whose extent over
    # the size rounds to no cell.
    @pytest.mark.parametrize(
        "geometry, cells",
        [
            (((1.0, 1.0, 1.0), (-1e308, 0.0, 0.0), (1e308, 2.0, 2.0)), "inf, 2.0, 2.0"),
            (((1e-300, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),
             "1.9999999999999998e+300, 2.0, 2.0"),
            (((1e-10, 1.0, 1.0), (-1e300, 0.0, 0.0), (1e300, 2.0, 2.0)), "inf, 2.0, 2.0"),
            (((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0**21,) * 3),
             "2097152.0, 2097152.0, 2097152.0"),
            (((1.0, 4.0, 1.0), (0.0, 0.0, 0.0), (2.0, 5e-324, 2.0)), "2.0, 0.0, 2.0"),
        ],
        ids=["extent", "axis", "inf-axis", "product", "no-cell"],
    )
    def test_geometry_out_of_reach_is_a_value_error(self, geometry, cells):
        text = f"voxel_size splits the range into [{cells}] cells, not 1 to 2**63 - 1"
        message = f"^{re.escape(text)}$"
        with pytest.raises(ValueError, match=message):
            grid_shape(*geometry)
        with pytest.raises(ValueError, match=message):
            VoxelGrid(*geometry, np.zeros((0, 3), dtype=np.int64), [], np.zeros((0, 1)))
        with pytest.raises(ValueError, match=message):
            voxelize(make_cloud([[0.5, 0.5, 0.5]]), *geometry)

    def test_largest_grid_an_int64_index_reaches(self):
        geometry = ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0**21, 2.0**21, 2.0**21 - 1))
        assert grid_shape(*geometry) == (2**21, 2**21, 2**21 - 1)
        grid = voxelize(make_cloud([[0.5, 0.5, 2.0**21 - 1.5]]), *geometry)
        assert grid.voxels.tolist() == [[0, 0, 2**21 - 2]]

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
