"""Projection round trips, range-image binning, and feature redemption."""

import math
import re

import numpy as np
import pytest

import oracles
import util
from rvredeem.core import Point, SensorModel
from rvredeem.range_geometry import (
    PixelCoord,
    build_range_image,
    pixel_to_point,
    point_to_pixel,
    project_points,
    redeem_feature_points,
    unproject_pixels,
)

SENSOR = SensorModel(height=64, width=512, fov_up=math.pi / 8, fov_down=math.pi / 8)


class TestPixelToPoint:
    def test_forward_axis(self):
        # u=256 -> theta = 0, v=32 with symmetric fov -> phi = 0.
        p = pixel_to_point(PixelCoord(256.0, 32.0, 10.0), SENSOR)
        assert (p.x, p.y, p.z) == (10.0, 0.0, 0.0)

    def test_backward_axis(self):
        p = pixel_to_point(PixelCoord(0.0, 32.0, 5.0), SENSOR)
        assert p.x == -5.0
        assert abs(p.y) < 5e-12
        assert p.z == 0.0

    def test_norm_matches_range(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            px = PixelCoord(
                float(rng.uniform(0, SENSOR.width)),
                float(rng.uniform(0, SENSOR.height)),
                float(rng.uniform(0.5, 80.0)),
            )
            p = pixel_to_point(px, SENSOR)
            norm = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
            assert norm == pytest.approx(px.r, rel=1e-12)

    def test_against_independent_conversion(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            u = float(rng.uniform(0, SENSOR.width))
            v = float(rng.uniform(0, SENSOR.height))
            r = float(rng.uniform(0.5, 80.0))
            p = pixel_to_point(PixelCoord(u, v, r), SENSOR)
            theta, phi = oracles.pixel_angles(
                u, v, SENSOR.height, SENSOR.width, SENSOR.fov_up, SENSOR.fov_down
            )
            ex, ey, ez = oracles.spherical_to_cartesian(r, theta, phi)
            assert abs(p.x - ex) <= 1e-12 * r
            assert abs(p.y - ey) <= 1e-12 * r
            assert abs(p.z - ez) <= 1e-12 * r

    def test_rejects_out_of_range_pixel(self):
        with pytest.raises(ValueError):
            pixel_to_point(PixelCoord(512.0, 1.0, 1.0), SENSOR)
        with pytest.raises(ValueError):
            pixel_to_point(PixelCoord(1.0, -0.5, 1.0), SENSOR)
        with pytest.raises(ValueError):
            pixel_to_point(PixelCoord(1.0, 1.0, 0.0), SENSOR)

    def test_monotone_angles(self):
        # Increasing u must strictly decrease azimuth; increasing v must
        # strictly decrease elevation.
        prev_y = None
        for u in (100.0, 150.0, 200.0):
            p = pixel_to_point(PixelCoord(u, 32.0, 1.0), SENSOR)
            theta = math.atan2(p.y, p.x)
            if prev_y is not None:
                assert theta < prev_y
            prev_y = theta
        prev_z = None
        for v in (10.0, 20.0, 30.0):
            p = pixel_to_point(PixelCoord(0.0, v, 1.0), SENSOR)
            if prev_z is not None:
                assert p.z < prev_z
            prev_z = p.z


class TestPointToPixel:
    def test_inverts_forward_axis(self):
        px = point_to_pixel(Point(10.0, 0.0, 0.0), SENSOR)
        assert (px.u, px.v, px.r) == (256.0, 32.0, 10.0)

    def test_out_of_fov_above(self):
        # Elevation well above the reachable interval.
        assert point_to_pixel(Point(1.0, 0.0, 10.0), SENSOR) is None

    def test_out_of_fov_below(self):
        assert point_to_pixel(Point(1.0, 0.0, -10.0), SENSOR) is None

    def test_bottom_boundary_is_out(self):
        # phi exactly at the bottom edge maps to v = h, which violates the
        # strict pixel invariant, so it is treated as out of view.
        phi = -SENSOR.fov_up
        p = Point(math.cos(phi), 0.0, math.sin(phi))
        px = point_to_pixel(p, SENSOR)
        if px is not None:  # roundoff may land a hair inside
            assert px.v < SENSOR.height

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            point_to_pixel(Point(0.0, 0.0, 0.0), SENSOR)

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            u = float(rng.uniform(0, SENSOR.width))
            v = float(rng.uniform(0, SENSOR.height))
            r = float(rng.uniform(0.5, 80.0))
            px = point_to_pixel(pixel_to_point(PixelCoord(u, v, r), SENSOR), SENSOR)
            assert px is not None
            assert px.u == pytest.approx(u, rel=1e-9, abs=1e-9 * SENSOR.width)
            assert px.v == pytest.approx(v, rel=1e-9, abs=1e-9 * SENSOR.height)
            assert px.r == pytest.approx(r, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(14)
        xyz = rng.uniform(-20, 20, size=(400, 3))
        u, v, r, ok = project_points(xyz, SENSOR)
        for i in range(400):
            px = point_to_pixel(Point(*xyz[i]), SENSOR)
            if px is None:
                assert not ok[i]
            else:
                assert ok[i]
                assert u[i] == px.u and v[i] == px.v and r[i] == px.r

    def test_unproject_matches_scalar(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(0, SENSOR.width, 300)
        v = rng.uniform(0, SENSOR.height, 300)
        r = rng.uniform(0.5, 80.0, 300)
        xyz = unproject_pixels(u, v, r, SENSOR)
        for i in range(300):
            p = pixel_to_point(PixelCoord(u[i], v[i], r[i]), SENSOR)
            assert xyz[i, 0] == p.x and xyz[i, 1] == p.y and xyz[i, 2] == p.z


class TestBuildRangeImage:
    def test_nearest_wins(self):
        # Two points along +x bin to the same pixel; the 5 m one must win.
        pts = util.records([[7.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        img = build_range_image(pts, SENSOR)
        assert int(np.sum(img.valid)) == 1
        assert img.channels[4, 32, 256] == 5.0

    def test_tie_breaks_by_input_index(self):
        a = [5.0, 0.0, 0.0, 0.25]
        b = [5.0, 0.0, 0.0, 0.75]
        img_ab = build_range_image(np.array([a, b]), SENSOR)
        img_ba = build_range_image(np.array([b, a]), SENSOR)
        assert img_ab.channels[3, 32, 256] == 0.25
        assert img_ba.channels[3, 32, 256] == 0.75

    def test_permuting_distinct_ranges_is_invariant(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-20, 20, size=(300, 4))
        pts[:, 3] = np.clip(pts[:, 3] / 40 + 0.5, 0, 1)
        img = build_range_image(pts, SENSOR)
        perm = rng.permutation(300)
        img_p = build_range_image(pts[perm], SENSOR)
        np.testing.assert_array_equal(img.channels, img_p.channels)
        np.testing.assert_array_equal(img.valid, img_p.valid)

    def test_empty_cloud(self):
        img = build_range_image(np.zeros((0, 4)), SENSOR)
        assert not img.valid.any()
        assert not img.channels.any()

    def test_out_of_fov_counted(self, caplog):
        with caplog.at_level("INFO"):
            img = build_range_image(np.array([[0.0, 0.0, 5.0, 0.5]]), SENSOR)
        assert not img.valid.any()
        assert "1 point(s) outside" in caplog.text

    def test_leaves_the_callers_array_unchanged(self):
        # Intensity 1.5 is clipped in the image, not in the caller's rows.
        pts = np.array([[5.0, 0.0, 0.0, 1.5]])
        img = build_range_image(pts, SENSOR)
        assert img.channels[3, 32, 256] == 1.0
        np.testing.assert_array_equal(pts, [[5.0, 0.0, 0.0, 1.5]])

    @pytest.mark.parametrize(
        "pts",
        [
            [[np.nan, 0.0, 0.0, 0.5], [10.0, 0.0, 0.0, 0.5]],
            [[5.0, np.inf, 0.0, 0.5]],
            [[5.0, 0.0, -np.inf, 0.5]],
        ],
    )
    def test_rejects_nonfinite_coordinates(self, pts):
        with pytest.raises(ValueError, match="must be finite; row 0 is not"):
            build_range_image(np.array(pts), SENSOR)

    def test_rejects_a_range_that_overflows(self):
        # Finite coordinates whose |xyz| overflows: the derived range is
        # checked too, after NumPy's overflow warning.
        pts = np.array([[5.0, 0.0, 0.0, 0.5], [1e200, 0.0, 0.0, 0.5]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="must be finite; row 1 is not"):
                build_range_image(pts, SENSOR)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,), (1, 2, 4)])
    def test_rejects_rows_that_are_not_records(self, shape):
        message = re.escape(f"point records must be (N, 4) x y z intensity, got {shape}")
        with pytest.raises(ValueError, match=message):
            build_range_image(np.ones(shape), SENSOR)

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, 0.0, 5.0, np.nan]],  # out of view
            [[5.0, 0.0, 0.0, 0.5], [7.0, 0.0, 0.0, np.inf]],  # loses its pixel
        ],
    )
    def test_rejects_nonfinite_intensity_of_dropped_points(self, pts):
        with pytest.raises(ValueError, match="point intensity must be finite"):
            build_range_image(np.array(pts), SENSOR)

    def test_clamps_intensity_with_a_warning(self, caplog):
        with caplog.at_level("WARNING"):
            img = build_range_image(np.array([[5.0, 0.0, 0.0, 7.0]]), SENSOR)
        assert img.channels[3, 32, 256] == 1.0
        assert "point intensity: clamped 1 value(s)" in caplog.text

    def test_stored_point_within_quantization_bound(self):
        rng = np.random.default_rng(17)
        pts = util.records(rng.uniform(-30, 30, size=(500, 3)))
        img = build_range_image(pts, SENSOR)
        bound_scale = max(
            SENSOR.fov_total / SENSOR.height, 2 * math.pi / SENSOR.width
        )
        rows, cols = np.nonzero(img.valid)
        for row, col in zip(rows, cols):
            r = img.channels[4, row, col]
            center = pixel_to_point(
                PixelCoord(col + 0.5, row + 0.5, float(r)), SENSOR
            )
            stored = img.channels[:3, row, col]
            err = np.linalg.norm(stored - [center.x, center.y, center.z])
            assert err <= r * bound_scale


def lexsort_image(pts):
    """The oracle's image of records `pts` (intensities in [0, 1]), ranked
    by |xyz|."""
    u, v, r, in_fov = project_points(pts[:, :3], SENSOR)
    rows = np.column_stack([pts, r])
    return oracles.range_image_lexsort(rows, u, v, r, in_fov, SENSOR.height, SENSOR.width)


def assert_matches_lexsort(pts):
    img = build_range_image(pts, SENSOR)
    planes, valid = lexsort_image(pts)
    assert img.channels.tobytes() == planes.tobytes()
    assert img.valid.tobytes() == valid.tobytes()
    return img


def pixel_of(pts):
    u, v, _, in_fov = project_points(np.asarray(pts)[:, :3], SENSOR)
    assert in_fov.all()
    return np.floor(v).astype(np.int64), np.floor(u).astype(np.int64)


class TestBinningMatchesLexsortOracle:
    def test_exact_range_ties_at_one_pixel(self):
        # 1000^2 + 1^2 + 2^2 = 1000^2 + 2^2 + 1^2: equal ranges in one
        # pixel, repeated, behind a farther point of lower index.
        pts = np.array([
            [1001.0, 1.0, 2.0, 0.9],
            [1000.0, 2.0, 1.0, 0.1],
            [1000.0, 1.0, 2.0, 0.2],
            [1000.0, 2.0, 1.0, 0.3],
            [1000.0, 1.0, 2.0, 0.4],
        ])
        rows, cols = pixel_of(pts)
        assert len(set(zip(rows, cols))) == 1
        r = project_points(pts[:, :3], SENSOR)[2]
        assert np.all(r[1:] == r[1]) and r[0] > r[1]
        rng = np.random.default_rng(41)
        for perm in [np.arange(5)] + [rng.permutation(5) for _ in range(20)]:
            img = assert_matches_lexsort(pts[perm])
            first_tie = perm[np.flatnonzero(perm != 0)[0]]
            assert img.channels[3, rows[0], cols[0]] == pts[first_tie, 3]

    @pytest.mark.parametrize("direction", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    def test_ranges_one_ulp_apart(self, direction):
        # Along an axis |xyz| is the coordinate, so the ranges are one ulp
        # apart; the nearer point wins in either input order.
        near = np.array([[*direction, 0.25]], dtype=np.float64)
        near[0, :3] *= 5.0
        far = near.copy()
        far[0, :3] = np.nextafter(near[0, :3], 2.0 * near[0, :3])
        far[0, 3] = 0.75
        r = project_points(np.vstack([near, far])[:, :3], SENSOR)[2]
        assert r[1] == np.nextafter(r[0], np.inf)
        row, col = pixel_of(near)
        for pts in (np.vstack([near, far]), np.vstack([far, near])):
            img = assert_matches_lexsort(pts)
            assert img.valid.sum() == 1
            assert img.channels[3, row[0], col[0]] == 0.25

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_input_order(self, seed):
        # A narrow cone packs 600 rows into few pixels; every tenth row is
        # repeated with another intensity, so exact ties are common too.
        rng = np.random.default_rng(60 + seed)
        n = 600
        theta = rng.uniform(-0.05, 0.05, n)
        phi = rng.uniform(-0.05, 0.05, n)
        r = rng.uniform(4.0, 6.0, n)
        pts = np.column_stack([
            r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta),
            r * np.sin(phi), rng.uniform(0.0, 1.0, n),
        ])
        twins = pts[::10].copy()
        twins[:, 3] = rng.uniform(0.0, 1.0, twins.shape[0])
        pts = np.vstack([pts, twins])
        for _ in range(5):
            pts = pts[rng.permutation(pts.shape[0])]
            img = assert_matches_lexsort(pts)
            assert img.valid.sum() < pts.shape[0]

    def test_all_out_of_view(self):
        pts = np.array([[0.0, 0.0, 5.0, 0.5], [1.0, 0.0, -10.0, 0.5], [0.1, 0.2, 3.0, 0.5]])
        img = assert_matches_lexsort(pts)
        assert not img.valid.any()

    def test_pixel_collisions_logged(self, caplog):
        pts = util.records([[7.0, 0.0, 0.0], [5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        with caplog.at_level("INFO"):
            img = build_range_image(pts, SENSOR)
        assert int(img.valid.sum()) == 2
        assert "build_range_image: 2 in-view point(s) lost their pixel" in caplog.text
        caplog.clear()
        with caplog.at_level("INFO"):
            build_range_image(pts[1:], SENSOR)
        assert "1 in-view point(s) lost their pixel" in caplog.text
        caplog.clear()
        with caplog.at_level("INFO"):
            build_range_image(pts[[0, 3]], SENSOR)
        assert "lost their pixel" not in caplog.text


class TestRedeemFeaturePoints:
    def make_image(self, seed=18, planes_extra=3):
        rng = np.random.default_rng(seed)
        pts = util.records(rng.uniform(-25, 25, size=(800, 3)))
        img = build_range_image(pts, SENSOR)
        feats = rng.normal(size=(planes_extra, SENSOR.height, SENSOR.width))
        return img.with_features(feats * img.valid)

    def test_count_equals_popcount(self):
        img = self.make_image()
        cloud = redeem_feature_points(img)
        assert len(cloud) == int(np.sum(img.valid))

    def test_matches_gather_oracle(self):
        img = self.make_image()
        cloud = redeem_feature_points(img)
        pixels = oracles.scan_valid_pixels(img.valid)
        vecs = oracles.gather_pixel_vectors(img.channels, pixels)
        np.testing.assert_array_equal(cloud.xyz, vecs[:, :3])
        np.testing.assert_array_equal(cloud.intensity, vecs[:, 3])
        np.testing.assert_array_equal(cloud.features, vecs[:, 5:])

    def test_singleton_image(self):
        pts = np.array([[5.0, 0.0, 0.0, 0.5]])
        img = build_range_image(pts, SENSOR)
        img = img.with_features(np.full((2, SENSOR.height, SENSOR.width), 3.0) * img.valid)
        cloud = redeem_feature_points(img)
        assert len(cloud) == 1
        np.testing.assert_array_equal(cloud.features, [[3.0, 3.0]])
        np.testing.assert_array_equal(cloud.xyz, [[5.0, 0.0, 0.0]])

    def test_empty_image(self):
        img = build_range_image(np.zeros((0, 4)), SENSOR)
        cloud = redeem_feature_points(img)
        assert len(cloud) == 0
