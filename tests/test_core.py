"""Domain type invariants and config loading."""

import inspect
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import util
from rvredeem import core
from rvredeem.core import (
    Box3D,
    ConfigError,
    FeaturePointCloud,
    PipelineConfig,
    Point,
    RangeImage,
    SensorModel,
    SGridConfig,
    clamp_intensity,
    frozen_array,
    load_config,
    normalize_yaw,
    parse_kv_file,
    points_to_array,
)
from rvredeem.pointops import SharedMlp, VoxelGrid
from rvredeem.rvfe import BasicBlockParams, BranchParams
from rvredeem.sgrid import SGridParams, auto_radius
from rvredeem.synth import SyntheticScene, parse_synth_spec


def make_sensor(h=4, w=8):
    return SensorModel(height=h, width=w, fov_up=math.pi / 8, fov_down=math.pi / 8)


class TestSensorModel:
    def test_fov_total(self):
        s = SensorModel(64, 512, 0.1, 0.3)
        assert s.fov_total == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(height=0, width=8, fov_up=0.1, fov_down=0.1),
            dict(height=4, width=0, fov_up=0.1, fov_down=0.1),
            dict(height=4, width=8, fov_up=-0.1, fov_down=0.1),
            dict(height=4, width=8, fov_up=0.0, fov_down=0.0),
            dict(height=4, width=8, fov_up=2.0, fov_down=2.0),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            SensorModel(**kwargs)


class TestPoint:
    def test_derives_range(self):
        p = Point(3.0, 4.0, 0.0)
        assert p.range == 5.0

    def test_accepts_consistent_range(self):
        p = Point(1.0, 2.0, 2.0, 0.5, 3.0)
        assert p.range == 3.0

    def test_rejects_inconsistent_range(self):
        with pytest.raises(ValueError):
            Point(3.0, 4.0, 0.0, 0.0, 5.1)

    def test_clamps_intensity(self, caplog):
        with caplog.at_level("WARNING"):
            p = Point(1.0, 0.0, 0.0, 1.5)
        assert p.intensity == 1.0
        assert "clamped" in caplog.text

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_intensity(self, value):
        with pytest.raises(ValueError, match="point intensity must be finite"):
            Point(1.0, 0.0, 0.0, value)


class TestClampIntensity:
    def test_rejects_nonfinite_naming_the_key(self):
        with pytest.raises(ValueError, match="^scan intensity must be finite$"):
            clamp_intensity(np.array([0.5, math.nan]), "scan intensity")

    def test_clamps_finite_values_outside_the_unit_interval(self, caplog):
        with caplog.at_level("WARNING"):
            out = clamp_intensity(np.array([-0.5, 0.25, 2.0]), "scan intensity")
        np.testing.assert_array_equal(out, [0.0, 0.25, 1.0])
        assert "scan intensity: clamped 2 value(s)" in caplog.text


class TestPointsToArray:
    def test_from_list(self):
        arr = points_to_array([[3.0, 4.0, 0.0, 0.25]])
        assert arr.shape == (1, 5)
        np.testing.assert_allclose(arr[0], [3.0, 4.0, 0.0, 0.25, 5.0])

    def test_derives_range_column(self):
        arr = points_to_array(np.array([[3.0, 4.0, 0.0, 0.1]]))
        assert arr[0, 4] == 5.0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            points_to_array(np.zeros((2, 2)))

    def test_rejects_range_column_that_disagrees_with_xyz(self):
        # Same tolerance and message as Point.
        message = "stored range 99.0 disagrees with |xyz| = 5.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            points_to_array([[1.0, 2.0, 2.0, 0.0, 3.0], [5.0, 0.0, 0.0, 0.5, 99.0]])
        with pytest.raises(ValueError, match=re.escape(message)):
            Point(5.0, 0.0, 0.0, 0.5, 99.0)

    def test_accepts_range_column_within_tolerance(self):
        arr = points_to_array([[3.0, 4.0, 0.0, 0.5, 5.0 * (1 + 5e-10)]])
        assert arr[0, 4] == 5.0 * (1 + 5e-10)


class TestRangeImage:
    def make_image(self):
        s = make_sensor()
        planes = np.zeros((5, 4, 8))
        valid = np.zeros((4, 8), dtype=bool)
        valid[1, 2] = True
        planes[:, 1, 2] = [3.0, 0.0, 4.0, 0.5, 5.0]
        return RangeImage(s, planes, valid)

    def test_accepts_consistent(self):
        img = self.make_image()
        assert img.plane_count == 5
        assert not img.channels.flags.writeable

    def test_rejects_nonzero_invalid_pixel(self):
        s = make_sensor()
        planes = np.zeros((5, 4, 8))
        planes[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            RangeImage(s, planes, np.zeros((4, 8), dtype=bool))

    def test_rejects_subnormal_feature_at_invalid_pixel(self):
        s = make_sensor()
        planes = np.zeros((7, 4, 8))
        planes[6, 3, 5] = 5e-324
        with pytest.raises(ValueError, match="invalid pixels must hold 0"):
            RangeImage(s, planes, np.zeros((4, 8), dtype=bool))

    def test_accepts_negative_zero_at_invalid_pixel(self):
        s = make_sensor()
        planes = np.zeros((7, 4, 8))
        planes[6, 3, 5] = -0.0
        planes[0, 0, 0] = -0.0
        img = RangeImage(s, planes, np.zeros((4, 8), dtype=bool))
        assert np.signbit(img.channels[6, 3, 5])

    def test_rejects_zero_range_at_valid_pixel(self):
        s = make_sensor()
        planes = np.zeros((5, 4, 8))
        valid = np.zeros((4, 8), dtype=bool)
        valid[0, 0] = True
        planes[0, 0, 0] = 1.0  # range plane stays 0
        with pytest.raises(ValueError):
            RangeImage(s, planes, valid)

    def test_with_features_rejects_values_at_invalid_pixels(self):
        img = self.make_image()
        with pytest.raises(ValueError, match="invalid pixels must hold 0"):
            img.with_features(np.ones((2, 4, 8)))
        feats = np.ones((2, 4, 8)) * img.valid
        out = img.with_features(feats)
        assert out.plane_count == 7
        assert out.channels[5, 0, 0] == 0.0
        assert out.channels[5, 1, 2] == 1.0
        np.testing.assert_array_equal(out.channels[:5], img.channels[:5])

    def test_with_features_copies_once(self):
        # The constructor's copy stacks the planes; stacking them first in a
        # buffer of its own held about twice the result's bytes.
        rng = np.random.default_rng(31)
        img = util.random_image(rng, 64, 512, density=0.3)
        feats = rng.normal(size=(32, 64, 512)) * img.valid
        tracemalloc.start()
        try:
            out = img.with_features(feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out.feature_planes, feats)
        assert peak < 1.5 * out.channels.nbytes

    def test_with_features_never_captures_the_callers_features(self):
        img = util.random_image(np.random.default_rng(6), 6, 9)
        feats = np.random.default_rng(7).normal(size=(3, 6, 9)) * img.valid
        out = img.with_features(feats)
        before = out.channels.copy()
        feats[:, img.valid] += 1.0
        assert feats.flags.writeable and not np.shares_memory(feats, out.channels)
        assert out.channels.tobytes() == before.tobytes()


class TestFeaturePointCloud:
    def test_sizes(self):
        cloud = FeaturePointCloud(
            [[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]],
            [0.5, 0.25],
            np.arange(4.0).reshape(2, 2),
        )
        assert len(cloud) == 2
        assert cloud.feature_dim == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            FeaturePointCloud(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 1)))


class TestBox3D:
    def test_yaw_wraps(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, math.pi).yaw == pytest.approx(math.pi)

    def test_normalize_yaw_range(self):
        for k in range(-8, 9):
            a = normalize_yaw(0.7 + k * math.tau)
            assert -math.pi < a <= math.pi
            assert a == pytest.approx(0.7, abs=1e-12)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, 0.0, 1, 0)

    # Pooling radii need the squared diagonal. The first case's length
    # squared overflows; in the other two every square is finite and only
    # their sum overflows.
    @pytest.mark.parametrize(
        "sizes", [(1e300, 1.0, 1.0), (1.0, 1.3e154, 1.3e154), (1e154, 1e154, 1e154)]
    )
    def test_rejects_sizes_whose_squared_diagonal_overflows(self, sizes):
        with pytest.raises(
            ValueError, match=r"^box length\^2 \+ width\^2 \+ height\^2 must be finite$"
        ):
            Box3D(0, 0, 0, *sizes, 0)

    def test_largest_boxes_keep_a_finite_auto_radius(self):
        box = Box3D(0, 0, 0, 1e154, 1e153, 1.0, 0)
        assert math.isfinite(auto_radius(box, 1))


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig(sensor=make_sensor())
        assert cfg.feature_dim == 64
        assert cfg.sgrid.fine_grid == 3

    def test_rejects_odd_feature_dim(self):
        with pytest.raises(ValueError, match="feature_dim"):
            PipelineConfig(sensor=make_sensor(), feature_dim=63)

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ({"range_min": (-1e308, 0, 0), "range_max": (1e308, 1, 1)},
             r"^voxel_size splits the range into \[inf, 3.0, 4.0\] cells"),
            ({"voxel_size": (1e-300, 0.4, 0.25)}, r"^voxel_size splits the range into \[9.6e\+301"),
            ({"voxel_size": (0.4, 0.0, 0.25)},
             r"^voxel_size must be finite and positive, got \[0.4, 0.0, 0.25\]$"),
            ({"range_max": (48.0, -48.0, 3.0)}, r"^grid range must satisfy max > min$"),
        ],
        ids=["extent", "cells", "zero-size", "empty-y"],
    )
    def test_grid_shape_checks_the_geometry(self, geometry, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(sensor=make_sensor(), **geometry)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                sensor=make_sensor(), range_min=(0, 0, 0), range_max=(1, -1, 1)
            )

    def test_sgrid_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SGridConfig(upsample_mode="cubic")


CONFIG_TEXT = """
# scanner geometry
sensor.height = 64
sensor.width = 512
sensor.fov_up_deg = 2.0
sensor.fov_down_deg = 24.8

rvfe.conv_channels = 16
rvfe.feature_dim = 32
keypoints.count = 256
voxel.size_z = 0.5
sgrid.fine_radius = 0.8
sgrid.coarse_radius = auto
seed = 7
"""


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "pipeline.cfg"
        path.write_text(text)
        return path

    def test_parses_full_file(self, tmp_path):
        cfg = load_config(self.write(tmp_path, CONFIG_TEXT))
        assert cfg.sensor.height == 64
        assert cfg.sensor.fov_up == pytest.approx(math.radians(2.0))
        assert cfg.sensor.fov_down == pytest.approx(math.radians(24.8))
        assert cfg.conv_channels == 16
        assert cfg.feature_dim == 32
        assert cfg.keypoint_count == 256
        assert cfg.voxel_size == (0.4, 0.4, 0.5)
        assert cfg.sgrid.fine_radius == 0.8
        assert cfg.sgrid.coarse_radius is None
        assert cfg.seed == 7

    def test_same_file_same_config(self, tmp_path):
        path = self.write(tmp_path, CONFIG_TEXT)
        assert load_config(path) == load_config(path)

    def test_missing_key_named(self, tmp_path):
        no_fov_down = "sensor.height = 64\nsensor.width = 512\nsensor.fov_up = 0.1\n"
        cases = [
            ("sensor.height = 64\n", "sensor.width"),
            (
                no_fov_down,
                r"^missing required key: sensor\.fov_down \(or sensor\.fov_down_deg\)$",
            ),
        ]
        for text, message in cases:
            with pytest.raises(ConfigError, match=message):
                load_config(self.write(tmp_path, text))

    def test_unknown_key_named(self, tmp_path):
        path = self.write(tmp_path, CONFIG_TEXT + "sensor.tilt = 3\n")
        with pytest.raises(ConfigError, match="sensor.tilt"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_rad_and_deg_conflict(self, tmp_path):
        text = CONFIG_TEXT + "sensor.fov_up = 0.03\n"
        with pytest.raises(ConfigError, match="fov_up"):
            load_config(self.write(tmp_path, text))

    def test_bad_number_named(self, tmp_path):
        cases = [
            ("seed = 7", "seed = seven", "seed"),
            (
                "sgrid.fine_radius = 0.8",
                "sgrid.fine_radius = far",
                r"^sgrid\.fine_radius: expected a number or `auto`, got 'far'$",
            ),
            (
                "sensor.fov_down_deg = 24.8",
                "sensor.fov_down_deg = steep",
                r"^sensor\.fov_down_deg: expected a number, got 'steep'$",
            ),
        ]
        for old, new, message in cases:
            text = CONFIG_TEXT.replace(old, new)
            with pytest.raises(ConfigError, match=message):
                load_config(self.write(tmp_path, text))

    def test_bad_boolean_named(self, tmp_path):
        text = CONFIG_TEXT + "rvfe.wrap_horizontal = maybe\n"
        with pytest.raises(
            ConfigError,
            match=r"^rvfe\.wrap_horizontal: expected a boolean, got 'maybe'$",
        ):
            load_config(self.write(tmp_path, text))

    def test_sensor_only_file_takes_every_default(self, tmp_path):
        text = "sensor.height = 8\nsensor.width = 16\nsensor.fov_up = 0.1\nsensor.fov_down = 0.3\n"
        assert load_config(self.write(tmp_path, text)) == PipelineConfig(
            sensor=SensorModel(8, 16, 0.1, 0.3)
        )

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 7])
    def test_seed_beyond_64_bits_rejected_at_load(self, tmp_path, seed):
        text = CONFIG_TEXT.replace("seed = 7", f"seed = {seed}")
        message = f"config: seed must lie in [0, 2^64), got {seed}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(self.write(tmp_path, text))

    def test_largest_seed_loads(self, tmp_path):
        text = CONFIG_TEXT.replace("seed = 7", f"seed = {2**64 - 1}")
        assert load_config(self.write(tmp_path, text)).seed == 2**64 - 1

    def test_invariant_violation_reported(self, tmp_path):
        text = CONFIG_TEXT.replace("rvfe.feature_dim = 32", "rvfe.feature_dim = 33")
        with pytest.raises(ConfigError, match="feature_dim"):
            load_config(self.write(tmp_path, text))

    def test_empty_value_rejected(self, tmp_path):
        for key in ("sgrid.upsample_mode", "sgrid.neighbor_cap", "rvfe.wrap_horizontal"):
            text = CONFIG_TEXT + f"{key} =\n"
            with pytest.raises(ConfigError, match=rf"^{key}: expected .*, got ''$"):
                load_config(self.write(tmp_path, text))

    def test_nonfinite_voxel_bound_named(self, tmp_path):
        for key, value in (("max_x", "inf"), ("min_y", "-inf"), ("max_z", "nan")):
            text = CONFIG_TEXT + f"voxel.{key} = {value}\n"
            with pytest.raises(
                ConfigError, match=rf"^config: voxel {key} must be finite$"
            ):
                load_config(self.write(tmp_path, text))

    @pytest.mark.parametrize(
        "keys, cells",
        [
            ("voxel.min_x = -1e308\nvoxel.max_x = 1e308\n", "[inf, 240.0, 12.0]"),
            ("voxel.size_x = 1e-300\n", "[9.6e+301, 240.0, 12.0]"),
        ],
        ids=["extent", "cells"],
    )
    def test_voxel_geometry_out_of_reach_rejected_at_load(self, tmp_path, keys, cells):
        message = f"config: voxel_size splits the range into {cells} cells, not 1 to 2**63 - 1"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(self.write(tmp_path, CONFIG_TEXT + keys))

    def test_coarse_grid_other_than_two_rejected(self, tmp_path):
        for size in (1, 3):
            text = CONFIG_TEXT + f"sgrid.coarse_grid = {size}\n"
            with pytest.raises(ConfigError, match="coarse_grid must be 2"):
                load_config(self.write(tmp_path, text))


REPO = Path(__file__).resolve().parents[1]
SHIPPED_FILES = sorted(
    path
    for folder in ("configs", "perfbench/workloads")
    for path in (REPO / folder).iterdir()
    if path.suffix in (".cfg", ".synth")
)


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "path", SHIPPED_FILES, ids=lambda path: path.relative_to(REPO).as_posix()
    )
    def test_loads(self, path):
        if path.suffix == ".cfg":
            assert isinstance(load_config(path), PipelineConfig)
            # Every shipped pipeline config spells out every key.
            assert parse_kv_file(path).keys() == parse_kv_file(
                REPO / "configs" / "default.cfg"
            ).keys()
        else:
            parse_synth_spec(path)

    def test_default_cfg_shows_the_defaults(self):
        sensor = SensorModel(64, 512, math.radians(2.0), math.radians(24.8))
        assert load_config(REPO / "configs" / "default.cfg") == PipelineConfig(sensor=sensor)


def _range_image_arrays():
    channels = np.zeros((5, 4, 8))
    valid = np.zeros((4, 8), dtype=bool)
    valid[1, 2] = True
    channels[:, 1, 2] = [3.0, 0.0, 4.0, 0.5, 5.0]
    return {"channels": channels, "valid": valid}


def _mlp_arrays():
    return {
        "layers[0] weight": np.ones((2, 3)),
        "layers[0] bias": np.zeros(2),
        "layers[1] weight": np.ones((1, 2)),
        "layers[1] bias": np.zeros(1),
    }


def _mlp(a):
    return SharedMlp(tuple((a[f"layers[{i}] weight"], a[f"layers[{i}] bias"]) for i in range(2)))


def _sgrid_params(a):
    mlp = SharedMlp(((np.ones((2, 2)), np.zeros(2)),))
    return SGridParams(mlp, mlp, mlp, **a)


def _scene(a):
    box = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
    cloud = FeaturePointCloud([[1.0, 0.2, -0.3]], [0.5], np.empty((1, 0)))
    return SyntheticScene((box,), cloud, **a)


# Type -> (fresh writable input arrays by field name, constructor from them).
KEPT_ARRAYS = {
    "RangeImage": (_range_image_arrays, lambda a: RangeImage(make_sensor(), **a)),
    "FeaturePointCloud": (
        lambda: {"xyz": np.ones((2, 3)), "intensity": np.full(2, 0.5), "features": np.ones((2, 4))},
        lambda a: FeaturePointCloud(**a),
    ),
    "BranchParams": (
        lambda: {
            "w1": np.ones((2, 3)),
            "b1": np.zeros(2),
            "w2": np.ones((1, 2)),
            "b2": np.zeros(1),
            "w_acc": np.ones((1, 9)),
            "b_acc": np.zeros(1),
        },
        lambda a: BranchParams(**a),
    ),
    "BasicBlockParams": (
        lambda: {
            "conv1": np.ones((2, 1, 3, 3)),
            "scale1": np.ones(2),
            "shift1": np.zeros(2),
            "conv2": np.ones((2, 2, 3, 3)),
            "scale2": np.ones(2),
            "shift2": np.zeros(2),
            "proj": np.ones((2, 1)),
        },
        lambda a: BasicBlockParams(**a),
    ),
    "VoxelGrid": (
        lambda: {
            "voxels": np.array([[0, 0, 0], [1, 1, 1]]),
            "counts": np.array([1, 2]),
            "means": np.ones((2, 3)),
        },
        lambda a: VoxelGrid((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 2.0, 2.0), **a),
    ),
    "SharedMlp": (_mlp_arrays, _mlp),
    "SGridParams": (
        lambda: {
            "w_conf": np.ones((1, 2)),
            "b_conf": np.zeros(1),
            "w_res": np.ones((7, 2)),
            "b_res": np.zeros(7),
        },
        _sgrid_params,
    ),
    "SyntheticScene": (lambda: {"labels": np.array([0])}, _scene),
}


def _kept_arrays(obj) -> dict:
    if isinstance(obj, SharedMlp):
        return {
            f"layers[{i}] {part}": arr
            for i, layer in enumerate(obj.layers)
            for part, arr in zip(("weight", "bias"), layer)
        }
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {name: v for name, v in values.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("kind", sorted(KEPT_ARRAYS))
def test_kept_arrays_are_frozen_finite_copies(kind):
    make_arrays, build = KEPT_ARRAYS[kind]
    given = make_arrays()
    kept = _kept_arrays(build(given))
    assert kept.keys() == given.keys()
    before = {name: arr.copy() for name, arr in kept.items()}
    for arr in given.values():
        arr[...] = ~arr if arr.dtype == bool else arr + 1
        assert arr.flags.writeable
    for name, arr in kept.items():
        np.testing.assert_array_equal(arr, before[name])
        assert not arr.flags.writeable and arr.flags.c_contiguous
    for name in (name for name, arr in given.items() if arr.dtype.kind == "f"):
        bad = make_arrays()
        bad[name].flat[0] = np.nan
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
            build(bad)


class TestFrozenArray:
    def test_rejects_fractional_input_for_an_integer_dtype(self):
        with pytest.raises(ValueError, match="^counts must be integers, got dtype float64$"):
            frozen_array("counts", np.array([1.5]), np.int64)

    def test_copies_even_a_frozen_contiguous_input(self):
        first = frozen_array("a", np.arange(3.0))
        assert not np.shares_memory(first, frozen_array("a", first))

    def test_setflags_appears_only_in_frozen_array(self):
        lines, start = inspect.getsourcelines(frozen_array)
        home = Path(core.__file__)
        allowed = {(home, n) for n in range(start, start + len(lines))}
        found = {
            (path, n)
            for path in sorted(home.parent.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "setflags(" in line
        }
        assert found and found <= allowed
