"""Synthetic scene generator: draw order, surface invariant, spec parsing."""

import math

import numpy as np
import pytest

from rvredeem.core import Box3D, ConfigError, FeaturePointCloud
from rvredeem.rng import STREAM_SCENE, DetRng, derive_seed
from rvredeem.synth import (
    SynthSpec,
    SyntheticScene,
    gen_synthetic_scene,
    parse_synth_spec,
)


def single_point_scene_parts(xyz_row):
    box = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
    cloud = FeaturePointCloud(
        np.array([xyz_row], dtype=np.float64), np.array([0.5]), np.empty((1, 0))
    )
    return box, cloud


class TestGenerator:
    def test_same_seed_bitwise_identical(self):
        spec = SynthSpec(
            box_count=3, box_density=5.0, ground_density=0.4, extent=12.0, seed=9
        )
        a = gen_synthetic_scene(spec)
        b = gen_synthetic_scene(spec)
        assert a.boxes == b.boxes
        assert a.cloud.xyz.tobytes() == b.cloud.xyz.tobytes()
        assert a.cloud.intensity.tobytes() == b.cloud.intensity.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        base = dict(box_count=2, box_density=5.0, ground_density=0.4, extent=12.0)
        a = gen_synthetic_scene(SynthSpec(seed=0, **base))
        b = gen_synthetic_scene(SynthSpec(seed=1, **base))
        assert a.cloud.xyz.tobytes() != b.cloud.xyz.tobytes()

    def test_pose_draws_replay_in_documented_order(self):
        # Zero densities leave only the six pose draws per box, so the boxes
        # must match a manual replay of the stream draw for draw.
        spec = SynthSpec(
            box_count=2, box_density=0.0, ground_density=0.0, extent=20.0, seed=11
        )
        scene = gen_synthetic_scene(spec)
        rng = DetRng(derive_seed(11, STREAM_SCENE))
        for box in scene.boxes:
            cx = rng.uniform(-20.0, 20.0)
            cy = rng.uniform(-20.0, 20.0)
            length = rng.uniform(3.2, 4.8)
            width = rng.uniform(1.6, 2.0)
            height = rng.uniform(1.4, 1.8)
            yaw = rng.uniform(-math.pi, math.pi)
            expected = Box3D(
                cx, cy, -1.7 + height / 2.0, length, width, height, yaw
            )
            assert box == expected

    def test_ground_blocks_replay_the_stream(self):
        # round(0.5 * 8 * 8) = 32 ground points; with no boxes they are the
        # first draws: x block, then y block, then intensity block.
        spec = SynthSpec(
            box_count=0, box_density=0.0, ground_density=0.5, extent=4.0, seed=3
        )
        scene = gen_synthetic_scene(spec)
        rng = DetRng(derive_seed(3, STREAM_SCENE))
        np.testing.assert_array_equal(
            scene.cloud.xyz[:, 0], rng.uniforms(32, -4.0, 4.0)
        )
        np.testing.assert_array_equal(
            scene.cloud.xyz[:, 1], rng.uniforms(32, -4.0, 4.0)
        )
        np.testing.assert_array_equal(scene.cloud.intensity, rng.uniforms(32))

    def test_zero_boxes_gives_ground_only(self):
        spec = SynthSpec(
            box_count=0,
            box_density=9.0,
            ground_density=1.0,
            extent=3.0,
            seed=0,
            ground_z=-2.5,
        )
        scene = gen_synthetic_scene(spec)
        assert scene.boxes == ()
        assert scene.foreground_count == 0
        assert len(scene.cloud) == 36  # round(1.0 * 6 * 6)
        np.testing.assert_array_equal(scene.labels, np.full(36, -1))
        np.testing.assert_array_equal(scene.cloud.xyz[:, 2], np.full(36, -2.5))

    def test_point_counts_follow_density_times_area(self):
        spec = SynthSpec(
            box_count=3, box_density=4.0, ground_density=0.3, extent=5.0, seed=2
        )
        scene = gen_synthetic_scene(spec)
        per_box = np.bincount(scene.labels[scene.labels >= 0], minlength=3)
        for index, box in enumerate(scene.boxes):
            area = 2.0 * (
                box.length * box.width
                + box.length * box.height
                + box.width * box.height
            )
            assert per_box[index] == round(4.0 * area)
        assert scene.background_count == 30  # round(0.3 * 10 * 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_foreground_points_lie_on_a_face(self, seed):
        spec = SynthSpec(
            box_count=3, box_density=6.0, ground_density=0.0, extent=15.0, seed=seed
        )
        scene = gen_synthetic_scene(spec)
        assert scene.background_count == 0
        for index, box in enumerate(scene.boxes):
            pts = scene.cloud.xyz[scene.labels == index]
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            dx = pts[:, 0] - box.cx
            dy = pts[:, 1] - box.cy
            local = np.stack(
                [c * dx + s * dy, -s * dx + c * dy, pts[:, 2] - box.cz], axis=1
            )
            half = np.array([box.length, box.width, box.height]) / 2.0
            assert np.all(np.abs(local) <= half + 1e-9)
            assert np.abs(np.abs(local) - half).min(axis=1).max() <= 1e-9

    def test_boxes_rest_on_the_ground_plane(self):
        spec = SynthSpec(
            box_count=4,
            box_density=1.0,
            ground_density=0.0,
            extent=10.0,
            seed=5,
            ground_z=-1.2,
        )
        scene = gen_synthetic_scene(spec)
        for box in scene.boxes:
            assert box.cz == -1.2 + box.height / 2.0

    def test_intensity_in_unit_interval(self):
        spec = SynthSpec(
            box_count=2, box_density=8.0, ground_density=0.5, extent=8.0, seed=4
        )
        scene = gen_synthetic_scene(spec)
        assert scene.cloud.intensity.min() >= 0.0
        assert scene.cloud.intensity.max() < 1.0


class TestSceneValidation:
    def test_on_face_point_accepted(self):
        box, cloud = single_point_scene_parts([1.0, 0.2, -0.3])
        scene = SyntheticScene((box,), cloud, np.array([0]))
        assert scene.foreground_count == 1
        assert scene.background_count == 0

    def test_interior_point_rejected(self):
        box, cloud = single_point_scene_parts([0.5, 0.2, -0.3])
        with pytest.raises(ValueError, match="off the surface"):
            SyntheticScene((box,), cloud, np.array([0]))

    def test_outside_point_rejected(self):
        box, cloud = single_point_scene_parts([1.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="off the surface"):
            SyntheticScene((box,), cloud, np.array([0]))

    def test_rotation_respected_by_the_check(self):
        # The +x face of a box yawed by 90 degrees faces +y in world space.
        box = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, math.pi / 2.0)
        cloud = FeaturePointCloud(
            np.array([[0.0, 1.0, 0.0]]), np.array([0.5]), np.empty((1, 0))
        )
        scene = SyntheticScene((box,), cloud, np.array([0]))
        assert scene.foreground_count == 1

    def test_label_shape_checked(self):
        box, cloud = single_point_scene_parts([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="labels"):
            SyntheticScene((box,), cloud, np.array([0, 0]))

    def test_label_range_checked(self):
        box, cloud = single_point_scene_parts([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="box index"):
            SyntheticScene((box,), cloud, np.array([1]))
        with pytest.raises(ValueError, match="box index"):
            SyntheticScene((box,), cloud, np.array([-2]))

    def test_fractional_labels_rejected(self):
        box, cloud = single_point_scene_parts([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="labels must be integers"):
            SyntheticScene((box,), cloud, np.array([0.5]))


class TestSpecValidation:
    def test_negative_box_count_rejected(self):
        with pytest.raises(ConfigError, match="box count"):
            SynthSpec(-1, 1.0, 1.0, 5.0, 0)

    def test_negative_density_rejected(self):
        with pytest.raises(ConfigError, match="densities"):
            SynthSpec(1, -1.0, 1.0, 5.0, 0)
        with pytest.raises(ConfigError, match="densities"):
            SynthSpec(1, 1.0, -1.0, 5.0, 0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ConfigError, match="extent"):
            SynthSpec(1, 1.0, 1.0, 0.0, 0)

    def test_nonfinite_ground_z_rejected(self):
        with pytest.raises(ConfigError, match="ground_z"):
            SynthSpec(1, 1.0, 1.0, 5.0, 0, ground_z=math.nan)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_generates_nothing(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            gen_synthetic_scene(SynthSpec(1, 1.0, 1.0, 5.0, seed))


class TestSpecParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "scene.synth"
        path.write_text(text, encoding="utf-8")
        return path

    def test_reads_all_keys(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = 2\nbox_density = 3.5\nground_density = 0.25\n"
            "extent = 9.0\nseed = 17\nground_z = -2.0\n",
        )
        assert parse_synth_spec(path) == SynthSpec(2, 3.5, 0.25, 9.0, 17, -2.0)

    def test_ground_z_defaults(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = 1\nbox_density = 1.0\nground_density = 1.0\n"
            "extent = 5.0\nseed = 0\n",
        )
        assert parse_synth_spec(path).ground_z == -1.7

    def test_seed_required(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = 1\nbox_density = 1.0\nground_density = 1.0\nextent = 5.0\n",
        )
        with pytest.raises(ConfigError, match="seed"):
            parse_synth_spec(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = 1\nbox_density = 1.0\nground_density = 1.0\n"
            "extent = 5.0\nseed = 0\nboxs = 2\n",
        )
        with pytest.raises(ConfigError, match="boxs"):
            parse_synth_spec(path)

    def test_bad_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = 1\nbox_density = 1.0\nground_density = 1.0\n"
            "extent = -5.0\nseed = 0\n",
        )
        with pytest.raises(ConfigError, match="extent"):
            parse_synth_spec(path)

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_outside_64_bits_rejected_at_parse(self, tmp_path, seed):
        path = self.write(
            tmp_path,
            "boxes = 1\nbox_density = 1.0\nground_density = 1.0\n"
            f"extent = 5.0\nseed = {seed}\n",
        )
        with pytest.raises(ConfigError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            parse_synth_spec(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "boxes = many\nbox_density = 1.0\nground_density = 1.0\n"
            "extent = 5.0\nseed = 0\n",
        )
        with pytest.raises(ConfigError, match="integer"):
            parse_synth_spec(path)
