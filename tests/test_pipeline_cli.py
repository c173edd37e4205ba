"""Weight packing, pipeline stages, one-shot runs, and the CLI front end."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rvredeem import formats, pipeline
from rvredeem.cli import build_parser
from rvredeem.cli import main as cli_main
from rvredeem.core import FeaturePointCloud, load_config
from rvredeem.pointops import bev_flatten, furthest_point_sampling, voxelize
from rvredeem.range_geometry import redeem_feature_points
from rvredeem.rvfe import basicblock_forward, hdmk_backward, hdmk_forward, init_basicblock, init_params
from rvredeem.sgrid import SGridConfig, init_sgrid_params
from rvredeem.synth import gen_synthetic_scene, parse_synth_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def benchmark_inputs(name, tmp_path):
    """A benchmark workload's config, points and boxes at seed 0, as
    perfbench/run.py builds them."""
    workloads = PERFBENCH / "workloads"
    cfg = load_config(workloads / f"{name}.cfg")
    spec = dataclasses.replace(parse_synth_spec(workloads / f"{name}.synth"), seed=0)
    scene = gen_synthetic_scene(spec)
    points, boxes = tmp_path / "points.bin", tmp_path / "boxes.txt"
    formats.write_kitti_bin(
        points, np.concatenate([scene.cloud.xyz, scene.cloud.intensity[:, None]], axis=1)
    )
    formats.write_boxes(boxes, scene.boxes)
    return cfg, points, boxes


TOY_CONFIG = """\
sensor.height = 24
sensor.width = 96
sensor.fov_up_deg = 2.0
sensor.fov_down_deg = 24.8
rvfe.conv_channels = 6
rvfe.mlp_hidden = 5
rvfe.feature_dim = 8
keypoints.count = 48
voxel.size_x = 1.0
voxel.size_y = 1.0
voxel.size_z = 0.5
voxel.min_x = -16.0
voxel.min_y = -16.0
voxel.min_z = -3.0
voxel.max_x = 16.0
voxel.max_y = 16.0
voxel.max_z = 3.0
sgrid.neighbor_cap = 8
sgrid.pool_hidden = 6
sgrid.fine_channels = 5
sgrid.coarse_channels = 4
sgrid.head_hidden = 8
seed = 3
"""

TOY_SCENE = """\
boxes = 2
box_density = 8.0
ground_density = 0.8
extent = 12.0
seed = 5
"""

# 3^3 fine cells, each carrying fine_channels + coarse_channels values.
TOY_ROI_LEN = 27 * (5 + 4)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """One shared one-shot pipeline run; tests only read from it."""
    root = tmp_path_factory.mktemp("toy")
    config = root / "toy.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    scene = root / "scene.synth"
    scene.write_text(TOY_SCENE, encoding="utf-8")
    out = root / "run"
    cfg = load_config(config)
    result = pipeline.run_pipeline(cfg, scene, out)
    return SimpleNamespace(
        root=root, config=config, scene=scene, cfg=cfg, out=out, result=result
    )


def read_artifacts(out_dir) -> dict[str, bytes]:
    out_dir = Path(out_dir)
    return {
        name: (out_dir / name).read_bytes()
        for name in pipeline.ARTIFACT_ORDER
        if (out_dir / name).exists()
    }


def write_toy_cloud(path, n=24, d_f=3, seed=0):
    rng = np.random.default_rng(seed)
    cloud = FeaturePointCloud(
        rng.uniform(-10, 10, size=(n, 3)),
        rng.uniform(0, 1, size=n),
        rng.normal(size=(n, d_f)),
    )
    formats.write_rfp1(path, cloud)
    return formats.read_rfp1(path)


def _with(arr, index, value):
    out = arr.copy()
    out[index] = value
    return out


# Corruption name -> (voxel file, edit of its array, expected error text).
# Index 32 is one past the toy grid's x extent.
VOXEL_CORRUPTIONS = {
    "index outside grid": (
        pipeline.VOXEL_IDX_FILE, lambda a: _with(a, (0, 0), 32), "outside grid"
    ),
    "negative index": (
        pipeline.VOXEL_IDX_FILE, lambda a: _with(a, (0, 2), -1), "outside grid"
    ),
    "duplicate index": (
        pipeline.VOXEL_IDX_FILE, lambda a: _with(a, 1, a[0]), "unique"
    ),
    "unsorted indices": (pipeline.VOXEL_IDX_FILE, lambda a: a[::-1], "unique"),
    "zero count": (
        pipeline.VOXEL_COUNT_FILE, lambda a: _with(a, 0, 0), "positive counts"
    ),
    "fractional counts": (pipeline.VOXEL_COUNT_FILE, lambda a: a + 0.5, "integers"),
    "short counts": (pipeline.VOXEL_COUNT_FILE, lambda a: a[:-1], "counts must be"),
    "short means": (pipeline.VOXEL_MEAN_FILE, lambda a: a[:-1], "means must be"),
    "nan mean": (pipeline.VOXEL_MEAN_FILE, lambda a: _with(a, (0, 0), np.nan), "finite"),
}


class TestWeightsPacking:
    def test_rvfe_round_trip_is_lossless(self, tmp_path):
        # init quantizes to the f32 grid, so RWT1 must round-trip exactly.
        block = init_basicblock(7, 6)
        hdmk = init_params(7, (6, 5, 8))
        packed = pipeline.pack_rvfe_weights(block, hdmk)
        formats.write_rwt1(tmp_path / "w.rwt1", packed)
        block2, hdmk2 = pipeline.unpack_rvfe_weights(
            formats.read_rwt1(tmp_path / "w.rwt1")
        )
        repacked = pipeline.pack_rvfe_weights(block2, hdmk2)
        assert sorted(packed) == sorted(repacked)
        for name in packed:
            np.testing.assert_array_equal(packed[name], repacked[name])

    def test_rvfe_projection_is_optional(self, tmp_path):
        # Equal in and out widths skip the projection tensor entirely.
        block = init_basicblock(1, 5)
        assert block.proj is None
        hdmk = init_params(1, (5, 4, 6))
        packed = pipeline.pack_rvfe_weights(block, hdmk)
        assert "block.proj" not in packed
        block2, _ = pipeline.unpack_rvfe_weights(packed)
        assert block2.proj is None

    def test_rvfe_missing_tensor_rejected(self):
        packed = pipeline.pack_rvfe_weights(init_basicblock(0, 4), init_params(0, (4, 3, 6)))
        del packed["hdmk.branch2.b_acc"]
        with pytest.raises(ValueError, match="missing tensor"):
            pipeline.unpack_rvfe_weights(packed)

    def test_rvfe_unexpected_tensor_rejected(self):
        packed = pipeline.pack_rvfe_weights(init_basicblock(0, 4), init_params(0, (4, 3, 6)))
        packed["stray"] = np.zeros(2)
        with pytest.raises(ValueError, match="unexpected tensor"):
            pipeline.unpack_rvfe_weights(packed)

    def test_sgrid_round_trip_is_lossless(self, tmp_path):
        cfg = SGridConfig(pool_hidden=6, fine_channels=5, coarse_channels=4, head_hidden=8)
        params = init_sgrid_params(11, cfg, point_feature_dim=8)
        # init quantizes to the f32 grid, so the file holds exactly the
        # parameters in use; that is why the pool stage never reads it back.
        packed = pipeline.pack_sgrid_weights(params)
        formats.write_rwt1(tmp_path / "s.rwt1", packed)
        loaded = formats.read_rwt1(tmp_path / "s.rwt1")
        assert list(loaded) == list(packed)
        for name in packed:
            np.testing.assert_array_equal(loaded[name], packed[name])


class TestStages:
    def test_stage_synth_writes_points_and_boxes(self, tmp_path):
        spec = tmp_path / "s.synth"
        spec.write_text(
            "boxes = 2\nbox_density = 4.0\nground_density = 0.5\n"
            "extent = 8.0\nseed = 2\n",
            encoding="utf-8",
        )
        info = pipeline.stage_synth(spec, tmp_path)
        records = formats.read_kitti_bin_array(tmp_path / pipeline.POINTS_FILE)
        boxes = formats.read_boxes(tmp_path / pipeline.GT_BOXES_FILE)
        assert info["boxes"] == 2 and len(boxes) == 2
        assert records.shape[0] == info["foreground"] + info["background"]

    def test_stage_fps_gathers_intensity(self, tmp_path, toy):
        cloud_path = tmp_path / "c.rfp1"
        cloud = write_toy_cloud(cloud_path)
        cfg = dataclasses.replace(toy.cfg, keypoint_count=5)
        info = pipeline.stage_fps(cfg, cloud_path, tmp_path)
        assert info == {"requested": 5, "kept": 5}
        kp = formats.read_rfp1(tmp_path / pipeline.KEYPOINTS_FILE)
        chosen = furthest_point_sampling(cloud.xyz, 5)
        np.testing.assert_array_equal(kp.xyz, cloud.xyz[chosen])
        np.testing.assert_array_equal(kp.features, cloud.features[chosen])
        np.testing.assert_array_equal(kp.intensity, cloud.intensity[chosen])

    def test_stage_voxelize_persists_grid_losslessly(self, tmp_path, toy):
        cloud_path = tmp_path / "c.rfp1"
        cloud = write_toy_cloud(cloud_path, n=60)
        info = pipeline.stage_voxelize(toy.cfg, cloud_path, tmp_path)
        grid = pipeline.read_voxel_grid(tmp_path, toy.cfg)
        reference = voxelize(
            cloud, toy.cfg.voxel_size, toy.cfg.range_min, toy.cfg.range_max
        )
        assert info["occupied_voxels"] == len(reference.voxels)
        np.testing.assert_array_equal(bev_flatten(grid), bev_flatten(reference))

    def test_stage_voxelize_counts_points_outside_grid(self, tmp_path, toy):
        # Two points share one voxel; one lies past max x, one below min z.
        xyz = [[0.5, 0.5, 0.0], [0.7, 0.2, 0.1], [40.0, 0.0, 0.0], [0.0, 0.0, -9.0]]
        cloud = FeaturePointCloud(xyz, np.zeros(4), np.ones((4, 2)))
        formats.write_rfp1(tmp_path / "c.rfp1", cloud)
        info = pipeline.stage_voxelize(toy.cfg, tmp_path / "c.rfp1", tmp_path)
        assert info["in_range_points"] == 2
        assert info["points_outside_grid"] == 2
        assert info["occupied_voxels"] == 1

    @pytest.mark.parametrize("corruption", sorted(VOXEL_CORRUPTIONS))
    def test_read_voxel_grid_rejects_corrupt_files(self, tmp_path, toy, corruption):
        write_toy_cloud(tmp_path / "c.rfp1", n=60)
        pipeline.stage_voxelize(toy.cfg, tmp_path / "c.rfp1", tmp_path)
        pipeline.read_voxel_grid(tmp_path, toy.cfg)
        name, corrupt, message = VOXEL_CORRUPTIONS[corruption]
        np.save(tmp_path / name, corrupt(np.load(tmp_path / name)))
        with pytest.raises(ValueError, match=message):
            pipeline.read_voxel_grid(tmp_path, toy.cfg)

    def test_stage_pool_outputs(self, tmp_path, toy):
        info = pipeline.stage_pool(
            toy.cfg,
            toy.out / pipeline.KEYPOINTS_FILE,
            toy.out / pipeline.GT_BOXES_FILE,
            tmp_path,
        )
        assert info == {"boxes": 2, "roi_length": TOY_ROI_LEN}
        rois = formats.read_rrf1(tmp_path / pipeline.ROI_FILE)
        assert rois.shape == (2, TOY_ROI_LEN)
        lines = (tmp_path / pipeline.REFINED_FILE).read_text().splitlines()
        assert lines[0].startswith("# confidence")
        assert len(lines) == 3
        for line in lines[1:]:
            values = [float(tok) for tok in line.split()]
            assert len(values) == 8
            assert 0.0 < values[0] < 1.0

    def test_stage_redeem_refuses_features_beyond_single_precision(
        self, tmp_path, toy, monkeypatch
    ):
        # The meta kernel rounds into the planes features.rri1 stores, where
        # a value single precision holds only as inf becomes inf, and the
        # writer refuses it.
        real = pipeline.hdmk_forward_planes

        def overflowing(feats, coords, valid, params, *args, **kwargs):
            big = params.with_tensor("branch1.b_acc", np.full(params.c_out // 2, 1e39))
            return real(feats, coords, valid, big, *args, **kwargs)

        monkeypatch.setattr(pipeline, "hdmk_forward_planes", overflowing)
        with pytest.raises(
            formats.FormatError,
            match=f"{pipeline.FEATURES_FILE}: channels must be finite in single precision",
        ):
            pipeline.stage_redeem(toy.cfg, toy.out / pipeline.RANGE_FILE, tmp_path)
        assert not (tmp_path / pipeline.FEATURES_FILE).exists()

    def test_stage_redeem_refuses_block_beyond_single_precision(
        self, tmp_path, toy, monkeypatch
    ):
        # The conv block's columns are rounded as block.rri1 stores them; a
        # value single precision holds only as inf is refused by the writer
        # before the meta kernel runs, so nothing after the weights is written.
        real = pipeline.basicblock_forward

        def overflowing(img, params, *args, **kwargs):
            big = dataclasses.replace(params, shift2=np.full(params.c_out, 1e39))
            return real(img, big, *args, **kwargs)

        monkeypatch.setattr(pipeline, "basicblock_forward", overflowing)
        with pytest.raises(
            formats.FormatError,
            match=f"{pipeline.BLOCK_FILE}: channels must be finite in single precision",
        ):
            pipeline.stage_redeem(toy.cfg, toy.out / pipeline.RANGE_FILE, tmp_path)
        for name in (pipeline.BLOCK_FILE, pipeline.FEATURES_FILE, pipeline.CLOUD_FILE):
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("wrap", [True, False], ids=["wrap", "clip"])
    def test_stage_redeem_writes_what_the_f64_layers_give(self, tmp_path, toy, wrap):
        # The stage keeps the conv block on columns and rounds the features
        # into stored-precision planes; the f64 layers, each image built and
        # written whole (the conv block's columns scattered into +0 planes),
        # give the same bytes, signed zeros included.
        cfg = dataclasses.replace(toy.cfg, wrap_horizontal=wrap)
        pipeline.stage_redeem(cfg, toy.out / pipeline.RANGE_FILE, tmp_path / "stage")
        img = formats.read_rri1(toy.out / pipeline.RANGE_FILE, cfg.sensor)
        block = init_basicblock(cfg.seed, cfg.conv_channels)
        hdmk = init_params(cfg.seed, (cfg.conv_channels, cfg.mlp_hidden, cfg.feature_dim))
        block_planes = np.zeros((block.c_out, *img.valid.shape))
        block_planes[:, img.valid] = formats.as_stored(basicblock_forward(img, block, wrap))
        block_img = img.with_features(block_planes)
        feat_img = hdmk_forward(block_img, hdmk, wrap)
        assert np.signbit(feat_img.feature_planes[:, ~img.valid]).any()
        api = tmp_path / "api"
        api.mkdir()
        formats.write_rri1(api / pipeline.BLOCK_FILE, block_img)
        formats.write_rri1(api / pipeline.FEATURES_FILE, feat_img)
        formats.write_rfp1(api / pipeline.CLOUD_FILE, redeem_feature_points(feat_img))
        for name in (pipeline.BLOCK_FILE, pipeline.FEATURES_FILE, pipeline.CLOUD_FILE):
            assert (tmp_path / "stage" / name).read_bytes() == (api / name).read_bytes()


def assert_runs_to_the_end_with_nothing_in_view(toy, tmp_path, points):
    """`points`, none in view, and one box run through every stage."""
    bin_path, boxes_path = tmp_path / "points.bin", tmp_path / "boxes.txt"
    formats.write_kitti_bin(bin_path, points)
    assert bin_path.stat().st_size == 16 * len(points)
    boxes_path.write_text("5.0 0.0 0.0 4.0 2.0 1.5 0.0\n", encoding="utf-8")
    out = tmp_path / "out"
    result = pipeline.run_pipeline(toy.cfg, bin_path, out, boxes_path)
    assert result["status"] == "ok"
    assert result["stages"]["fps"] == {"requested": toy.cfg.keypoint_count, "kept": 0}
    assert result["stages"]["pool"]["boxes"] == 1
    summary = (out / pipeline.SUMMARY_FILE).read_text()
    assert f"stage project: points={len(points)} valid_pixels=0 " in summary
    # The meta kernel runs with an empty support and redeems nothing.
    assert "stage redeem: redeemed_points=0 " in summary
    assert "stage voxelize: in_range_points=0 " in summary
    keypoints = formats.read_rfp1(out / pipeline.KEYPOINTS_FILE)
    assert len(keypoints) == 0 and keypoints.feature_dim == toy.cfg.feature_dim
    # With no keypoint the box pools from empty grid points: one row.
    refined = (out / pipeline.REFINED_FILE).read_text().splitlines()
    assert len(refined) == 2 and refined[0].startswith("#")


class TestPipeline:
    def test_one_shot_runs_every_stage(self, toy):
        assert toy.result["status"] == "ok"
        assert list(toy.result["stages"]) == [
            "synth", "project", "redeem", "voxelize", "fps", "pool",
        ]
        stages = toy.result["stages"]
        assert stages["redeem"]["redeemed_points"] == stages["project"]["valid_pixels"]
        assert stages["pool"]["roi_length"] == TOY_ROI_LEN
        voxels = stages["voxelize"]
        outside = voxels["points_outside_grid"]
        in_range = voxels["in_range_points"]
        assert outside == stages["redeem"]["redeemed_points"] - in_range
        summary = (toy.out / pipeline.SUMMARY_FILE).read_text()
        assert f"points_outside_grid={outside} " in summary

    def test_benchmark_tracing_wraps_a_run(self, toy, monkeypatch):
        # The benchmark's traced runs replace pipeline names from outside and
        # read VoxelGrid fields; a change that breaks them fails here.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            result = pipeline.run_pipeline(toy.cfg, toy.scene, toy.root / "traced")
        voxels = result["stages"]["voxelize"]
        counts = tracer.counts
        assert counts["pointops.occupied_voxels"] == voxels["occupied_voxels"]
        assert counts["pointops.points_outside_grid"] == voxels["points_outside_grid"]
        # The meta kernel's forward is seen by the tracer, and no dense BEV
        # map is built.
        assert counts["rvfe.hdmk_forward_calls"] == 1
        assert counts["pointops.bev_mb"] == 0
        # Sampling and pooling are seen too: FPS through the index array it
        # returns, each pooled box. Pooling queries every box at once, so
        # the `sgrid.ball_query` name the tracer wraps is never called; it
        # must still resolve, or installing the tracer above fails.
        boxes = result["stages"]["pool"]["boxes"]
        assert boxes > 0
        assert counts["pointops.ball_query_calls"] == 0
        assert counts["pointops.fps_steps"] == result["stages"]["fps"]["kept"] - 1
        assert counts["sgrid.boxes"] == boxes
        # Each grid point index pools all boxes in one aggregate call per
        # neighborhood size, so the traced aggregate stays a live layer.
        sg = toy.cfg.sgrid
        aggregates = sum(span[0] == "pointops.aggregate" for span in tracer.spans)
        assert 0 < aggregates <= (sg.fine_grid**3 + sg.coarse_grid**3) * sg.neighbor_cap
        # One range image per RRI1 file read, and the projection's: the
        # redeem stage writes its block and features from stored-precision
        # planes, with no image of their own.
        assert counts["core.rangeimage_count"] == 2
        assert result["checksums"] == toy.result["checksums"]

    def test_benchmark_tracing_reads_the_gradcheck_forward_calls(self, monkeypatch):
        # The gradient check calls `hdmk_forward_planes` with raw arrays; the
        # tracer reads the mask and the parameters (dims off their trailing
        # axes) from its positional arguments, so a changed signature shows
        # here. 640 elements, each perturbed up and down, in groups of
        # 512 // 60 = 8 per call: 30 groups of the (4, 6, 10) features
        # and 27 per branch, 168 calls in place of 1,280.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            ok, _ = pipeline.run_gradcheck()
        img = pipeline.gradcheck_instance(0, pipeline.GRADCHECK_DIMS)[0]
        assert ok
        assert tracer.counts["rvfe.hdmk_forward_calls"] == 168
        assert tracer.counts["rvfe.valid_px"] == 168 * np.count_nonzero(img.valid)

    def test_rerun_is_bit_identical(self, toy):
        again = pipeline.run_pipeline(toy.cfg, toy.scene, toy.root / "rerun")
        assert again["checksums"] == toy.result["checksums"]

    def test_stages_never_read_weight_files(self, toy, monkeypatch):
        # Weight files are outputs: the stages go on with the parameters
        # they generated, so a run needs no RWT1 reader at all.
        def refuse(path):
            raise AssertionError(f"a stage read {path}")

        monkeypatch.setattr(formats, "read_rwt1", refuse)
        again = pipeline.run_pipeline(toy.cfg, toy.scene, toy.root / "no_read_back")
        assert again["checksums"] == toy.result["checksums"]

    def test_stages_read_no_file_they_wrote(self, toy, monkeypatch):
        # Stages round in memory as the files store values, so the block and
        # feature images and the RoI vectors are outputs only; the one file
        # read is the range image, the redeem stage's input.
        read = []
        for name in ("read_rri1", "read_rrf1"):
            def recording(path, *args, reader=getattr(formats, name)):
                read.append(Path(path).name)
                return reader(path, *args)

            monkeypatch.setattr(formats, name, recording)
        again = pipeline.run_pipeline(toy.cfg, toy.scene, toy.root / "no_read_back")
        assert read == [pipeline.RANGE_FILE]
        assert again["checksums"] == toy.result["checksums"]

    def test_stage_subcommands_compose_bit_identically(self, toy):
        out = toy.root / "chain"
        cfg = ["--config", str(toy.config)]

        def stage(*argv):
            assert cli_main(list(argv)) == 0

        stage("synth", "--input", str(toy.scene), "--out", str(out))
        stage("project", *cfg, "--input", str(out / pipeline.POINTS_FILE), "--out", str(out))
        stage("redeem", *cfg, "--input", str(out / pipeline.RANGE_FILE), "--out", str(out))
        stage("voxelize", *cfg, "--input", str(out / pipeline.CLOUD_FILE), "--out", str(out))
        stage("fps", *cfg, "--input", str(out / pipeline.CLOUD_FILE), "--out", str(out))
        stage(
            "pool", *cfg,
            "--input", str(out / pipeline.KEYPOINTS_FILE),
            "--boxes", str(out / pipeline.GT_BOXES_FILE),
            "--out", str(out),
        )
        assert read_artifacts(out) == read_artifacts(toy.out)

    def test_bin_input_without_boxes_skips_pool(self, toy):
        out = toy.root / "frombin"
        result = pipeline.run_pipeline(
            toy.cfg, toy.out / pipeline.POINTS_FILE, out
        )
        assert result["status"] == "ok"
        assert "pool" not in result["stages"]
        assert any("pool skipped" in note for note in result["notes"])
        assert not (out / pipeline.ROI_FILE).exists()

    def test_rerun_reports_only_its_own_artifacts(self, toy, tmp_path):
        # A run from points without boxes into the directory of a full run
        # lists, checksums and summarizes only the files its stages wrote;
        # the earlier run's other files stay where they are.
        out = tmp_path / "out"
        shutil.copytree(toy.out, out)
        points = tmp_path / "points.bin"
        shutil.copy(toy.out / pipeline.POINTS_FILE, points)
        result = pipeline.run_pipeline(toy.cfg, points, out)
        own = [
            pipeline.RANGE_FILE,
            pipeline.WEIGHTS_FILE,
            pipeline.BLOCK_FILE,
            pipeline.FEATURES_FILE,
            pipeline.CLOUD_FILE,
            pipeline.KEYPOINTS_FILE,
            pipeline.VOXEL_IDX_FILE,
            pipeline.VOXEL_COUNT_FILE,
            pipeline.VOXEL_MEAN_FILE,
        ]
        assert list(result["checksums"]) == own
        assert result["checksums"] == {name: toy.result["checksums"][name] for name in own}
        listed = (out / pipeline.CHECKSUMS_FILE).read_text().splitlines()
        assert [line.split("  ")[1] for line in listed] == own
        summary = (out / pipeline.SUMMARY_FILE).read_text().splitlines()
        reported = [line.split(":")[0] for line in summary if line.startswith("artifact ")]
        assert reported == [f"artifact {name}" for name in own]
        assert (out / pipeline.ROI_FILE).exists()

    def test_bin_input_with_boxes_runs_pool(self, toy):
        out = toy.root / "frombin_boxes"
        result = pipeline.run_pipeline(
            toy.cfg,
            toy.out / pipeline.POINTS_FILE,
            out,
            boxes_path=toy.out / pipeline.GT_BOXES_FILE,
        )
        assert "pool" in result["stages"]
        assert (out / pipeline.ROI_FILE).exists()
        assert (out / pipeline.ROI_FILE).read_bytes() == (
            toy.out / pipeline.ROI_FILE
        ).read_bytes()

    def test_benchmark_bytes_match_recorded(self, tmp_path):
        # sky-64x512 at seed 0, built as perfbench/run.py builds it, and the
        # default gradient check: every output the benchmark checks must
        # equal perfbench/expected.json, so byte drift shows up here first.
        expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
        cfg, points, boxes = benchmark_inputs("sky-64x512", tmp_path)
        result = pipeline.run_pipeline(cfg, points, tmp_path / "out", boxes_path=boxes)
        stages = result["stages"]
        counts = {
            "points": stages["project"]["points"],
            "valid_pixels": stages["project"]["valid_pixels"],
            "boxes": stages["pool"]["boxes"],
            "kept": stages["fps"]["kept"],
        }
        assert counts == expected["sky-64x512"]["counts"]
        assert result["checksums"] == expected["sky-64x512"]["checksums"]

        ok, reports = pipeline.run_gradcheck()
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert ok
        assert digest == expected["gradcheck-6x10"]["checksums"]["reports"]

    @pytest.mark.parametrize("workload", ["proposals-512", "scan-64x2048"])
    def test_multi_block_redeem_matches_recorded(self, tmp_path, workload):
        # A workload at seed 0 up to the feature cloud. On proposals-512 each
        # meta-kernel branch covers some 20,000 centres, about 40 column blocks;
        # scan-64x2048 is the one workload with 64x2048 images.
        expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
        cfg, points, _ = benchmark_inputs(workload, tmp_path)
        out = tmp_path / "out"
        pipeline.stage_project(cfg, points, out)
        pipeline.stage_redeem(cfg, out / pipeline.RANGE_FILE, out)
        written = {
            name: formats.sha256_file(out / name)
            for name in pipeline.ARTIFACT_ORDER
            if (out / name).exists()
        }
        assert list(written) == [
            pipeline.RANGE_FILE,
            pipeline.WEIGHTS_FILE,
            pipeline.BLOCK_FILE,
            pipeline.FEATURES_FILE,
            pipeline.CLOUD_FILE,
        ]
        recorded = expected[workload]["checksums"]
        assert written == {name: recorded[name] for name in written}

    def test_scan_keypoints_match_recorded(self, tmp_path):
        # The seed-0 scan cloud of 35,863 points is large enough for the
        # bucketed furthest point sampling; its 2,048 keypoints must be the
        # recorded bytes.
        expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
        cfg, points, _ = benchmark_inputs("scan-64x2048", tmp_path)
        out = tmp_path / "out"
        pipeline.stage_project(cfg, points, out)
        pipeline.stage_redeem(cfg, out / pipeline.RANGE_FILE, out)
        info = pipeline.stage_fps(cfg, out / pipeline.CLOUD_FILE, out)
        assert info["kept"] == expected["scan-64x2048"]["counts"]["kept"]
        recorded = expected["scan-64x2048"]["checksums"][pipeline.KEYPOINTS_FILE]
        assert formats.sha256_file(out / pipeline.KEYPOINTS_FILE) == recorded

    @pytest.mark.parametrize("workload", ["sky-64x512", "scan-64x2048"])
    def test_redeem_stage_peak_is_near_the_features_image(self, tmp_path, workload):
        # A workload at seed 0. The stage holds the features in the single
        # precision features.rri1 stores, the conv block's output on the
        # valid pixels' columns, and no f64 block or features image, and it
        # drops the feature planes before the cloud's f64 copy: about 1.72
        # (sky) and 1.89 (scan) times the file. Gathering the cloud beside
        # the planes held 2.14 times on scan; building the f64 block and
        # features images and rounding each in its writer held 3.7 times.
        cfg, points, _ = benchmark_inputs(workload, tmp_path)
        out = tmp_path / "out"
        pipeline.stage_project(cfg, points, out)
        tracemalloc.start()
        try:
            pipeline.stage_redeem(cfg, out / pipeline.RANGE_FILE, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * (out / pipeline.FEATURES_FILE).stat().st_size

    def test_zero_box_scene_pools_nothing(self, tmp_path):
        # The proposals-512 benchmark sensor over a scene with no boxes.
        workloads = PERFBENCH / "workloads"
        cfg = load_config(workloads / "proposals-512.cfg")
        scene = tmp_path / "no_boxes.synth"
        scene.write_text(
            "boxes = 0\nbox_density = 2.5\nground_density = 0.5\n"
            "extent = 20.0\nseed = 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = pipeline.run_pipeline(cfg, scene, out)
        assert result["status"] == "ok"
        assert result["stages"]["pool"]["boxes"] == 0
        lines = (out / pipeline.REFINED_FILE).read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("# confidence")
        rois = formats.read_rrf1(out / pipeline.ROI_FILE)
        assert rois.shape == (0, cfg.sgrid.roi_feature_length)

    def test_rri1_input_starts_at_redeem(self, toy):
        out = toy.root / "fromimage"
        result = pipeline.run_pipeline(
            toy.cfg, toy.out / pipeline.RANGE_FILE, out
        )
        assert list(result["stages"]) == ["redeem", "voxelize", "fps"]
        assert (out / pipeline.CLOUD_FILE).read_bytes() == (
            toy.out / pipeline.CLOUD_FILE
        ).read_bytes()

    def test_corrupt_input_names_the_stage(self, toy, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"x" * 10)
        out = tmp_path / "out"
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(toy.cfg, bad, out)
        assert err.value.stage == "project"
        summary = (out / pipeline.SUMMARY_FILE).read_text()
        assert "failed at stage project" in summary
        assert "partial output" in summary

    def test_cloud_entirely_out_of_view_runs_to_the_end(self, toy, tmp_path):
        # Straight below the sensor: outside the field of view in every row.
        points = np.array([[1.0, 0.0, -10.0, 0.5], [0.0, -2.0, -30.0, 0.2]])
        assert_runs_to_the_end_with_nothing_in_view(toy, tmp_path, points)

    def test_empty_cloud_runs_to_the_end(self, toy, tmp_path):
        assert_runs_to_the_end_with_nothing_in_view(toy, tmp_path, np.zeros((0, 4)))

    def test_unrecognized_input_rejected(self, toy, tmp_path):
        stray = tmp_path / "scene.xyz"
        stray.write_text("", encoding="utf-8")
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(toy.cfg, stray, tmp_path / "out")
        assert err.value.stage == "input"


class TestCli:
    def test_every_stage_has_a_subcommand(self):
        (subparsers,) = (
            action for action in build_parser()._actions if action.dest == "command"
        )
        stages = {name[len("stage_"):] for name in dir(pipeline) if name.startswith("stage_")}
        assert set(subparsers.choices) - {"pipeline", "gradcheck"} == stages

    def test_pipeline_subcommand_prints_summary(self, toy, capsys):
        out = toy.root / "cli_run"
        code = cli_main(
            [
                "pipeline",
                "--config", str(toy.config),
                "--input", str(toy.scene),
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "status: ok" in captured.out
        assert "stage redeem:" in captured.out

    def test_seed_override_changes_weights(self, toy):
        out_a = toy.root / "seed_cfg"
        out_b = toy.root / "seed_override"
        base = [
            "redeem",
            "--config", str(toy.config),
            "--input", str(toy.out / pipeline.RANGE_FILE),
        ]
        assert cli_main(base + ["--out", str(out_a)]) == 0
        assert cli_main(base + ["--seed", "1", "--out", str(out_b)]) == 0
        weights_a = (out_a / pipeline.WEIGHTS_FILE).read_bytes()
        weights_b = (out_b / pipeline.WEIGHTS_FILE).read_bytes()
        assert weights_a == (toy.out / pipeline.WEIGHTS_FILE).read_bytes()
        assert weights_a != weights_b

    def test_missing_config_reported_as_error(self, tmp_path, capsys):
        code = cli_main(
            [
                "project",
                "--config", str(tmp_path / "absent.cfg"),
                "--input", str(tmp_path / "p.bin"),
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_format_error_reported_as_error(self, toy, tmp_path, capsys):
        bad = tmp_path / "bad.rri1"
        bad.write_bytes(b"NOPE")
        code = cli_main(
            [
                "redeem",
                "--config", str(toy.config),
                "--input", str(bad),
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("stage, given, outputs", [
        ("redeem", pipeline.RANGE_FILE, (pipeline.WEIGHTS_FILE, pipeline.BLOCK_FILE,
                                         pipeline.FEATURES_FILE, pipeline.CLOUD_FILE)),
        ("pool", pipeline.KEYPOINTS_FILE, (pipeline.SGRID_WEIGHTS_FILE, pipeline.ROI_FILE,
                                           pipeline.REFINED_FILE)),
    ], ids=["redeem", "pool"])
    def test_truncated_artifact_mid_chain_writes_nothing(self, tmp_path, capsys, stage, given,
                                                         outputs):
        out, cfg = tmp_path / "chain", ["--config", str(CONFIGS / "default.cfg")]
        chain = [
            ("synth", "--input", str(CONFIGS / "scene_small.synth")),
            ("project", *cfg, "--input", str(out / pipeline.POINTS_FILE)),
            ("redeem", *cfg, "--input", str(out / pipeline.RANGE_FILE)),
            ("fps", *cfg, "--input", str(out / pipeline.CLOUD_FILE)),
        ]
        for argv in chain:
            assert cli_main([*argv, "--out", str(out)]) == 0
        for name in outputs:
            (out / name).unlink(missing_ok=True)
        path = out / given
        path.write_bytes(path.read_bytes()[:-3])
        before = read_artifacts(out)
        boxes = ["--boxes", str(out / pipeline.GT_BOXES_FILE)] if stage == "pool" else []
        capsys.readouterr()
        code = cli_main([stage, *cfg, "--input", str(path), *boxes, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: truncated file\n"
        assert read_artifacts(out) == before

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gradcheck_seed_outside_64_bits_is_an_error(self, seed, capsys):
        code = cli_main(["gradcheck", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: seed must lie in [0, 2^64)")
        assert "gradcheck" not in captured.out

    def test_pipeline_negative_seed_keeps_the_config_message(self, toy, capsys):
        code = cli_main(
            [
                "pipeline",
                "--config", str(toy.config),
                "--input", str(toy.scene),
                "--out", str(toy.root / "negative_seed"),
                "--seed", "-1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: seed must lie in [0, 2^64), got -1\n"

    def test_pipeline_seed_beyond_64_bits_writes_nothing(self, toy, capsys):
        out = toy.root / "big_seed"
        code = cli_main(
            [
                "pipeline",
                "--config", str(toy.config),
                "--input", str(toy.scene),
                "--out", str(out),
                "--seed", str(2**64),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: seed must lie in [0, 2^64), got {2**64}\n"
        assert not out.exists()

    def test_pool_box_whose_size_overflows_is_an_error(self, toy, tmp_path, capsys):
        boxes = tmp_path / "big.txt"
        boxes.write_text("0 0 0 1e300 1 1 0\n")
        code = cli_main(
            [
                "pool",
                "--config", str(toy.config),
                "--input", str(toy.out / pipeline.KEYPOINTS_FILE),
                "--boxes", str(boxes),
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {boxes}:1: box length^2 + width^2 + height^2 must be finite\n"
        )

    @pytest.mark.parametrize(
        "keys, cells",
        [
            ({"voxel.min_x": "-1e308", "voxel.max_x": "1e308"}, "[inf, 32.0, 12.0]"),
            ({"voxel.size_x": "1e-300"}, "[3.1999999999999997e+301, 32.0, 12.0]"),
        ],
        ids=["extent", "cells"],
    )
    def test_voxelize_geometry_out_of_reach_is_an_error(self, toy, tmp_path, capsys, keys, cells):
        config = tmp_path / "geometry.cfg"
        lines = toy.config.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if line.split("=")[0].strip() not in keys]
        config.write_text("\n".join([*kept, *(f"{k} = {v}" for k, v in keys.items())]) + "\n")
        code = cli_main(
            [
                "voxelize",
                "--config", str(config),
                "--input", str(toy.out / pipeline.CLOUD_FILE),
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: config: voxel_size splits the range into {cells} cells, not 1 to 2**63 - 1\n"
        )

    def test_gradcheck_passes(self, capsys):
        assert cli_main(["gradcheck"]) == 0
        captured = capsys.readouterr()
        assert "gradcheck passed" in captured.out

    def test_gradcheck_reads_weight_files(self, toy, capsys):
        code = cli_main(
            ["gradcheck", "--input", str(toy.out / pipeline.WEIGHTS_FILE)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "gradcheck passed (13 slices)" in captured.out

    def test_gradcheck_flags_wrong_gradients(self, monkeypatch, capsys):
        # Plumbing check only: corrupt the analytic inputs and make sure the
        # comparison actually fails and the exit code reports it.
        def corrupted(feat, params, upstream, wrap_horizontal=True):
            grads = hdmk_backward(feat, params, upstream, wrap_horizontal)
            return SimpleNamespace(feat=grads.feat + 1.0, params=grads.params)

        monkeypatch.setattr(pipeline, "hdmk_backward", corrupted)
        assert cli_main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "gradcheck FAILED" in captured.out


THREAD_CAP_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class TestThreadCap:
    def run_python(self, code, **env_extra):
        # The child imports the package the tests import, installed or not.
        paths = [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        # Importing the package here may already have exported a cap.
        inherited = {k: v for k, v in os.environ.items() if k not in THREAD_CAP_VARS}
        env = {**inherited, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env_extra}
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_cap_exported_before_numpy(self):
        proc = self.run_python(
            "import rvredeem, os; print(os.environ['OPENBLAS_NUM_THREADS'])",
            RR_THREADS="2",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_explicit_setting_wins(self):
        proc = self.run_python(
            "import rvredeem, os; print(os.environ['OPENBLAS_NUM_THREADS'])",
            RR_THREADS="2",
            OPENBLAS_NUM_THREADS="7",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "7"

    def test_garbage_value_rejected(self):
        proc = self.run_python("import rvredeem", RR_THREADS="banana")
        assert proc.returncode != 0
        assert "RR_THREADS" in proc.stderr
