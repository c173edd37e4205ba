"""Acceptance gate: one test per shipped guarantee, run in numbered order.

Each test prints a single [PASS]/[FAIL] line with the measured values and
the limit it was held to, then asserts. Tolerances are pinned here and are
not to be loosened; a red line means the property genuinely regressed.
"""

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles
import util
from rvredeem import formats, pipeline
from rvredeem.cli import main as cli_main
from rvredeem.core import (
    Box3D,
    FeaturePointCloud,
    Point,
    RangeImage,
    SensorModel,
    load_config,
)
from rvredeem.pointops import (
    bev_flatten,
    furthest_point_sampling,
    voxelize,
)
from rvredeem.range_geometry import (
    PixelCoord,
    build_range_image,
    pixel_to_point,
    point_to_pixel,
    project_points,
    redeem_feature_points,
    unproject_pixels,
)
from rvredeem.rvfe import DILATED_OFFSETS, UNIT_OFFSETS, hdmk_forward
from rvredeem.sgrid import (
    SGridConfig,
    gen_grid_points,
    grid_cell_centers,
    init_sgrid_params,
    sgrid_pool,
    upsample_grid,
)
from rvredeem.synth import SynthSpec, gen_synthetic_scene


def _report(capsys, number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_projection_bijectivity(capsys):
    # 1e5 in-FOV pixels survive pixel -> point -> pixel with coordinate
    # errors at most 1e-9 of the axis scale and range drift at most 1e-12,
    # inside a 1 second budget.
    sensor = SensorModel(
        64, 512, fov_up=math.radians(2.0), fov_down=math.radians(24.8)
    )
    rng = np.random.default_rng(1)
    n = 100_000
    u = rng.uniform(0.0, sensor.width, n)
    v = rng.uniform(0.0, sensor.height, n)
    r = rng.uniform(1.0, 80.0, n)

    start = time.perf_counter()
    xyz = unproject_pixels(u, v, r, sensor)
    u2, v2, r2, in_fov = project_points(xyz, sensor)
    elapsed = time.perf_counter() - start

    err_u = np.max(np.abs(u2 - u)) / sensor.width
    err_v = np.max(np.abs(v2 - v)) / sensor.height
    err_r = np.max(np.abs(r2 - r) / r)

    # The scalar API must be bit-identical to the vectorized kernels.
    scalar_ok = True
    for i in range(0, n, 200):
        p = pixel_to_point(PixelCoord(u[i], v[i], r[i]), sensor)
        scalar_ok &= (p.x, p.y, p.z) == tuple(xyz[i])
        px = point_to_pixel(Point(p.x, p.y, p.z), sensor)
        scalar_ok &= px is not None and (px.u, px.v, px.r) == (
            u2[i], v2[i], r2[i],
        )

    ok = (
        bool(in_fov.all())
        and err_u <= 1e-9
        and err_v <= 1e-9
        and err_r <= 1e-12
        and elapsed < 1.0
        and scalar_ok
    )
    _report(
        capsys, 1, "projection bijectivity", ok,
        f"1e5 pixels, rel err u {err_u:.2e} / v {err_v:.2e} (<= 1e-9), "
        f"norm {err_r:.2e} (<= 1e-12), {elapsed:.3f} s (< 1 s), "
        f"scalar==vector {scalar_ok}",
    )


def test_02_redemption_conservation(capsys):
    # On 50 synthetic scenes, every valid pixel becomes exactly one feature
    # point and the embeddings match a direct pixel gather bit for bit.
    sensor = util.make_sensor(16, 64)
    d_f = 6
    count_ok = True
    embed_ok = True
    pixels_total = 0
    for seed in range(50):
        scene = gen_synthetic_scene(
            SynthSpec(
                box_count=2,
                box_density=3.0,
                ground_density=0.15,
                extent=14.0,
                seed=seed,
            )
        )
        records = np.column_stack([scene.cloud.xyz, scene.cloud.intensity])
        base = build_range_image(records, sensor)
        feats = np.random.default_rng(1000 + seed).normal(size=(d_f, 16, 64))
        img = RangeImage(
            sensor,
            np.concatenate([base.channels, feats * base.valid]),
            base.valid,
        )
        cloud = redeem_feature_points(img)
        popcount = int(np.count_nonzero(img.valid))
        pixels_total += popcount
        count_ok &= len(cloud) == popcount
        gathered = oracles.gather_pixel_vectors(
            img.feature_planes, oracles.scan_valid_pixels(img.valid)
        )
        embed_ok &= np.array_equal(cloud.features, gathered)
    ok = count_ok and embed_ok
    _report(
        capsys, 2, "feature point redemption conservation", ok,
        f"50 scenes, {pixels_total} valid pixels, counts exact {count_ok}, "
        f"embeddings exact {embed_ok}",
    )


def test_03_meta_kernel_oracle(capsys):
    # 20 random 8x16 instances against the pixel-by-pixel transcription,
    # 1e-12 absolute; sampling offsets are the 3x3 unit stencil and its
    # doubling.
    unit = UNIT_OFFSETS
    dilated = DILATED_OFFSETS
    offsets_ok = (
        set(unit) == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
        and len(unit) == 9
        and dilated == tuple((2 * a, 2 * b) for a, b in unit)
    )

    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        c_in = int(rng.integers(2, 6))
        c_mid = int(rng.integers(2, 7))
        c_out = 2 * int(rng.integers(1, 5))
        wrap = trial % 2 == 0
        img = util.random_image(rng, 8, 16, n_feat=c_in)
        params = util.random_hdmk_params(rng, c_in, c_mid, c_out)
        out = hdmk_forward(img, params, wrap).feature_planes
        halves = [
            oracles.hdmk_branch(
                img.feature_planes, img.channels[:3], img.valid, offsets,
                branch.w1, branch.b1, branch.w2, branch.b2,
                branch.w_acc, branch.b_acc, wrap,
            )
            for branch, offsets in (
                (params.branch1, unit), (params.branch2, dilated),
            )
        ]
        worst = max(worst, float(np.max(np.abs(out - np.concatenate(halves)))))
    ok = offsets_ok and worst <= 1e-12
    _report(
        capsys, 3, "meta-kernel oracle equivalence", ok,
        f"20 instances 8x16, max |impl - oracle| {worst:.2e} (<= 1e-12), "
        f"offsets unit/doubled {offsets_ok}",
    )


def test_04_gradient_correctness(capsys):
    # Analytic backward against central differences on every input-feature
    # and parameter slice of a 6x10 instance, within 30 seconds. Each
    # element must satisfy |a - fd| <= max(1e-4 * max(|a|, |fd|), 1e-7);
    # the absolute floor only covers elements that are themselves zero.
    start = time.perf_counter()
    all_ok, reports = pipeline.run_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(rep["worst_margin"] for rep in reports)
    ok = all_ok and elapsed < 30.0
    _report(
        capsys, 4, "gradient correctness", ok,
        f"{len(reports)} slices, worst margin {worst:.3f}x of the 1e-4 "
        f"relative budget, {elapsed:.2f} s (< 30 s)",
    )


def test_05_fps_oracle(capsys):
    # Exact index-sequence equality with the naive greedy oracle on 100
    # instances, translation equivariance on each, and budgets beyond N.
    rng = np.random.default_rng(5)
    exact_ok = True
    shift_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 501))
        c = int(rng.integers(1, 65))
        seed_index = int(rng.integers(0, n))
        xyz = rng.uniform(-40.0, 40.0, size=(n, 3))
        cloud = FeaturePointCloud(xyz, np.zeros(n), np.zeros((n, 0)))
        chosen = furthest_point_sampling(cloud.xyz, c, seed_index)
        exact_ok &= np.array_equal(
            chosen, oracles.fps_indices(xyz, c, seed_index)
        )
        shifted = FeaturePointCloud(
            xyz + rng.uniform(-100.0, 100.0, size=3), np.zeros(n), np.zeros((n, 0))
        )
        shift_ok &= np.array_equal(
            furthest_point_sampling(shifted.xyz, c, seed_index), chosen
        )

    edge = np.random.default_rng(55).normal(size=(5, 3))
    edge_cloud = FeaturePointCloud(edge, np.zeros(5), np.zeros((5, 0)))
    edge_chosen = furthest_point_sampling(edge_cloud.xyz, 64, 2)
    edge_ok = np.array_equal(edge_chosen, oracles.fps_indices(edge, 64, 2))
    edge_ok &= len(edge_chosen) == 5 and sorted(edge_chosen.tolist()) == [0, 1, 2, 3, 4]

    ok = exact_ok and shift_ok and edge_ok
    _report(
        capsys, 5, "furthest point sampling oracle", ok,
        f"100 instances exact {exact_ok}, translation equivariant {shift_ok}, "
        f"budget beyond N exact {edge_ok}",
    )


def test_06_sgrid_pooling_equivariance(capsys):
    # Pooled RoI vectors move by at most 1e-6 under a rigid transform of
    # scene and box together; the two grids hold exactly 27 and 8 points;
    # upsampling reproduces corners exactly and linear fields to 1e-12.
    cfg = SGridConfig(
        pool_hidden=8, fine_channels=6, coarse_channels=4, head_hidden=8
    )
    params = init_sgrid_params(0, cfg, point_feature_dim=5)
    rng = np.random.default_rng(6)
    worst = 0.0
    counts_ok = True
    flags_ok = True
    for _ in range(100):
        box = Box3D(
            *rng.uniform(-10.0, 10.0, size=3),
            rng.uniform(2.5, 5.0),
            rng.uniform(1.4, 2.4),
            rng.uniform(1.2, 2.0),
            rng.uniform(-math.pi, math.pi),
        )
        counts_ok &= gen_grid_points(box, 3).shape == (27, 3)
        counts_ok &= gen_grid_points(box, 2).shape == (8, 3)
        n = 90
        xyz = box.center + rng.uniform(-3.5, 3.5, size=(n, 3))
        feats = rng.normal(size=(n, 5))
        roi = sgrid_pool(
            FeaturePointCloud(xyz, np.zeros(n), feats), [box], cfg, params
        )[0]

        alpha = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(-20.0, 20.0, size=3)
        c, s = math.cos(alpha), math.sin(alpha)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        moved_center = rot @ box.center + t
        moved_box = Box3D(
            *moved_center, box.length, box.width, box.height, box.yaw + alpha
        )
        roi2 = sgrid_pool(
            FeaturePointCloud(xyz @ rot.T + t, np.zeros(n), feats),
            [moved_box], cfg, params,
        )[0]
        worst = max(worst, float(np.max(np.abs(roi.vector - roi2.vector))))
        flags_ok &= np.array_equal(roi.fine_empty, roi2.fine_empty)
        flags_ok &= np.array_equal(roi.coarse_empty, roi2.coarse_empty)

    corners_ok = True
    linear_worst = 0.0
    for _ in range(20):
        dims = rng.uniform(1.0, 6.0, size=3)
        pos = grid_cell_centers(dims, 2)
        coarse = rng.normal(size=(8, 4))
        corners_ok &= np.array_equal(
            upsample_grid(coarse, pos, pos, mode="trilinear"), coarse
        )
        slope = rng.normal(size=(3, 4))
        intercept = rng.normal(size=4)
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        fine = lo + rng.uniform(0.0, 1.0, size=(40, 3)) * (hi - lo)
        up = upsample_grid(pos @ slope + intercept, pos, fine, mode="trilinear")
        linear_worst = max(
            linear_worst,
            float(np.max(np.abs(up - (fine @ slope + intercept)))),
        )

    ok = (
        worst <= 1e-6
        and counts_ok
        and flags_ok
        and corners_ok
        and linear_worst <= 1e-12
    )
    _report(
        capsys, 6, "dual-grid pooling equivariance", ok,
        f"100 rigid transforms, max RoI change {worst:.2e} (<= 1e-6), "
        f"grid counts 27/8 {counts_ok}, corners exact {corners_ok}, "
        f"linear fields {linear_worst:.2e} (<= 1e-12)",
    )


def test_07_conservation(capsys):
    # Voxel counts add up to the in-range point count exactly; flattening
    # to the BEV map moves mass by at most 1e-12.
    rng = np.random.default_rng(7)
    count_ok = True
    mass_worst = 0.0
    for _ in range(20):
        n = 400
        xyz = rng.uniform(-12.0, 12.0, size=(n, 3))
        cloud = FeaturePointCloud(
            xyz, rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, size=(n, 4))
        )
        size = (0.8, 0.9, 0.5)
        lo = (-10.0, -10.0, -2.5)
        hi = (10.0, 10.0, 2.5)
        grid = voxelize(cloud, size, lo, hi)

        idx = np.floor((xyz - np.asarray(lo)) / np.asarray(size)).astype(np.int64)
        in_range = int(
            np.sum(np.all((idx >= 0) & (idx < np.asarray(grid.shape)), axis=1))
        )
        counted = int(grid.counts.sum())
        count_ok &= counted == in_range == grid.total_count

        voxel_mass = float(grid.means.sum())
        mass_worst = max(
            mass_worst, abs(float(bev_flatten(grid).sum()) - voxel_mass)
        )
    ok = count_ok and mass_worst <= 1e-12
    _report(
        capsys, 7, "voxel and BEV conservation", ok,
        f"20 grids, counts exact {count_ok}, "
        f"max mass drift {mass_worst:.2e} (<= 1e-12)",
    )


def test_08_end_to_end_determinism(capsys, tmp_path):
    # A 20k-point scene runs the whole pipeline in under 5 seconds, twice,
    # with bit-identical artifact checksums; chaining the per-stage
    # subcommands reproduces the one-shot artifacts byte for byte.
    config = tmp_path / "run.cfg"
    config.write_text(
        "sensor.height = 64\nsensor.width = 512\n"
        "sensor.fov_up_deg = 2.0\nsensor.fov_down_deg = 24.8\nseed = 0\n",
        encoding="utf-8",
    )
    scene = tmp_path / "scene.synth"
    scene.write_text(
        "boxes = 8\nbox_density = 12.0\nground_density = 2.65\n"
        "extent = 40.0\nseed = 0\n",
        encoding="utf-8",
    )
    cfg = load_config(config)

    runs = []
    timings = []
    for tag in ("one", "two"):
        start = time.perf_counter()
        runs.append(pipeline.run_pipeline(cfg, scene, tmp_path / tag))
        timings.append(time.perf_counter() - start)
    synth_info = runs[0]["stages"]["synth"]
    points = synth_info["foreground"] + synth_info["background"]
    identical = runs[0]["checksums"] == runs[1]["checksums"]

    chain = tmp_path / "chain"
    flags = ["--config", str(config)]
    chain_ok = cli_main(["synth", "--input", str(scene), "--out", str(chain)]) == 0
    steps = (
        ("project", pipeline.POINTS_FILE, []),
        ("redeem", pipeline.RANGE_FILE, []),
        ("voxelize", pipeline.CLOUD_FILE, []),
        ("fps", pipeline.CLOUD_FILE, []),
        (
            "pool",
            pipeline.KEYPOINTS_FILE,
            ["--boxes", str(chain / pipeline.GT_BOXES_FILE)],
        ),
    )
    for command, input_name, extra in steps:
        argv = [command, *flags, "--input", str(chain / input_name), *extra]
        chain_ok = chain_ok and cli_main(argv + ["--out", str(chain)]) == 0

    def artifact_bytes(out_dir):
        return {
            name: (Path(out_dir) / name).read_bytes()
            for name in pipeline.ARTIFACT_ORDER
            if (Path(out_dir) / name).exists()
        }

    composed = chain_ok and artifact_bytes(chain) == artifact_bytes(tmp_path / "one")
    ok = (
        points >= 20_000
        and max(timings) < 5.0
        and identical
        and composed
    )
    _report(
        capsys, 8, "end-to-end determinism", ok,
        f"{points} points, runs {timings[0]:.2f} s / {timings[1]:.2f} s "
        f"(< 5 s), checksums identical {identical}, "
        f"stage chain bit-identical {composed}",
    )


def test_09_format_round_trips(capsys, tmp_path):
    # write -> read -> write is byte-identical for every container, and a
    # raw point file survives read -> write untouched.
    rng = np.random.default_rng(9)
    results = {}

    img = util.random_image(rng, 6, 12, n_feat=3)
    a = tmp_path / "a.rri1"
    b = tmp_path / "b.rri1"
    formats.write_rri1(a, img)
    formats.write_rri1(b, formats.read_rri1(a, img.sensor))
    results["rri1"] = a.read_bytes() == b.read_bytes()

    cloud = FeaturePointCloud(
        rng.normal(size=(30, 3)), rng.uniform(0, 1, 30), rng.normal(size=(30, 5))
    )
    a = tmp_path / "a.rfp1"
    b = tmp_path / "b.rfp1"
    formats.write_rfp1(a, cloud)
    formats.write_rfp1(b, formats.read_rfp1(a))
    results["rfp1"] = a.read_bytes() == b.read_bytes()

    tensors = {
        "scalar": np.array(2.5),
        "vec": rng.normal(size=4),
        "mat": rng.normal(size=(3, 2)),
        "cube": rng.normal(size=(2, 2, 2)),
    }
    a = tmp_path / "a.rwt1"
    b = tmp_path / "b.rwt1"
    formats.write_rwt1(a, tensors)
    formats.write_rwt1(b, formats.read_rwt1(a))
    results["rwt1"] = a.read_bytes() == b.read_bytes()

    a = tmp_path / "a.rrf1"
    b = tmp_path / "b.rrf1"
    formats.write_rrf1(a, rng.normal(size=(3, 7)))
    formats.write_rrf1(b, formats.read_rrf1(a))
    results["rrf1"] = a.read_bytes() == b.read_bytes()

    # Intensity stays in [0, 1], the domain of the format.
    records = np.column_stack(
        [rng.normal(size=(40, 3)), rng.uniform(0.0, 1.0, 40)]
    ).astype(np.float32).astype(np.float64)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    formats.write_kitti_bin(a, records)
    formats.write_kitti_bin(b, formats.read_kitti_bin_array(a))
    results["kitti"] = a.read_bytes() == b.read_bytes()

    ok = all(results.values())
    _report(
        capsys, 9, "format round-trips", ok,
        ", ".join(f"{name} {'exact' if good else 'DIFFERS'}"
                  for name, good in results.items()),
    )
