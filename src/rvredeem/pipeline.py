"""End-to-end stage orchestration.

Each stage is a function that reads its inputs from artifact files and
writes its outputs back to artifact files: scene points to range image,
range image to redeemed feature cloud, cloud to keypoints and BEV map,
keypoints plus boxes to pooled RoI vectors and refined detections. The
single-shot `run_pipeline` and the per-stage CLI subcommands call the same
functions, so composing subcommands reproduces the one-shot run bit for bit.

Artifacts store values in single precision. Inside a stage, data that feeds
later arithmetic (conv-block planes, RoI vectors) is first rounded in memory
by `formats.as_stored` exactly as its artifact stores it, so the rounding is
part of the stage's defined output, not an accident of process boundaries.
Data that only goes on to a writer, directly or through a gather, is rounded
by that writer. Stages read only their inputs, never a file they wrote.

Weight files are outputs only. Parameters are generated from the config
seed on the single-precision grid, so the RWT1 file a stage writes holds
exactly the parameters it goes on with, and no stage reads one back;
`rvredeem gradcheck --input` is their reader.
"""

from __future__ import annotations

import logging
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import formats
from .core import (
    FeaturePointCloud,
    PipelineConfig,
    RangeImage,
    SensorModel,
)
from .pointops import (
    SharedMlp,
    VoxelGrid,
    bev_flatten,  # noqa: F401 (unused here; the benchmark's tracer wraps this name)
    furthest_point_sampling,
    voxelize,
)
from .range_geometry import build_range_image, redeem_feature_points, unproject_pixels
from .rng import STREAM_SCENE, DetRng, derive_seed
from .rvfe import (
    _COLUMN_BLOCK,
    BasicBlockParams,
    HdMetaKernelParams,
    basicblock_forward,
    hdmk_backward,
    hdmk_forward,
    hdmk_forward_planes,
    init_basicblock,
    init_params,
)
from .sgrid import SGridParams, init_sgrid_params, refine_head_forward, sgrid_pool
from .synth import gen_synthetic_scene, parse_synth_spec

log = logging.getLogger(__name__)

# Artifact file names, fixed so runs are comparable across machines.
POINTS_FILE = "points.bin"
GT_BOXES_FILE = "boxes_gt.txt"
RANGE_FILE = "range.rri1"
WEIGHTS_FILE = "weights.rwt1"
BLOCK_FILE = "block.rri1"
FEATURES_FILE = "features.rri1"
CLOUD_FILE = "cloud.rfp1"
KEYPOINTS_FILE = "keypoints.rfp1"
VOXEL_IDX_FILE = "voxels_idx.npy"
VOXEL_COUNT_FILE = "voxels_count.npy"
VOXEL_MEAN_FILE = "voxels_mean.npy"
SGRID_WEIGHTS_FILE = "sgrid_weights.rwt1"
ROI_FILE = "roi.rrf1"
REFINED_FILE = "refined.txt"
SUMMARY_FILE = "summary.txt"
CHECKSUMS_FILE = "checksums.txt"

# Checksum order for reports; summary and checksum files are excluded
# because the summary carries wall-clock timings.
ARTIFACT_ORDER = (
    POINTS_FILE,
    GT_BOXES_FILE,
    RANGE_FILE,
    WEIGHTS_FILE,
    BLOCK_FILE,
    FEATURES_FILE,
    CLOUD_FILE,
    KEYPOINTS_FILE,
    VOXEL_IDX_FILE,
    VOXEL_COUNT_FILE,
    VOXEL_MEAN_FILE,
    SGRID_WEIGHTS_FILE,
    ROI_FILE,
    REFINED_FILE,
)


class PipelineError(RuntimeError):
    """A stage failed; `stage` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage} failed: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Parameter packing for RWT1 files
# ---------------------------------------------------------------------------

def pack_rvfe_weights(
    block: BasicBlockParams, hdmk: HdMetaKernelParams
) -> dict[str, np.ndarray]:
    """RWT1 tensors: `block.<field>` in field order (no `block.proj` when
    the residual is the identity), then `hdmk.<name>` for each meta-kernel
    tensor."""
    out = {
        f"block.{f.name}": getattr(block, f.name)
        for f in fields(block)
        if getattr(block, f.name) is not None
    }
    out.update({f"hdmk.{name}": tensor for name, tensor in hdmk.tensors().items()})
    return out


def unpack_rvfe_weights(
    tensors: dict[str, np.ndarray], source: str = "weights"
) -> tuple[BasicBlockParams, HdMetaKernelParams]:
    """Inverse of `pack_rvfe_weights`; a missing or unexpected tensor is a
    ValueError naming `source`."""
    remaining = dict(tensors)

    def take(name: str) -> np.ndarray:
        try:
            return remaining.pop(name)
        except KeyError:
            raise ValueError(f"{source}: missing tensor {name!r}") from None

    block = BasicBlockParams(**{
        f.name: remaining.pop("block.proj", None) if f.name == "proj" else take(f"block.{f.name}")
        for f in fields(BasicBlockParams)
    })
    hdmk = HdMetaKernelParams.from_tensors(lambda name: take(f"hdmk.{name}"))
    if remaining:
        raise ValueError(f"{source}: unexpected tensor {sorted(remaining)[0]!r}")
    return block, hdmk


def _pack_mlp(out: dict, prefix: str, mlp: SharedMlp):
    for i, (weight, bias) in enumerate(mlp.layers):
        out[f"{prefix}.{i}.w"] = weight
        out[f"{prefix}.{i}.b"] = bias


def pack_sgrid_weights(params: SGridParams) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    _pack_mlp(out, "sgrid.fine", params.mlp_fine)
    _pack_mlp(out, "sgrid.coarse", params.mlp_coarse)
    _pack_mlp(out, "sgrid.head.trunk", params.trunk)
    out["sgrid.head.conf.w"] = params.w_conf
    out["sgrid.head.conf.b"] = params.b_conf
    out["sgrid.head.res.w"] = params.w_res
    out["sgrid.head.res.b"] = params.b_res
    return out


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_synth(spec_path, out_dir) -> dict:
    """Scene spec file to raw points plus ground-truth boxes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene = gen_synthetic_scene(parse_synth_spec(spec_path))
    records = np.concatenate(
        [scene.cloud.xyz, scene.cloud.intensity[:, None]], axis=1
    )
    formats.write_kitti_bin(out_dir / POINTS_FILE, records)
    formats.write_boxes(out_dir / GT_BOXES_FILE, scene.boxes)
    return {
        "boxes": len(scene.boxes),
        "foreground": scene.foreground_count,
        "background": scene.background_count,
    }


def stage_project(cfg: PipelineConfig, points_path, out_dir) -> dict:
    """Raw points to a five-plane range image."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = formats.read_kitti_bin_array(points_path)
    img = build_range_image(records, cfg.sensor)
    formats.write_rri1(out_dir / RANGE_FILE, img)
    return {
        "points": int(records.shape[0]),
        "valid_pixels": int(np.count_nonzero(img.valid)),
    }


def stage_redeem(cfg: PipelineConfig, range_path, out_dir) -> dict:
    """Range image through the conv block and meta kernel to a feature cloud."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    img = formats.read_rri1(range_path, cfg.sensor)

    block = init_basicblock(cfg.seed, cfg.conv_channels)
    hdmk = init_params(cfg.seed, (cfg.conv_channels, cfg.mlp_hidden, cfg.feature_dim))
    formats.write_rwt1(out_dir / WEIGHTS_FILE, pack_rvfe_weights(block, hdmk))

    # One image per RRI1 file; the base planes, read from range.rri1, are f32 already.
    wrap = cfg.wrap_horizontal
    block_img = img.with_features(formats.as_stored(basicblock_forward(img, block, wrap)))
    del img  # block_img holds its planes; each image is dropped once the next holds it
    formats.write_rri1(out_dir / BLOCK_FILE, block_img)

    feat_img = hdmk_forward(block_img, hdmk, wrap)
    del block_img
    formats.write_rri1(out_dir / FEATURES_FILE, feat_img)

    cloud = redeem_feature_points(feat_img, cfg.feature_dim)
    formats.write_rfp1(out_dir / CLOUD_FILE, cloud)
    return {"redeemed_points": len(cloud), "feature_dim": cloud.feature_dim}


def stage_fps(cfg: PipelineConfig, cloud_path, out_dir) -> dict:
    """Feature cloud down to the configured keypoint budget."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = formats.read_rfp1(cloud_path)
    chosen = furthest_point_sampling(cloud.xyz, cfg.keypoint_count)
    kp_cloud = FeaturePointCloud(
        cloud.xyz[chosen], cloud.intensity[chosen], cloud.features[chosen]
    )
    formats.write_rfp1(out_dir / KEYPOINTS_FILE, kp_cloud)
    return {"requested": cfg.keypoint_count, "kept": len(kp_cloud)}


def write_voxel_grid(out_dir, grid: VoxelGrid) -> None:
    """Persist a voxel grid losslessly: one npy file per array field.

    The dense BEV map is huge but almost entirely zero, so the artifact
    stores the occupied cells in their deterministic (sorted flat index)
    order; `read_voxel_grid` plus `bev_flatten` reproduces the dense map
    bit for bit.
    """
    out_dir = Path(out_dir)
    np.save(out_dir / VOXEL_IDX_FILE, grid.voxels)
    np.save(out_dir / VOXEL_COUNT_FILE, grid.counts)
    np.save(out_dir / VOXEL_MEAN_FILE, grid.means)


def read_voxel_grid(out_dir, cfg: PipelineConfig) -> VoxelGrid:
    """Rebuild the persisted voxel grid; geometry comes from the config.

    Raises ValueError when the files do not describe a valid grid.
    """
    out_dir = Path(out_dir)
    return VoxelGrid(
        tuple(cfg.voxel_size),
        tuple(cfg.range_min),
        tuple(cfg.range_max),
        np.load(out_dir / VOXEL_IDX_FILE),
        np.load(out_dir / VOXEL_COUNT_FILE),
        np.load(out_dir / VOXEL_MEAN_FILE),
    )


def stage_voxelize(cfg: PipelineConfig, cloud_path, out_dir) -> dict:
    """Feature cloud to a sparse voxel grid; reports the BEV map's shape.

    The dense map itself (`bev_flatten`) is never built here.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = formats.read_rfp1(cloud_path)
    grid = voxelize(cloud, cfg.voxel_size, cfg.range_min, cfg.range_max)
    write_voxel_grid(out_dir, grid)
    nx, ny, nz = grid.shape
    return {
        "in_range_points": grid.total_count,
        "points_outside_grid": len(cloud) - grid.total_count,
        "occupied_voxels": len(grid.voxels),
        "bev_shape": f"{nx}x{ny}x{nz * grid.feature_dim}",
    }


def stage_pool(cfg: PipelineConfig, keypoints_path, boxes_path, out_dir) -> dict:
    """Keypoints plus boxes to pooled RoI vectors and refined detections."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kp_cloud = formats.read_rfp1(keypoints_path)
    boxes = formats.read_boxes(boxes_path)

    params = init_sgrid_params(cfg.seed, cfg.sgrid, kp_cloud.feature_dim)
    formats.write_rwt1(out_dir / SGRID_WEIGHTS_FILE, pack_sgrid_weights(params))

    rois = sgrid_pool(kp_cloud, boxes, cfg.sgrid, params)
    vectors = formats.as_stored(rois.vector)
    formats.write_rrf1(out_dir / ROI_FILE, vectors)

    lines = ["# confidence dcx dcy dcz dlength dwidth dheight dyaw"]
    conf, residuals = refine_head_forward(vectors, params)
    lines += (" ".join(map(repr, row)) for row in np.column_stack([conf, residuals]).tolist())
    (out_dir / REFINED_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"boxes": len(boxes), "roi_length": cfg.sgrid.roi_feature_length}


# ---------------------------------------------------------------------------
# One-shot pipeline
# ---------------------------------------------------------------------------

def _checksum_artifacts(out_dir: Path) -> dict[str, str]:
    out = {}
    for name in ARTIFACT_ORDER:
        path = out_dir / name
        if path.exists():
            out[name] = formats.sha256_file(path)
    return out


def _write_reports(
    out_dir: Path,
    status: str,
    input_path,
    infos: dict,
    timings: dict,
    notes: list[str],
) -> dict[str, str]:
    checksums = _checksum_artifacts(out_dir)
    (out_dir / CHECKSUMS_FILE).write_text(
        "".join(f"{digest}  {name}\n" for name, digest in checksums.items()),
        encoding="utf-8",
    )
    lines = [f"status: {status}", f"input: {Path(input_path).name}"]
    lines += [f"note: {note}" for note in notes]
    for name, info in infos.items():
        counts = " ".join(f"{k}={v}" for k, v in info.items())
        lines.append(f"stage {name}: {counts} ({timings[name]:.3f} s)")
    for name, digest in checksums.items():
        size = (out_dir / name).stat().st_size
        lines.append(f"artifact {name}: sha256={digest} ({size} bytes)")
    (out_dir / SUMMARY_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return checksums


def run_pipeline(
    cfg: PipelineConfig, input_path, out_dir, boxes_path=None
) -> dict:
    """Run every stage the input allows and write artifacts plus reports.

    `input_path` may be a synthetic scene spec (.synth), raw points (.bin),
    or a prebuilt range image (.rri1). Box pooling runs when a box file is
    supplied or the scene is synthetic (ground truth); otherwise it is
    skipped with a note. Any stage failure aborts with that stage's name;
    the summary then flags the artifact list as partial.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    input_path = Path(input_path)

    infos: dict[str, dict] = {}
    timings: dict[str, float] = {}
    notes: list[str] = []

    def run(name: str, fn, *args):
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            notes.append("partial output: one stage failed, artifact list is incomplete")
            _write_reports(
                out_dir, f"failed at stage {name}: {exc}", input_path,
                infos, timings, notes,
            )
            raise PipelineError(name, str(exc)) from exc
        infos[name] = result
        timings[name] = time.perf_counter() - start
        return result

    suffix = input_path.suffix.lower()
    if suffix == ".synth":
        run("synth", stage_synth, input_path, out_dir)
        points_path = out_dir / POINTS_FILE
        if boxes_path is None:
            boxes_path = out_dir / GT_BOXES_FILE
    elif suffix == ".bin":
        points_path = input_path
    elif suffix == ".rri1":
        points_path = None
    else:
        raise PipelineError(
            "input", f"unrecognized input type {suffix!r}; want .synth, .bin, or .rri1"
        )

    if points_path is not None:
        run("project", stage_project, cfg, points_path, out_dir)
        range_path = out_dir / RANGE_FILE
    else:
        range_path = input_path

    run("redeem", stage_redeem, cfg, range_path, out_dir)
    run("voxelize", stage_voxelize, cfg, out_dir / CLOUD_FILE, out_dir)
    run("fps", stage_fps, cfg, out_dir / CLOUD_FILE, out_dir)

    if boxes_path is None:
        notes.append("pool skipped: no box file given and input has no ground truth")
    else:
        run("pool", stage_pool, cfg, out_dir / KEYPOINTS_FILE, boxes_path, out_dir)

    checksums = _write_reports(out_dir, "ok", input_path, infos, timings, notes)
    log.info("pipeline finished: %d artifacts in %s", len(checksums), out_dir)
    return {
        "status": "ok",
        "out_dir": str(out_dir),
        "stages": infos,
        "timings": timings,
        "notes": notes,
        "checksums": checksums,
    }


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

# The checked instance: (c_in, c_mid, c_out) of the default parameters, the
# image's (height, width), and the central-difference step.
GRADCHECK_DIMS = (4, 6, 8)
GRADCHECK_SHAPE = (6, 10)
GRADCHECK_STEP = 1e-5


def gradcheck_instance(seed: int, dims: tuple[int, int, int]):
    """Deterministic (image, params, upstream) triple for gradient checks.

    The image is GRADCHECK_SHAPE with plausible geometry: pixel-center rays
    at random ranges, about 15 percent of pixels dropped, features uniform
    in [-1, 1].
    """
    c_in = dims[0]
    height, width = GRADCHECK_SHAPE
    sensor = SensorModel(height, width, fov_up=0.3, fov_down=0.3)
    rng = DetRng(derive_seed(seed, STREAM_SCENE))
    n = height * width
    valid = rng.uniforms(n) < 0.85
    if not valid.any():
        valid[0] = True
    ranges = rng.uniforms(n, 2.0, 10.0)
    intensity = rng.uniforms(n)
    feats = rng.uniforms(c_in * n, -1.0, 1.0).reshape(c_in, height, width)
    cols, rows = np.meshgrid(np.arange(width), np.arange(height))
    xyz = unproject_pixels(
        cols.ravel() + 0.5, rows.ravel() + 0.5, ranges, sensor
    )
    channels = np.concatenate([xyz.T, [intensity, ranges], feats.reshape(c_in, n)])
    channels = channels.reshape(-1, height, width) * valid.reshape(height, width)
    img = RangeImage(sensor, channels, valid.reshape(height, width))
    params = init_params(seed, dims)
    upstream = rng.uniforms(params.c_out * n, -1.0, 1.0).reshape(
        params.c_out, height, width
    )
    return img, params, upstream


def gradcheck_losses(
    img: RangeImage, params: HdMetaKernelParams, upstream: np.ndarray, name: str, elements
) -> np.ndarray:
    """The (2, len(elements)) central-difference losses: sum(upstream *
    hdmk_forward_planes(...)) with +GRADCHECK_STEP, then -GRADCHECK_STEP,
    added to each of `elements`, a sequence of flat indices into tensor
    `name` ("feat" or a `params.tensors()` name), one element at a time.

    The perturbed copies stack on a leading axis, in groups of
    _COLUMN_BLOCK // (h * w) per forward call, so that a call's columns
    stay within one meta-kernel block. Each loss is one sum over its own
    (c_out, h, w) output, the bytes of a forward call per element.
    """
    feat, coords, valid = img.feature_planes, img.channels[:3], img.valid
    tensor = feat if name == "feat" else params.tensors()[name]
    group = max(1, _COLUMN_BLOCK // valid.size)
    losses = []
    for step in (GRADCHECK_STEP, -GRADCHECK_STEP):
        for start in range(0, len(elements), group):
            picked = elements[start : start + group]
            stack = np.repeat(tensor[None], len(picked), axis=0)
            stack.reshape(len(picked), -1)[np.arange(len(picked)), picked] += step
            active = params if name == "feat" else params.with_tensor(name, stack)
            out = hdmk_forward_planes(stack if name == "feat" else feat, coords, valid, active)
            losses.extend(float(np.sum(upstream * one)) for one in out)
    return np.array(losses).reshape(2, -1)


def run_gradcheck(
    seed: int = 0, params: HdMetaKernelParams | None = None
) -> tuple[bool, list[dict]]:
    """Central finite differences against the analytic meta-kernel backward.

    Checks every element of the input feature planes and of every parameter
    tensor in both branches, with columns wrapping (`gradcheck_losses`). An
    element passes when |analytic - fd| <= max(1e-4 * max(|analytic|,
    |fd|), 1e-7). Returns (all passed, per-slice reports).
    """
    dims = GRADCHECK_DIMS if params is None else (params.c_in, params.c_mid, params.c_out)
    img, init, upstream = gradcheck_instance(seed, dims)
    params = init if params is None else params
    grads = hdmk_backward(img, params, upstream)
    reports = []
    for name, analytic in {"feat": grads.feat, **grads.params.tensors()}.items():
        a = analytic.ravel()
        high, low = gradcheck_losses(img, params, upstream, name, range(a.size))
        fd = (high - low) / (2.0 * GRADCHECK_STEP)
        diff = np.abs(a - fd)
        margin = float(np.max(diff / np.maximum(1e-4 * np.maximum(np.abs(a), np.abs(fd)), 1e-7)))
        reports.append(
            {
                "slice": name,
                "elements": a.size,
                "max_abs_diff": float(np.max(diff)),
                "worst_margin": margin,
                "ok": margin <= 1.0,
            }
        )
    return all(report["ok"] for report in reports), reports
