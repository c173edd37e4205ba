"""Span tracing from outside the program, for the benchmark's traced runs.

`Tracer` replaces public rvredeem functions with timing wrappers for the
duration of a `with tracer.installed():` block and puts the originals back
on exit. A name is wrapped where the caller looks it up: `pipeline` binds
`basicblock_forward` at import, so the stage sees the wrapper only if
`pipeline.basicblock_forward` is replaced, not `rvfe.basicblock_forward`.

Spans (name, start, end, parent) are kept in memory. A span's self time is
its duration minus that of its direct children, so the self times of one
operation sum to its duration. Counters are read from public return values,
or from the call's own arguments where the return value cannot tell (and
for the shape-derived `computed` counts), by an observer that runs after
the wrapped call inside its own `trace.observe` span, so counting is
charged to tracing, not to the layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rvredeem import core, formats, pipeline, range_geometry, sgrid

OBSERVE = "trace.observe"


def hdmk_dense_flops(h: int, w: int, c_in: int, c_mid: int, c_out: int) -> int:
    """FLOPs of one dense meta-kernel forward over an h x w image.

    Per branch and each of its 9 taps: the weight perceptron (3 -> c_mid ->
    c_in, 2 per multiply-add plus bias and ReLU) and the gating product;
    then the accumulator (9 c_in -> c_out / 2). Every pixel is evaluated.
    """
    n = h * w
    tap = 2 * 3 * c_mid + 2 * c_mid + 2 * c_mid * c_in + c_in + 2 * c_in
    acc = 2 * 9 * c_in * (c_out // 2) + c_out // 2
    return 2 * (9 * tap + acc) * n


def hdmk_dense_bytes(h: int, w: int, c_in: int, c_mid: int, c_out: int) -> int:
    """Bytes one dense meta-kernel branch keeps alive at once.

    Per tap it saves the neighbour features, validity (1 byte), coordinate
    deltas, pre-activations, hidden activations and gates; then the
    9 c_in chunk matrix and the branch output. float64 throughout.
    """
    n = h * w
    per_tap = 8 * (c_in + 3 + c_mid + c_mid + c_in) + 1
    return (9 * per_tap + 8 * 9 * c_in + 8 * (c_out // 2)) * n


# --- observers: (counts, args, kwargs, result) -> None ----------------------

def _count_forward(counts, valid, c_in, c_mid, c_out):
    h, w = valid.shape
    counts["rvfe.hdmk_forward_calls"] += 1
    counts["rvfe.valid_px"] += int(np.count_nonzero(valid))
    counts["rvfe.evaluated_px"] += h * w
    counts["rvfe.hdmk_gflop"] += hdmk_dense_flops(h, w, c_in, c_mid, c_out) / 1e9
    mb = hdmk_dense_bytes(h, w, c_in, c_mid, c_out) / 1e6
    counts["rvfe.hdmk_mb"] = max(counts["rvfe.hdmk_mb"], mb)


def _obs_hdmk_forward(counts, args, kwargs, result):
    params = args[1]
    _count_forward(counts, result.valid, params.c_in, params.c_mid, params.c_out)


def _obs_hdmk_forward_planes(counts, args, kwargs, result):
    # The returned planes are zero at invalid pixels but may be zero at valid
    # ones too, so validity is taken from the mask passed in.
    valid, params = args[2], args[3]
    _count_forward(counts, valid, params.c_in, params.c_mid, params.c_out)


def _obs_project_points(counts, args, kwargs, result):
    in_fov = result[3]
    inside = int(np.count_nonzero(in_fov))
    counts["range_geometry.points_in"] += inside
    counts["range_geometry.points_out_of_fov"] += in_fov.size - inside


def _obs_build_range_image(counts, args, kwargs, result):
    counts["range_geometry.valid_px"] += int(np.count_nonzero(result.valid))


def _obs_fps(counts, args, kwargs, result):
    requested = args[1] if len(args) > 1 else kwargs["count"]
    counts["pointops.fps_steps"] += len(result) - 1
    counts["pointops.fps_shortfall"] += max(0, requested - len(result))


def _obs_voxelize(counts, args, kwargs, result):
    counts["pointops.points_outside_grid"] += len(args[0]) - result.total_count
    counts["pointops.occupied_voxels"] += len(result.voxels)


def _obs_bev_flatten(counts, args, kwargs, result):
    grid = args[0]
    cells = int(np.prod(grid.shape)) * grid.feature_dim
    counts["pointops.bev_mb"] += 8 * cells / 1e6


def _obs_sgrid_pool(counts, args, kwargs, result):
    counts["sgrid.boxes"] += len(result)
    counts["sgrid.empty_fine"] += sum(int(r.fine_empty.sum()) for r in result)
    counts["sgrid.empty_coarse"] += sum(int(r.coarse_empty.sum()) for r in result)


def _obs_ball_query(counts, args, kwargs, result):
    counts["pointops.ball_query_calls"] += 1
    counts["pointops.nonempty_balls"] += int(result.size > 0)


def _obs_rangeimage(counts, args, kwargs, result):
    counts["core.rangeimage_count"] += 1


def _obs_rri1(counts, args, kwargs, result):
    counts["formats.rri1_mb"] += os.path.getsize(args[0]) / 1e6


# (owner, attribute, span name, observer). Owners are the modules (or the
# class) through which the caller looks the name up.
WRAPS = (
    (pipeline, "stage_project", "pipeline.project", None),
    (pipeline, "stage_redeem", "pipeline.redeem", None),
    (pipeline, "stage_voxelize", "pipeline.voxelize", None),
    (pipeline, "stage_fps", "pipeline.fps", None),
    (pipeline, "stage_pool", "pipeline.pool", None),
    (pipeline, "run_gradcheck", "pipeline.gradcheck", None),
    (pipeline, "basicblock_forward", "rvfe.basicblock", None),
    (pipeline, "hdmk_forward", "rvfe.hdmk_forward", _obs_hdmk_forward),
    (pipeline, "hdmk_forward_planes", "rvfe.hdmk_forward", _obs_hdmk_forward_planes),
    (pipeline, "hdmk_backward", "rvfe.hdmk_backward", None),
    (pipeline, "build_range_image", "range_geometry.build", _obs_build_range_image),
    # Nested in build_range_image; wrapped for its counts, timed as build.
    (range_geometry, "project_points", "range_geometry.build", _obs_project_points),
    (pipeline, "redeem_feature_points", "range_geometry.redeem", None),
    (pipeline, "furthest_point_sampling", "pointops.fps", _obs_fps),
    (pipeline, "voxelize", "pointops.voxelize", _obs_voxelize),
    (pipeline, "bev_flatten", "pointops.bev_flatten", _obs_bev_flatten),
    (pipeline, "sgrid_pool", "sgrid.pool", _obs_sgrid_pool),
    (sgrid, "ball_query", "pointops.ball_query", _obs_ball_query),
    (sgrid, "pointnet_aggregate", "pointops.aggregate", None),
    (pipeline, "refine_head_forward", "sgrid.head", None),
    (core.RangeImage, "__post_init__", "core.rangeimage", _obs_rangeimage),
    (formats, "read_rri1", "formats.rri1", _obs_rri1),
    (formats, "write_rri1", "formats.rri1", _obs_rri1),
    (formats, "read_rfp1", "formats.rfp1", None),
    (formats, "write_rfp1", "formats.rfp1", None),
    (formats, "read_kitti_bin_array", "formats.other", None),
    (formats, "read_rwt1", "formats.other", None),
    (formats, "write_rwt1", "formats.other", None),
    (formats, "read_rrf1", "formats.other", None),
    (formats, "write_rrf1", "formats.other", None),
    (formats, "read_boxes", "formats.other", None),
    (formats, "sha256_file", "formats.sha256", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with self.span(OBSERVE):
                    observe(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPS; restore the originals on exit."""
        originals = []
        try:
            for owner, attr, name, observe in WRAPS:
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, fn in originals
            if vars(owner)[attr] is not fn
        ]
        if leaked:
            raise RuntimeError(f"tracing left wrappers in place: {leaked}")

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) summed per span name.

        Inclusive sums are meant for names that never nest in themselves:
        the operation and the pipeline stages.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, parent), children in zip(self.spans, child_time):
            inclusive[name] += end - start
            self_time[name] += end - start - children
        return dict(inclusive), dict(self_time)
