"""rvredeem benchmark: scan-to-refined-boxes runs on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload

Run from the repository root; the package is imported from ./src. Every
run pins RR_THREADS=1, the single-threaded baseline.

One operation of a pipeline workload is one `pipeline.run_pipeline` call
from `points.bin` plus a box list to `refined.txt`. The inputs come from the
workload's scene spec with its seed replaced by --seed, generated before
timing starts (real users bring their scans). One operation of
`gradcheck-6x10` is one `pipeline.run_gradcheck()` call with its defaults,
what `rvredeem gradcheck` runs; its instance does not depend on --seed.

Operations repeat, in a closed loop on one thread, until --seconds have
passed. Every operation's outputs are checked; a failed check or an
exception fails the operation.

Times are reported at a fixed CPU speed (see hostspeed.py): while an
operation runs, a short fixed probe is timed every 50 ms on the same
thread, and the operation's time less the probes' is divided by how much
slower than nominal the probes ran. On a 2-vCPU Xeon guest of a shared
host, the quartile spread of ten runs' medians was 10-18% measured and 2-3%
normalized. The measured wall times and the slowdown are printed too.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  op_s         median seconds per operation, wall time at nominal speed
  cpu_s        median user+sys CPU seconds per operation, at nominal speed
  peak_rss_mb  peak resident memory of this process
  setup_s      median, over several fresh interpreters, of the time to
               `import rvredeem.pipeline` and `load_config` the workload,
               each at the speed probed just before and after it
op_s_tail (with its percentile and sample count), the measured wall
times and fail_ratio are printed in the report lines; the last line is
the JSON result.

--trace 1 alternates untraced and traced operations (see tracing.py) and
reports per-layer metrics, the median over traced operations of each.
Stage metrics (`pipeline.*_s`) are inclusive wall times; the other `_s`
metrics are self times, which with the stages' own self time sum to the
operation's duration. Every `_s` metric is scaled to nominal speed by its
operation's probed slowdown, like op_s.

Without --workload every workload runs, untraced then traced, each in its
own child process so that peak memory is per workload; the exit code is
non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

# Must precede the first numpy import: rvredeem sizes the BLAS pools from it.
os.environ["RR_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import rvredeem  # noqa: E402  (before numpy, so RR_THREADS takes effect)
from rvredeem import formats, load_config, pipeline  # noqa: E402
from rvredeem.synth import gen_synthetic_scene, parse_synth_spec  # noqa: E402

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sky-64x512", "scan-64x2048", "proposals-512", "gradcheck-6x10")
GRADCHECK = "gradcheck-6x10"
WORKLOAD_DIR = BENCH_DIR / "workloads"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 0
SETUP_REPEATS = 15
# What a set-up child does: a fresh interpreter up to a loaded config.
SETUP_SCRIPT = "import sys, rvredeem.pipeline; rvredeem.load_config(sys.argv[1])"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Stage metrics are inclusive; layer metrics are self times.
STAGE_METRICS = {
    "pipeline.project_s": "pipeline.project",
    "pipeline.redeem_s": "pipeline.redeem",
    "pipeline.voxelize_s": "pipeline.voxelize",
    "pipeline.fps_s": "pipeline.fps",
    "pipeline.pool_s": "pipeline.pool",
    "pipeline.gradcheck_s": "pipeline.gradcheck",
}
LAYER_METRICS = {
    "rvfe.basicblock_s": "rvfe.basicblock",
    "rvfe.hdmk_forward_s": "rvfe.hdmk_forward",
    "rvfe.hdmk_backward_s": "rvfe.hdmk_backward",
    "core.rangeimage_s": "core.rangeimage",
    "formats.rri1_s": "formats.rri1",
    "formats.rfp1_s": "formats.rfp1",
    "formats.other_s": "formats.other",
    "formats.sha256_s": "formats.sha256",
    "range_geometry.build_s": "range_geometry.build",
    "range_geometry.redeem_s": "range_geometry.redeem",
    "pointops.fps_s": "pointops.fps",
    "pointops.voxelize_s": "pointops.voxelize",
    "pointops.bev_flatten_s": "pointops.bev_flatten",
    "pointops.ball_query_s": "pointops.ball_query",
    "pointops.aggregate_s": "pointops.aggregate",
    "sgrid.pool_s": "sgrid.pool",
    "sgrid.head_s": "sgrid.head",
}
COUNT_METRICS = {
    "rvfe.hdmk_forward_calls": "count",
    "rvfe.hdmk_gflop": "GFLOP-computed",
    "rvfe.hdmk_mb": "MB-computed",
    "core.rangeimage_count": "count",
    "formats.rri1_mb": "MB",
    "range_geometry.points_in": "count",
    "range_geometry.points_out_of_fov": "count",
    "range_geometry.valid_px": "count",
    "pointops.fps_steps": "count",
    "pointops.fps_shortfall": "count",
    "pointops.points_outside_grid": "count",
    "pointops.occupied_voxels": "count",
    "pointops.bev_mb": "MB-computed",
    "sgrid.boxes": "count",
    "sgrid.empty_fine": "count",
    "sgrid.empty_coarse": "count",
    "pointops.ball_query_calls": "count",
}


class CheckFailed(Exception):
    """An operation's outputs broke one of the benchmark's output checks."""


def tail(values):
    """(value, percentile) of the highest order statistic with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "RR_THREADS": os.environ["RR_THREADS"],
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def measure_setup(config_path: Path) -> tuple[float, float]:
    """(wall s, s at nominal speed) for one fresh interpreter to import
    rvredeem and load a config. The speed is probed in this process just
    before and just after the child runs."""
    before = hostspeed.burst()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(config_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, stdin=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - start
    return wall, hostspeed.normalize(wall, before + hostspeed.burst())


# ---------------------------------------------------------------------------
# Workloads: set-up, one operation, output checks
# ---------------------------------------------------------------------------

class PipelineWorkload:
    """A scene turned into points.bin plus a box list, run scan to boxes."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.config_path = WORKLOAD_DIR / f"{name}.cfg"
        self.cfg = load_config(self.config_path)
        spec = replace(parse_synth_spec(WORKLOAD_DIR / f"{name}.synth"), seed=seed)
        scene = gen_synthetic_scene(spec)
        self.points = work / "points.bin"
        self.boxes = work / "boxes.txt"
        formats.write_kitti_bin(
            self.points,
            np.concatenate([scene.cloud.xyz, scene.cloud.intensity[:, None]], axis=1),
        )
        formats.write_boxes(self.boxes, scene.boxes)
        self.box_count = len(scene.boxes)
        self.runs = 0

    def operation(self):
        self.runs += 1
        out = self.work / f"op{self.runs}"
        return out, pipeline.run_pipeline(self.cfg, self.points, out, boxes_path=self.boxes)

    def check(self, outcome):
        """Raise CheckFailed on a bad output; return the artifact checksums."""
        out, result = outcome
        try:
            stages = result["stages"]
            counts = {
                "points": stages["project"]["points"],
                "valid_pixels": stages["project"]["valid_pixels"],
                "boxes": stages["pool"]["boxes"],
                "kept": stages["fps"]["kept"],
            }
            redeemed = stages["redeem"]["redeemed_points"]
            problems = []
            if redeemed != counts["valid_pixels"]:
                problems.append(f"redeemed {redeemed} != valid pixels {counts['valid_pixels']}")
            budget = min(self.cfg.keypoint_count, redeemed)
            if counts["kept"] != budget:
                problems.append(f"kept {counts['kept']} != min(budget, cloud) {budget}")
            voxel_sum = int(np.load(out / pipeline.VOXEL_COUNT_FILE).sum())
            in_range = stages["voxelize"]["in_range_points"]
            if voxel_sum != in_range:
                problems.append(f"voxel counts sum {voxel_sum} != in-range {in_range}")
            refined = (out / pipeline.REFINED_FILE).read_text(encoding="utf-8")
            if counts["boxes"] != self.box_count or refined.count("\n") != self.box_count + 1:
                problems.append(f"refined boxes disagree with the {self.box_count} given")
            checksums = result["checksums"]
            if self.seed == DEFAULT_SEED:
                expected = EXPECTED[self.name]
                if counts != expected["counts"]:
                    problems.append(f"counts {counts} != recorded {expected['counts']}")
                if checksums != expected["checksums"]:
                    problems.append(f"checksums {checksums} != recorded")
            if problems:
                raise CheckFailed("; ".join(problems))
            return checksums
        finally:
            shutil.rmtree(out, ignore_errors=True)


class GradcheckWorkload:
    """The default meta-kernel gradient check on a 6x10 image."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        # The gradcheck has no sensor config; set-up loads the shipped sensor.
        self.config_path = WORKLOAD_DIR / "sky-64x512.cfg"

    def operation(self):
        return pipeline.run_gradcheck()

    def check(self, outcome):
        """Raise CheckFailed on a bad output; return the reports' checksum."""
        ok, reports = outcome
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        problems = [] if ok else ["gradcheck did not return ok"]
        # The instance never changes with --seed, so every run is compared.
        if digest != EXPECTED[self.name]["checksums"]["reports"]:
            problems.append(f"report checksum {digest} != recorded")
        if problems:
            raise CheckFailed("; ".join(problems))
        return digest


def make_workload(name: str, seed: int, work: Path):
    cls = GradcheckWorkload if name == GRADCHECK else PipelineWorkload
    return cls(name, seed, work)


class Timing(NamedTuple):
    """One operation's times; op_s and cpu_s are at nominal speed."""

    wall: float
    slowdown: float
    probed: float  # seconds spent in probes during the operation
    op_s: float
    cpu_s: float


class Loop:
    """Runs and checks operations, counting attempts and failures.

    Every operation's checksums must equal those of the run's first one,
    traced or not.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, tracer=None):
        """One checked operation, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            with hostspeed.sampling() as probes:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    outcome = self.workload.operation()
                else:
                    with tracer.installed(), tracer.span("op"):
                        outcome = self.workload.operation()
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                probed = probes.spent
            checksums = self.workload.check(outcome)
            if self.reference is None:
                self.reference = checksums
            elif checksums != self.reference:
                raise CheckFailed("checksums differ from this run's first operation")
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        return Timing(wall, hostspeed.slowdown(probes), probed,
                      hostspeed.normalize(wall, probes, probed),
                      hostspeed.normalize(cpu, probes, probed))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(workload, seconds: float):
    # Set-up is measured first, so that every operation runs in the same
    # conditions: back to back, with no child interpreter in between to
    # change the state of the memory the next operation faults in.
    setup = [measure_setup(workload.config_path) for _ in range(SETUP_REPEATS)]
    loop = Loop(workload)
    timings = []
    deadline = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < deadline:
        timing = loop.run()
        if timing is not None:
            timings.append(timing)
    if not timings:
        return loop, {}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = [t.op_s for t in timings]
    metrics = {
        "op_s": (statistics.median(op_s), "s"),
        "cpu_s": (statistics.median(t.cpu_s for t in timings), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
    }
    print(f"  operations: {loop.attempted} attempted, {loop.failed} failed, "
          f"fail_ratio {loop.failed / loop.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    tail_value = tail(op_s)
    if tail_value is None:
        print(f"  op_s_tail = n/a: {len(op_s)} samples, fewer than 11")
    else:
        note = ", below the median: too few samples for a tail" if tail_value[1] < 50 else ""
        print(f"  op_s_tail = {tail_value[0]:.6g} s "
              f"(p{tail_value[1]:.1f} of {len(op_s)} samples{note})")
    print(f"  measured: wall {statistics.median(t.wall for t in timings):.6g} s per operation, "
          f"set-up {statistics.median(w for w, _ in setup):.6g} s; host slowdown "
          f"{statistics.median(t.slowdown for t in timings):.4g} (median over operations)")
    return loop, metrics


def run_traced(workload, seconds: float):
    loop = Loop(workload)
    untraced, traced = [], []
    self_time = {}
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        timing = loop.run()
        if timing is not None:
            untraced.append(timing.op_s)
        tracer = tracing.Tracer()
        timing = loop.run(tracer)
        if timing is not None:
            layer_metrics, self_time = per_layer(tracer, timing)
            traced.append(layer_metrics)
        if loop.failed:
            break
    if not traced or not untraced:
        return loop, {}
    metrics = {
        name: (statistics.median([t[name][0] for t in traced]), traced[0][name][1])
        for name in traced[0]
    }
    op_s = metrics["trace.op_s"][0]
    untraced_s = statistics.median(untraced)
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (op_s - untraced_s, "s")
    print(f"  operations: {loop.attempted} attempted ({len(traced)} traced), "
          f"{loop.failed} failed")
    print(f"  traced op_s = {op_s:.6g} s, untraced op_s = {untraced_s:.6g} s, "
          f"overhead {op_s - untraced_s:+.6g} s")
    print("  measured self time by span (last traced operation):")
    last_s = sum(self_time.values())
    for name, value in sorted(self_time.items(), key=lambda kv: -kv[1]):
        print(f"    {name:32s} {value:10.4f} s  {100 * value / last_s:6.2f}%")
    print(f"    {'sum (the operation)':32s} {last_s:10.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return loop, metrics


def per_layer(tracer, timing):
    """({name: (value, unit)}, self seconds by span) of one traced operation;
    seconds are scaled to nominal speed by the operation's slowdown."""
    inclusive, self_time = tracer.totals()
    scale = 1.0 / timing.slowdown
    counts = tracer.counts
    out = {name: (scale * inclusive.get(span, 0.0), "s")
           for name, span in STAGE_METRICS.items()}
    out.update({name: (scale * self_time.get(span, 0.0), "s")
                for name, span in LAYER_METRICS.items()})
    out.update({name: (float(counts[name]), unit) for name, unit in COUNT_METRICS.items()})
    out["range_geometry.pixel_collisions"] = (
        counts["range_geometry.points_in"] - counts["range_geometry.valid_px"], "count")
    evaluated = counts["rvfe.evaluated_px"]
    out["rvfe.useful_px_ratio"] = (
        counts["rvfe.valid_px"] / evaluated if evaluated else 0.0, "ratio")
    calls = counts["pointops.ball_query_calls"]
    out["pointops.nonempty_ball_ratio"] = (
        counts["pointops.nonempty_balls"] / calls if calls else 0.0, "ratio")
    op_s = inclusive["op"]
    layers = sum(self_time.get(span, 0.0) for span in LAYER_METRICS.values())
    out["trace.op_s"] = (scale * (op_s - timing.probed), "s")
    out["trace.layer_share"] = (layers / op_s, "ratio")
    return out, self_time


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    print("machine " + json.dumps(machine_info()))
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(name, seed, work)
        loop, metrics = (run_traced if trace else run_untraced)(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    correct = loop.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    failed = []
    for name in WORKLOADS:
        for trace in (0, 1):
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdin=subprocess.DEVNULL,
            ).returncode
            sys.stdout.flush()
            if code != 0:
                failed.append(f"{name} trace {trace}")
    print("all workloads: " + ("ok" if not failed else "FAILED " + ", ".join(failed)))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="workload to run (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if Path(rvredeem.__file__).resolve().parent != SRC / "rvredeem":
        parser.error(f"rvredeem imported from {rvredeem.__file__}, not {SRC}")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
