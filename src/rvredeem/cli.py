"""Command-line front end.

One subcommand per pipeline stage plus `pipeline` for the one-shot run and
`gradcheck` for the meta-kernel gradient test. Stage subcommands call the
exact functions the one-shot run uses, so chaining them produces
bit-identical artifacts.

The package honors RR_THREADS: set it to a positive integer before invoking
to cap the BLAS worker pools.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, formats, pipeline
from .core import load_config


# Stage subcommand -> (help, --input help); each runs pipeline.stage_<name>
# on the config, the input, the boxes for `pool` only, and the output.
STAGES = {
    "project": ("project raw points to a range image", "raw point file (.bin)"),
    "redeem": ("extract per-pixel features and lift to points", "range image (.rri1)"),
    "fps": ("furthest point sampling of a feature cloud", "feature cloud (.rfp1)"),
    "voxelize": ("voxelize a feature cloud to a BEV map", "feature cloud (.rfp1)"),
    "pool": ("pool RoI features and refine boxes", "keypoint cloud (.rfp1)"),
}


def _add_config(parser):
    parser.add_argument("--config", required=True, help="key=value pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvredeem",
        description="Range-view 3D detection pipeline tools.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress (-v info, -vv debug)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--input", required=True, help="scene spec file (.synth)")
    p.add_argument("--out", required=True, help="output directory")

    for name, (help_text, input_help) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        _add_config(p)
        p.add_argument("--input", required=True, help=input_help)
        if name == "pool":
            p.add_argument("--boxes", required=True, help="box list file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", help="run every stage in one shot")
    _add_config(p)
    p.add_argument(
        "--input", required=True, help="scene spec (.synth), points (.bin), or image (.rri1)"
    )
    p.add_argument("--boxes", default=None, help="box list file (default: ground truth)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gradcheck", help="finite-difference check of the meta kernel")
    p.add_argument("--seed", type=int, default=0, help="instance seed")
    p.add_argument(
        "--input", default=None, help="optional weights file (.rwt1) to check"
    )

    return parser


def _config_from(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _print_info(info: dict) -> None:
    for key, value in info.items():
        print(f"{key}: {value}")


def _cmd_gradcheck(args) -> int:
    params = None
    if args.input is not None:
        _, params = pipeline.unpack_rvfe_weights(
            formats.read_rwt1(args.input), Path(args.input).name
        )
    ok, reports = pipeline.run_gradcheck(seed=args.seed, params=params)
    for rep in reports:
        print(
            f"{rep['slice']}: {rep['elements']} elements, "
            f"max |analytic - fd| = {rep['max_abs_diff']:.3e}, "
            f"margin {rep['worst_margin']:.3f}, "
            f"{'ok' if rep['ok'] else 'FAIL'}"
        )
    print(f"gradcheck {'passed' if ok else 'FAILED'} ({len(reports)} slices)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "synth":
            _print_info(pipeline.stage_synth(args.input, args.out))
        elif args.command in STAGES:
            boxes = (args.boxes,) if args.command == "pool" else ()
            stage = getattr(pipeline, f"stage_{args.command}")
            _print_info(stage(_config_from(args), args.input, *boxes, args.out))
        elif args.command == "pipeline":
            pipeline.run_pipeline(
                _config_from(args), args.input, args.out, args.boxes
            )
            print((Path(args.out) / pipeline.SUMMARY_FILE).read_text(), end="")
        elif args.command == "gradcheck":
            return _cmd_gradcheck(args)
    except (OSError, ValueError, pipeline.PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
