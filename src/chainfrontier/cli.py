"""Command-line front end for the pipeline.

One subcommand per stage plus ``run`` (a stage subset in dependency
order) and ``validate`` (ledger ground-truth checks). Exit status is 0 on
success, 1 for input problems (bad config, missing upstream outputs,
failed validation), 2 for anything unexpected. NumPy's BLAS runs one
thread per process unless the environment sets a count.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import InputError
from .pipeline import PIPELINE_STAGES, run_pipeline, validate_workspace

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainfrontier",
        description="Reconstruct on-chain portfolios and project them onto "
        "constrained mean-variance frontiers.",
    )
    parser.add_argument(
        "--config", type=Path, default=None, help="key = value config file"
    )
    parser.add_argument(
        "--workspace", type=Path, default=None, help="override the workspace directory"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="parallel partition workers"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log stage progress"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    for stage in PIPELINE_STAGES:
        sub.add_parser(stage, help=f"run the {stage} stage")
    run = sub.add_parser("run", help="run several stages in dependency order")
    run.add_argument(
        "--stages",
        default=",".join(PIPELINE_STAGES),
        help="comma-separated stage subset (default: all)",
    )
    sub.add_parser("validate", help="check ledgers against ground-truth probes")
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    if args.workspace is not None:
        overrides["workspace"] = args.workspace
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    # NumPy loads after this line, in the calls that crunch numbers, and pool
    # workers fork from this process: one BLAS thread each, unless the user
    # set a count. The matrices are a book's moments and KKT systems of a
    # few dozen rows, and ``workers`` is the program's parallelism.
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _configure(args)
        if args.command == "validate":
            counts = validate_workspace(cfg)
            print(
                f"validated {counts['probes']} probes "
                f"across {counts['tokens']} tokens"
            )
            return 0
        stages = None
        if args.command == "run":
            stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        elif args.command in PIPELINE_STAGES:
            stages = [args.command]
        ran = run_pipeline(cfg, stages)
        for stage, parts in ran.items():
            state = f"{len(parts)} partitions computed" if parts else "up to date"
            print(f"{stage}: {state}")
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        log.exception("unhandled failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
