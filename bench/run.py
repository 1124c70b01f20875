"""chainfrontier benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload solve-heavy --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src/chainfrontier``, run with nothing installed. The workloads and the
layer each one isolates are described in ``bench/workloads.py``.

``--trace 0`` drives the real CLI in fresh subprocesses and prints the
end-to-end metrics. Each timing is a median over the repetitions made in
the run, scaled to the machine speed that a fixed reference task, timed
right before every timed call, measures (see ``program.py``).
``--trace 1`` runs the same workload in-process at ``workers = 1`` with
spans around every layer's public functions and prints the per-layer
metrics; spans are written to ``.bench_out/``. Both modes check the
program's outputs, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The line before
it holds the run context: versions, ``nproc``, configs, seeds, sample
counts, the deterministic output counts and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import (
    STRATEGIES,
    CheckFailed,
    check_workspace,
    digest,
    ratios,
    require,
    workspace_bytes,
)
from program import CallFailed, Program
from tracing import Tracer, per_layer, per_layer_names, unit_of
from workloads import BUILD_STAGES, REPORT_KEY, STAGES, WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent

# set-ups per run: each uses its own input seed, and setup_s is their median
SETUP_REPS = 3
# timings are scaled to a machine on which the reference task takes this long
REFERENCE_S = 1.0
TIMINGS = ("setup_s", "build_s", "noop_s", "repair_s", "report_s", "validate_s")
E2E_UNITS = {"peak_rss_mb": "MB", "converged_ratio": "ratio", "kept_ratio": "ratio"}


@dataclasses.dataclass
class InputSet:
    """One set of synth inputs: its seed, config files and workspace."""

    seed: int
    values: dict[str, str]
    config: Path
    alt_config: Path  # the same with REPORT_KEY changed
    workspace: Path


def _input_sets(workload, seed: int, work: Path, defaults) -> list[InputSet]:
    sets = []
    for i in range(SETUP_REPS):
        values = {**workload.config, "seed": str(seed * SETUP_REPS + i)}
        alt = dict(values)
        alt[REPORT_KEY] = str(int(values.get(REPORT_KEY, getattr(defaults, REPORT_KEY))) + 1)
        config = work / f"input{i}.cfg"
        alt_config = work / f"input{i}-alt.cfg"
        config.write_text(config_text(values))
        alt_config.write_text(config_text(alt))
        sets.append(InputSet(seed * SETUP_REPS + i, values, config, alt_config, work / f"ws{i}"))
    return sets


def _check_values(cfgmod, inputs: InputSet) -> dict:
    cfg = cfgmod.parse_config(inputs.config.read_text())
    return {"w_max": cfg.w_max, "lookback_days": cfg.lookback_days, "forward_days": cfg.forward_days}


def _months(ws: Path) -> list[str]:
    return sorted(p.stem for p in (ws / "snapshots").glob("*.csv"))


# ---------------------------------------------------------------------------
# end-to-end run: the CLI in subprocesses, tracing off


def _cli_cycle(call, inputs: InputSet, ws: Path, cycle: int, samples) -> None:
    """No-op run, repair of one snapshot partition, report-only change and back, validate."""
    samples["noop_s"].append(call(inputs.config, ws, "run").seconds)
    months = _months(ws)
    (ws / "snapshots" / f"{months[cycle % len(months)]}.csv").unlink()
    samples["repair_s"].append(call(inputs.config, ws, "run").seconds)
    samples["report_s"].append(call(inputs.alt_config, ws, "run").seconds)
    samples["report_s"].append(call(inputs.config, ws, "run").seconds)
    out = call(inputs.config, ws, "validate")
    samples["validate_s"].append(out.seconds)
    require(out.stdout.startswith("validated "), f"validate printed {out.stdout!r}")


def run_untraced(workload, seed: int, seconds: int, work: Path, prog: Program, cfgmod):
    samples: dict[str, list[float]] = {name: [] for name in TIMINGS}
    sets = _input_sets(workload, seed, work, cfgmod.PipelineConfig())
    counts: dict[int, dict] = {}
    digests: dict[int, str] = {}

    def build(inputs: InputSet, ws: Path, call) -> float:
        """Time a cold build; check the first build of each input set, compare later ones."""
        seconds = call(inputs.config, ws, "run", "--stages", ",".join(BUILD_STAGES)).seconds
        i = sets.index(inputs)
        if i in digests:
            require(digest(ws) == digests[i], f"rebuild of input set {i} differs from its first build")
        else:
            counts[i] = check_workspace(ws, _check_values(cfgmod, inputs))
            digests[i] = digest(ws)
        return seconds

    # compiles bytecode on a fresh checkout, so no timed call pays for it
    prog.python("-c", "import chainfrontier.cli")

    for inputs in sets:
        setup = prog.timed_cli(inputs.config, inputs.workspace, "synth").seconds
        if workload.kind == "rerun":
            samples["build_s"].append(build(inputs, inputs.workspace, prog.timed_cli))
            setup += samples["build_s"][-1]
        samples["setup_s"].append(setup)

    start = time.perf_counter()
    if workload.kind == "rerun":
        # untimed warm-up cycle; it still counts against the run's seconds
        _cli_cycle(prog.cli, sets[0], sets[0].workspace, 0, {name: [] for name in TIMINGS})
        require(digest(sets[0].workspace) == digests[0], "warm-up cycle changed the workspace")

    cycle = 0
    durations: list[float] = []
    # two cycles at least; after that, start one only if a typical cycle still
    # ends within the run's seconds
    while cycle < 2 or time.perf_counter() - start + statistics.mean(durations) <= seconds:
        began = time.perf_counter()
        inputs = sets[cycle % len(sets)]
        ws = inputs.workspace
        if workload.kind == "build":
            ws = work / f"build{cycle}"
            shutil.copytree(inputs.workspace, ws)
            samples["build_s"].append(build(inputs, ws, prog.timed_cli))
        _cli_cycle(prog.timed_cli, inputs, ws, cycle, samples)
        require(
            digest(ws) == digests[sets.index(inputs)],
            f"cycle {cycle}: incremental reruns left {ws.name} differing from a fresh build",
        )
        if workload.kind == "build":
            shutil.rmtree(ws)
        durations.append(time.perf_counter() - began)
        cycle += 1

    # untimed builds of the input sets no cycle reached, so the output checks
    # and the pooled ratios always cover every input set
    for inputs in sets:
        if sets.index(inputs) not in counts:
            ws = work / f"check-{inputs.workspace.name}"
            shutil.copytree(inputs.workspace, ws)
            build(inputs, ws, prog.cli)
            shutil.rmtree(ws)

    pooled = [counts[i] for i in sorted(counts)]
    raw = {name: statistics.median(values) for name, values in samples.items()}
    scale = REFERENCE_S / statistics.median(prog.reference_s)
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = prog.peak_rss_mb
    metrics.update(ratios(pooled))
    context = {
        "samples": samples,
        "raw_medians_s": raw,
        "reference_s": prog.reference_s,
        "speed_scale": scale,
        "cycles": cycle,
        "input_seeds": [s.seed for s in sets],
        "counts": {str(sets[i].seed): counts[i] for i in sorted(counts)},
        "tracing_overhead_s": None,
        "notes": [
            "timings are medians over the samples listed here, multiplied by "
            "speed_scale: REFERENCE_S over the median time of the reference "
            "task, which runs right before every timed program call; with "
            "fewer than ten samples no upper percentile is reported",
            "peak_rss_mb is the largest ru_maxrss of any program process in the "
            "run, pool workers included",
        ],
    }
    return metrics, context


# ---------------------------------------------------------------------------
# traced run: the same work in-process at workers = 1


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _stages(prog: Program, pipeline, cfg, tracer, kind: str, parts: dict) -> None:
    for stage in STAGES:
        with _span(tracer, f"pipeline.{kind}.{stage}"):
            ran = prog.inprocess(pipeline.run_pipeline, cfg, [stage])
        parts[stage] = parts.get(stage, 0) + len(ran[stage])
        if kind == "noop":
            require(not ran[stage], f"no-op run recomputed {stage}: {ran[stage]}")


def _validate(prog: Program, pipeline, cfg, tracer) -> None:
    with _span(tracer, "pipeline.stage.validate"):
        prog.inprocess(pipeline.validate_workspace, cfg)


def _traced_build(prog, pipeline, cfg, tracer) -> dict:
    parts: dict[str, int] = {}
    _stages(prog, pipeline, cfg, tracer, "stage", parts)
    _validate(prog, pipeline, cfg, tracer)
    return parts


def _traced_cycle(prog, pipeline, cfg, alt_cfg, tracer, cycle: int) -> dict:
    _stages(prog, pipeline, cfg, tracer, "noop", {})
    months = _months(cfg.workspace)
    (cfg.workspace / "snapshots" / f"{months[cycle % len(months)]}.csv").unlink()
    parts: dict[str, int] = {}
    for step_cfg in (cfg, alt_cfg, cfg):
        _stages(prog, pipeline, step_cfg, tracer, "stage", parts)
    _validate(prog, pipeline, cfg, tracer)
    return parts


def run_traced(workload, seed: int, seconds: int, work: Path, prog: Program, cfgmod):
    pipeline = importlib.import_module("chainfrontier.pipeline")
    inputs = _input_sets(workload, seed, work, cfgmod.PipelineConfig())[0]
    base = dataclasses.replace(cfgmod.parse_config(inputs.config.read_text()), workers=1)
    alt = dataclasses.replace(base, **{REPORT_KEY: getattr(base, REPORT_KEY) + 1})
    checks = _check_values(cfgmod, inputs)

    prog.python("-c", "import chainfrontier.cli")
    import_s = statistics.median(
        prog.python("-c", "import chainfrontier.cli").seconds for _ in range(3)
    )
    cross = None
    if int(inputs.values.get("workers", "1")) > 1:
        ws = work / "cli"
        prog.cli(inputs.config, ws, "synth")
        prog.cli(inputs.config, ws, "run", "--stages", ",".join(BUILD_STAGES))
        cross = digest(ws)
    if workload.kind == "rerun":
        cfg = dataclasses.replace(base, workspace=work / "rerun")
        prog.inprocess(pipeline.run_pipeline, cfg)
        built = digest(cfg.workspace)

    passes: list[dict] = []
    spans: list[list] = []
    counts = None
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or (
        time.perf_counter() - start + statistics.mean(durations) <= seconds
    ):
        began = time.perf_counter()
        p = len(passes)
        tracer = Tracer()
        if workload.kind == "build":
            cfg_u = dataclasses.replace(base, workspace=work / f"untraced{p}")
            t0 = time.perf_counter()
            _traced_build(prog, pipeline, cfg_u, None)
            untraced = time.perf_counter() - t0
            cfg = dataclasses.replace(base, workspace=work / f"traced{p}")
            with tracer.installed():
                t0 = time.perf_counter()
                parts = _traced_build(prog, pipeline, cfg, tracer)
                traced = time.perf_counter() - t0
                _stages(prog, pipeline, cfg, tracer, "noop", {})
            built = digest(cfg.workspace)
            require(digest(cfg_u.workspace) == built, "traced and untraced builds differ")
            shutil.rmtree(cfg_u.workspace)
            if cross is not None:
                require(
                    cross == built,
                    "the workers = 2 CLI build and the workers = 1 traced build differ",
                )
        else:
            cfg_alt = dataclasses.replace(alt, workspace=cfg.workspace)
            t0 = time.perf_counter()
            _traced_cycle(prog, pipeline, cfg, cfg_alt, None, 2 * p)
            untraced = time.perf_counter() - t0
            require(digest(cfg.workspace) == built, "untraced cycle changed the workspace")
            with tracer.installed():
                t0 = time.perf_counter()
                parts = _traced_cycle(prog, pipeline, cfg, cfg_alt, tracer, 2 * p + 1)
                traced = time.perf_counter() - t0
            require(digest(cfg.workspace) == built, "traced cycle changed the workspace")

        if counts is None:
            counts = check_workspace(cfg.workspace, checks)
        values = per_layer(tracer.spans)
        for stage in STAGES:
            values[f"pipeline.partitions_computed.{stage}"] = parts.get(stage, 0)
        values["cli.import_s"] = import_s
        values["storage.workspace_bytes"] = workspace_bytes(cfg.workspace)
        values["frontier.dropped_books"] = counts["dropped_books"]
        values["trace.overhead_s"] = traced - untraced
        passes.append(values)
        if not spans:
            spans = tracer.export()
        if workload.kind == "build":
            shutil.rmtree(cfg.workspace)
        durations.append(time.perf_counter() - began)

    metrics = {}
    for name in per_layer_names():
        column = [values[name] for values in passes]
        if unit_of(name) == "s":
            metrics[name] = statistics.median(column)
        else:
            require(
                all(v == column[0] for v in column),
                f"count {name} differs between passes: {column}",
            )
            metrics[name] = column[0]

    for s in STRATEGIES:
        if metrics[f"frontier.solve.{s}.calls"]:
            per = counts["strategies"][s]
            require(
                (
                    metrics[f"frontier.solve.{s}.calls"],
                    metrics[f"frontier.iterations.{s}"],
                    metrics[f"frontier.unconverged.{s}"],
                )
                == (per["rows"], per["iterations"], per["rows"] - per["converged"]),
                f"traced {s} solves disagree with the solution files",
            )

    build = sum(metrics[f"pipeline.stage.{stage}.s"] for stage in BUILD_STAGES)
    solve = sum(metrics[f"frontier.solve.{s}.s"] for s in STRATEGIES)
    reads = sum(metrics[f"pipeline.stage.{stage}.parse_s"] for stage in BUILD_STAGES)
    context = {
        "passes": len(passes),
        "input_seeds": [inputs.seed],
        "counts": {str(inputs.seed): counts},
        "tracing_overhead_s": metrics["trace.overhead_s"],
        "design": {
            "build_stages_s": build,
            "frontier_solve_share_of_build": solve / build if build else None,
            "storage_read_share_of_build": reads / build if build else None,
            "frontier_solve_spans": sum(metrics[f"frontier.solve.{s}.calls"] for s in STRATEGIES),
        },
        "cross_worker_identical": None if cross is None else True,
        "notes": [
            "per-layer numbers come from an in-process workers = 1 run: spans "
            "recorded in the benchmark's process cannot see into pool workers",
            "tracing overhead is the traced minus the untraced time of the same "
            "in-process work",
            "storage.read_rows counts every call, including those made by the "
            "other storage readers",
        ],
    }
    return metrics, context, spans


# ---------------------------------------------------------------------------
# entry point


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        out[name] = importlib.import_module(name).__version__
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the self-test"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "chainfrontier" / "cli.py").is_file():
        print(f"bench: no program source at {src}/chainfrontier", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cfgmod = importlib.import_module("chainfrontier.config")
    require(
        Path(cfgmod.__file__).resolve().is_relative_to(src),
        f"imported chainfrontier from {cfgmod.__file__}, not {src}",
    )

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = dataclasses.replace(workload, config={**workload.config, **workload.smoke})
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    prog = Program(ROOT, work / "logs")

    spans = None
    error = None
    try:
        if args.trace:
            metrics, context, spans = run_traced(
                workload, args.seed, args.seconds, work, prog, cfgmod
            )
        else:
            metrics, context = run_untraced(
                workload, args.seed, args.seconds, work, prog, cfgmod
            )
    except (CallFailed, CheckFailed) as exc:
        error = str(exc)
    except Exception as exc:  # noqa: BLE001 - a program crash is a failed run
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = cfgmod.parse_config(
        config_text({**workload.config, "seed": str(args.seed * SETUP_REPS)})
    )
    full = dict(line.split(" = ", 1) for line in cfgmod.render_config(first).splitlines())
    full.pop("workspace")
    if error is not None:
        print(f"bench: {error}", file=sys.stderr)
        context = {"error": error}
    context = {
        "workload": {
            "name": workload.name,
            "kind": workload.kind,
            "why": workload.why,
            "isolates": workload.isolates,
            "config": full,
            "smoke": args.smoke,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": _versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **context,
    }
    result = {
        "correct": error is None,
        "attempted": prog.attempted,
        # a failed check counts as one failed operation
        "failed": prog.failed or int(error is not None),
        "metrics": {}
        if error is not None
        else {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n"
    )
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if error is None else 1


def _unit(name: str) -> str:
    return E2E_UNITS.get(name) or unit_of(name)


if __name__ == "__main__":
    sys.exit(main())
