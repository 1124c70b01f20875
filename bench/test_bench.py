"""Smoke-sized self-test of the benchmark: every workload in both modes.

    python3 -m pytest bench/test_bench.py

Each run uses ``--smoke`` inputs, so the whole module takes one to two
minutes. It checks the result line against BENCHMARK.json, that the
deterministic output counts repeat exactly for a fixed seed, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import SETUP_REPS
from tracing import per_layer_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 4


def _run(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def results():
    cache: dict[tuple[str, int], tuple[dict, dict]] = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.splitlines()
            cache[workload, trace] = (json.loads(lines[-2])["context"], json.loads(lines[-1]))
        return cache[workload, trace]

    return get


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer_names()
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(results, workload, trace):
    context, result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for key in ("versions", "nproc", "workload", "seed", "tracing_overhead_s"):
        assert key in context
    if trace:
        assert context["tracing_overhead_s"] is not None
        if workload == "rerun":
            assert context["design"]["frontier_solve_spans"] == 0
        if workload == "history-heavy":
            assert context["cross_worker_identical"] is True
    else:
        # one reference run before every timed call
        assert len(context["reference_s"]) == sum(map(len, context["samples"].values()))
        assert context["speed_scale"] > 0


def test_counts_repeat_for_a_fixed_seed(results):
    context, _ = results("solve-heavy", 0)
    again = _run("solve-heavy", 0)
    assert again.returncode == 0, again.stderr[-2000:]
    repeat = json.loads(again.stdout.splitlines()[-2])["context"]
    assert repeat["counts"] == context["counts"]
    # the traced run replays the first input set of the same seed
    traced, _ = results("solve-heavy", 1)
    first = str(SEED * SETUP_REPS)
    assert traced["counts"][first] == context["counts"][first]
    assert traced["counts"][first]["strategies"]["min_var"]["rows"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("rerun", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
