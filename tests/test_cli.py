"""CLI dispatch and exit-code tests.

Exit codes are part of the interface: 0 success, 1 input problems, 2
unexpected failures. Everything here drives ``main`` in-process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainfrontier
from chainfrontier.cli import main

SMALL_CFG = """
workspace = ws
seed = 11
synth_tokens = 6
synth_accounts = 15
synth_months = 3
synth_max_size = 4
validation_samples = 30
min_holders = 5
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "run.cfg"
    path.write_text(SMALL_CFG)
    return path


@pytest.fixture(scope="module")
def built(config_file):
    assert main(["--config", str(config_file), "run"]) == 0
    return config_file


def test_run_reports_each_stage(built, capsys):
    assert main(["--config", str(built), "run"]) == 0
    out = capsys.readouterr().out
    for stage in ("synth", "ingest", "snapshot", "optimize", "metrics", "report"):
        assert f"{stage}: up to date" in out


def test_single_stage_subcommand(built, capsys):
    assert main(["--config", str(built), "optimize"]) == 0
    assert "optimize: up to date" in capsys.readouterr().out


def test_stage_subset_flag(built, capsys):
    assert main(["--config", str(built), "run", "--stages", "metrics,report"]) == 0
    out = capsys.readouterr().out
    assert "metrics: up to date" in out
    assert "synth" not in out


def test_validate_subcommand(built, capsys):
    assert main(["--config", str(built), "validate"]) == 0
    assert "validated 30 probes" in capsys.readouterr().out


def test_workspace_override(built, tmp_path, capsys):
    code = main(
        ["--config", str(built), "--workspace", str(tmp_path / "alt"), "synth"]
    )
    assert code == 0
    assert (tmp_path / "alt" / "input" / "meta.csv").exists()


def test_missing_upstream_is_exit_1(tmp_path, capsys):
    code = main(["--workspace", str(tmp_path / "none"), "optimize"])
    assert code == 1
    err = capsys.readouterr().err
    assert "run the 'snapshot' stage first" in err


def test_bad_config_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wmax = 0.5\n")
    assert main(["--config", str(bad), "run"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg"), "run"]) == 1
    assert "not found" in capsys.readouterr().err


def test_bad_stage_name_is_exit_1(built, capsys):
    assert main(["--config", str(built), "run", "--stages", "bogus"]) == 1
    assert "unknown stages" in capsys.readouterr().err


def test_unexpected_failure_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["--workspace", str(blocker), "synth"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "chainfrontier.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "run the synth stage" in result.stdout


# a no-op run, a report-only config change and validate, in one process
SERIAL_CALLS = """
import sys
from pathlib import Path

from chainfrontier.cli import main

cfg = Path(sys.argv[1])
assert main(["--config", str(cfg), "run"]) == 0
cfg.write_text(cfg.read_text().replace("min_bin_count = 2", "min_bin_count = 3"))
assert main(["--config", str(cfg), "run"]) == 0
assert main(["--config", str(cfg), "validate"]) == 0
print(" ".join(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules))
"""


def test_serial_calls_load_neither_scipy_nor_the_process_pool(tmp_path):
    cfg = tmp_path / "run.cfg"
    # books of up to six tokens give the four size bins a decay fit needs
    six = SMALL_CFG.replace("synth_max_size = 4", "synth_max_size = 6")
    cfg.write_text(six + "workers = 1\nmin_bin_count = 2\n")
    assert main(["--config", str(cfg), "run"]) == 0
    src = str(Path(chainfrontier.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    result = subprocess.run(
        [sys.executable, "-c", SERIAL_CALLS, str(cfg)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
    )
    assert result.returncode == 0, result.stderr
    *calls, loaded = result.stdout.splitlines()
    assert "report: 1 partitions computed" in calls
    # the report change refits the decay curves
    fits = (tmp_path / "ws" / "report" / "decay_fit.csv").read_text().splitlines()
    assert len(fits) > 1
    assert loaded == ""
