"""CLI dispatch and exit-code tests.

Exit codes are part of the interface: 0 success, 1 input problems, 2
unexpected failures. The tests drive ``main`` in-process, or the CLI as a
subprocess where the exit code or the loaded modules are what is checked.
"""

from __future__ import annotations

import json
import os
import shutil
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


@pytest.mark.parametrize("workers", [1, 2])
def test_unknown_market_token_is_exit_1(built, tmp_path, capsys, workers):
    shutil.copytree(built.parent / "ws", tmp_path / "ws")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + f"market_tokens = FOO,BAR\nworkers = {workers}\n")
    assert main(["--config", str(cfg), "metrics"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: market_tokens: 'FOO' has no rows in input/prices.csv")


def _flatten_market(ws: Path) -> None:
    """Every WETH and WBTC close set to 100, so the market index is flat."""
    path = ws / "input" / "prices.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] in ("WETH", "WBTC"):
            cells[2] = "100.0"
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _list_weth_late(ws: Path) -> None:
    """WETH's rows start nine days after the first snapshot, so the index
    misses that month's lookback and forward days."""
    first = min(p.stem for p in (ws / "snapshots").glob("*.csv"))
    path = ws / "input" / "prices.csv"
    lines = path.read_text().splitlines()
    cut = f"{first}-10"
    kept = [
        ln for ln in lines if not (ln.startswith("WETH,") and ln.split(",")[1] < cut)
    ]
    path.write_text("\n".join(kept) + "\n")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "edit", [_flatten_market, _list_weth_late], ids=["flat", "late"]
)
def test_unusable_market_index_is_exit_1(built, tmp_path, capsys, edit, workers):
    shutil.copytree(built.parent / "ws", tmp_path / "ws")
    first = min(p.stem for p in (tmp_path / "ws" / "snapshots").glob("*.csv"))
    edit(tmp_path / "ws")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + f"workers = {workers}\n")
    stages = "ingest,snapshot,optimize,metrics,report"
    assert main(["--config", str(cfg), "run", "--stages", stages]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: input/prices.csv: month {first}: market index of WETH and WBTC: "
    ), err


def test_unexpected_failure_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["--workspace", str(blocker), "synth"]) == 2
    assert "internal error" in capsys.readouterr().err


def _cut_probe_row_short(ws: Path) -> Path:
    path = ws / "input" / "probes.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    return path


def _negate_a_close(ws: Path) -> Path:
    path = ws / "input" / "prices.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "-" + cells[2]
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


def _keep_price_header_only(ws: Path) -> str:
    path = ws / "input" / "prices.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return f"{path}: no price rows"


def _repeat_a_price_row(ws: Path) -> str:
    path = ws / "input" / "prices.csv"
    lines = path.read_text().splitlines()
    lines.insert(2, lines[1])
    path.write_text("\n".join(lines) + "\n")
    token, day = lines[1].split(",")[:2]
    return f"{path}: two rows for {token!r} on {day}"


def _keep_price_span_header_only(ws: Path) -> str:
    path = ws / "price_span.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return f"{path}: expected one row, got 0"


def _edit_blockmap(edit):
    """Apply ``edit(ws, lines)`` to the lines of the block map; it returns
    the error message that should follow the file's name."""

    def corrupt(ws: Path) -> str:
        path = ws / "input" / "blockmap.csv"
        lines = path.read_text().splitlines()
        message = edit(ws, lines)
        path.write_text("\n".join(lines) + "\n")
        return f"{path}: {message}"

    return corrupt


def _keep_blockmap_header_only(ws: Path, lines: list[str]) -> str:
    del lines[1:]
    return "block-time map needs at least one anchor"


def _swap_two_anchors(ws: Path, lines: list[str]) -> str:
    lines[1], lines[2] = lines[2], lines[1]
    return "anchor blocks must be strictly increasing"


def _start_anchors_after_first_snapshot(ws: Path, lines: list[str]) -> str:
    first = sorted((ws / "snapshots").glob("*.csv"))[0].stem + "-01"
    lines[1:] = [line for line in lines[1:] if line.split(",")[1] > first]
    return f"{first} precedes the first block anchor"


def _probed_token(ws: Path) -> str:
    return (ws / "input" / "probes.csv").read_text().splitlines()[1].split(",")[0]


def _edit_events(ws: Path, edit) -> Path:
    """Apply ``edit`` to the lines of the first probed token's event file."""
    path = ws / "input" / "events" / f"{_probed_token(ws)}.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set_event_cell(column: int, value):
    """Replace one cell of the fourth event, on line 5, with ``value(cell)``."""

    def corrupt(ws: Path) -> str:
        def edit(lines):
            cells = lines[4].split(",")
            cells[column] = value(cells[column])
            lines[4] = ",".join(cells)

        return f"{_edit_events(ws, edit)}, line 5"

    return corrupt


def _move_an_event_to_another_token(ws: Path) -> Path:
    def edit(lines):
        lines[4] = "OTHER" + lines[4]

    return _edit_events(ws, edit)


def _move_every_event_to_another_token(ws: Path) -> str:
    def edit(lines):
        lines[1:] = ["OTHER" + line for line in lines[1:]]

    return f"{_edit_events(ws, edit)}, line 2"


def _swap_two_events(ws: Path) -> Path:
    def edit(lines):
        lines[2], lines[3] = lines[3], lines[2]

    return _edit_events(ws, edit)


def _rename_event_column(ws: Path) -> Path:
    def edit(lines):
        lines[0] = lines[0].replace(",event_kind,", ",kind,", 1)

    return _edit_events(ws, edit)


def _held_token(ws: Path) -> str:
    first = sorted((ws / "snapshots").glob("*.csv"))[0]
    return first.read_text().splitlines()[1].split(",")[3]


def _set_held_event_block(ws: Path) -> str:
    """Replace the block on line 5 of a held token's event file with text."""
    path = ws / "input" / "events" / f"{_held_token(ws)}.csv"
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[1] = "abc"
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}, line 5, column block"


def _overdraw(token_of):
    """Raise the first debit in the event file of ``token_of(ws)`` past the
    token's whole minted supply, which no balance can cover."""

    def corrupt(ws: Path) -> str:
        path = ws / "input" / "events" / f"{token_of(ws)}.csv"
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        minted = sum(int(row[6]) for row in rows if row[3] == "deposit")
        k, row = next((k, row) for k, row in enumerate(rows) if row[3] != "deposit")
        row[6] = str(minted + 1)
        lines[k + 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        return f"{path}: event ({row[1]}, {row[2]}) overdraws {row[4]!r}"

    return corrupt


def _truncate_manifest(ws: Path) -> str:
    path = ws / "manifest.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    return f"{path}: not a JSON manifest"


def _replace_manifest_with_a_list(ws: Path) -> str:
    path = ws / "manifest.json"
    path.write_text("[1, 2]\n")
    return f"{path}: expected a JSON object of objects"


def _probe_unknown_token(ws: Path) -> Path:
    path = ws / "input" / "probes.csv"
    lines = path.read_text().splitlines()
    lines[1] = "NOPE," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path


def _delete_probed(directory: str, stage: str):
    def corrupt(ws: Path) -> str:
        path = ws / directory / f"{_probed_token(ws)}.csv"
        path.unlink()
        return f"missing {path}; run the {stage!r} stage first"

    return corrupt


@pytest.mark.parametrize(
    "corrupt, command",
    [
        (_cut_probe_row_short, ["validate"]),
        (_rename_event_column, ["validate"]),
        (_negate_a_close, ["snapshot"]),
        # a pool's inputs are loaded before it starts, so a bad file is
        # reported as such whatever the worker count
        (_negate_a_close, ["--workers", "2", "optimize"]),
        (_set_held_event_block, ["--workers", "2", "snapshot"]),
        (_keep_price_header_only, ["snapshot"]),
        (_repeat_a_price_row, ["snapshot"]),
        # ingest parses the prices for the snapshot calendar's span
        (_keep_price_header_only, ["ingest"]),
        (_negate_a_close, ["ingest"]),
        (_keep_price_span_header_only, ["snapshot"]),
        (_edit_blockmap(_keep_blockmap_header_only), ["snapshot"]),
        (_edit_blockmap(_swap_two_anchors), ["snapshot"]),
        (_edit_blockmap(_start_anchors_after_first_snapshot), ["snapshot"]),
        (_set_event_cell(1, lambda cell: "abc"), ["ingest"]),
        (_set_event_cell(6, lambda cell: "-" + cell), ["ingest"]),
        (_set_event_cell(3, lambda cell: "airdrop"), ["ingest"]),
        (_move_an_event_to_another_token, ["ingest"]),
        (_move_every_event_to_another_token, ["ingest"]),
        (_swap_two_events, ["ingest"]),
        (_overdraw(_held_token), ["ingest"]),
        (_overdraw(_held_token), ["--workers", "2", "snapshot"]),
        (_overdraw(_probed_token), ["validate"]),
        (_probe_unknown_token, ["validate"]),
        (_delete_probed("input/events", "synth"), ["validate"]),
        (_truncate_manifest, ["snapshot"]),
        (_replace_manifest_with_a_list, ["snapshot"]),
    ],
    ids=[
        "short-probe-row",
        "renamed-event-column",
        "negative-close",
        "negative-close-optimize-workers-2",
        "bad-event-block-snapshot-workers-2",
        "header-only-prices",
        "repeated-price-row",
        "header-only-prices-ingest",
        "negative-close-ingest",
        "header-only-price-span",
        "header-only-blockmap",
        "swapped-anchors",
        "late-first-anchor",
        "bad-event-block",
        "negative-event-amount",
        "unknown-event-kind",
        "event-of-another-token",
        "events-of-another-token",
        "unsorted-events",
        "overdrawn-event",
        "overdrawn-event-snapshot-workers-2",
        "overdrawn-event-validate",
        "probe-of-unknown-token",
        "probed-events-missing",
        "truncated-manifest",
        "manifest-not-an-object",
    ],
)
def test_malformed_workspace_csv_is_exit_1(built, tmp_path, corrupt, command):
    ws = tmp_path / "ws"
    shutil.copytree(built.parent / "ws", ws)
    expected = corrupt(ws)
    src = str(Path(chainfrontier.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "chainfrontier.cli", "--workspace", str(ws), *command],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(f"error: {expected}"), result.stderr


@pytest.mark.parametrize(
    "stage, entry", [("synth", 5), ("snapshot", {})], ids=["number", "empty-object"]
)
def test_unreadable_manifest_entry_is_recomputed(built, tmp_path, stage, entry):
    """A partition entry that is not an object of both hashes counts as
    absent: its partition is recomputed and the workspace ends up as the
    fresh build of the same config, which ``built`` is."""
    ws = tmp_path / "ws"
    shutil.copytree(built.parent / "ws", ws)
    path = ws / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[stage][min(manifest[stage])] = entry
    path.write_text(json.dumps(manifest))
    for command in (stage, "validate"):
        assert main(["--config", str(built), "--workspace", str(ws), command]) == 0

    def bundle(root: Path) -> dict:
        files = (p for p in root.rglob("*") if p.is_file())
        return {p.relative_to(root): p.read_bytes() for p in files}

    assert bundle(ws) == bundle(built.parent / "ws")


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "chainfrontier.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "run the synth stage" in result.stdout


# an import, a no-op run, a repair of one deleted snapshot file, validate
# and a report-only config change, in one process; after each step it
# prints which of the heavy modules are loaded, and whether it forked
SERIAL_CALLS = """
import os
import sys
from pathlib import Path

from chainfrontier.cli import main

forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()


def loaded(step):
    heavy = ("numpy", "scipy", "pickle")
    forked = ["fork"] if forks else []
    print(step, "loaded:", *(m for m in heavy if m in sys.modules), *forked)


cfg = Path(sys.argv[1])
loaded("import")
assert main(["--config", str(cfg), "run"]) == 0
loaded("noop")
sorted((cfg.parent / "ws" / "snapshots").glob("*.csv"))[0].unlink()
assert main(["--config", str(cfg), "run"]) == 0
loaded("repair")
assert main(["--config", str(cfg), "validate"]) == 0
loaded("validate")
cfg.write_text(cfg.read_text().replace("min_bin_count = 2", "min_bin_count = 3"))
assert main(["--config", str(cfg), "run"]) == 0
loaded("report")
"""


def _script_env(**extra: str) -> dict[str, str]:
    """This process's environment with the package on the path, less the
    BLAS thread count that an in-process ``main`` call sets, plus ``extra``."""
    src = str(Path(chainfrontier.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    return {**env, **extra}


def _run_script(script: str, *args: str, **env: str) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=_script_env(**env),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_serial_calls_load_neither_scipy_nor_pickle_and_never_fork(tmp_path):
    cfg = tmp_path / "run.cfg"
    # books of up to six tokens give the four size bins a decay fit needs
    six = SMALL_CFG.replace("synth_max_size = 4", "synth_max_size = 6")
    cfg.write_text(six + "workers = 2\nmin_bin_count = 2\n")
    assert main(["--config", str(cfg), "run"]) == 0
    lines = _run_script(SERIAL_CALLS, str(cfg))
    loaded = dict(line.split(" loaded:") for line in lines if " loaded:" in line)
    # none of them loads NumPy: the report change recomputes only the
    # distance partition, whose histogram and decay fits are plain Python;
    # and though two workers are allowed, none has more than one stale
    # partition in a row with a load, so none forks or loads pickle
    assert loaded == {
        "import": "",
        "noop": "",
        "repair": "",
        "validate": "",
        "report": "",
    }
    assert "snapshot: 1 partitions computed" in lines
    assert "report: 1 partitions computed" in lines
    # the report change refits the decay curves
    fits = (tmp_path / "ws" / "report" / "decay_fit.csv").read_text().splitlines()
    assert len(fits) > 1


# a workers = 2 build of a synthesized workspace; each fork reports its
# stage and whether NumPy was loaded when it happened
FORKS = """
import os
import sys

from chainfrontier import pipeline
from chainfrontier.cli import main

stage = []
run_stage = pipeline._run_stage
fork = os.fork


def tagged(cfg, row, *args):
    stage[:] = [row.name]
    return run_stage(cfg, row, *args)


def reported():
    print("fork", stage[0], "numpy" in sys.modules)
    return fork()


pipeline._run_stage = tagged
os.fork = reported
assert main(["--config", sys.argv[1], "run"]) == 0
"""


def test_stages_fork_after_numpy_loads_only_where_numbers_are_crunched(tmp_path):
    cfg = tmp_path / "run.cfg"
    # five months give the snapshot, optimize and metrics stages several
    # partitions each, so each of them forks
    cfg.write_text(
        SMALL_CFG.replace("synth_months = 3", "synth_months = 5") + "workers = 2\n"
    )
    assert main(["--config", str(cfg), "synth"]) == 0
    lines = _run_script(FORKS, str(cfg))
    forks = [line.split()[1:] for line in lines if line.startswith("fork ")]
    # optimize and metrics children inherit NumPy from the parent instead
    # of each importing it; snapshot children never need it, ingest is one
    # partition and the report has no load, so neither forks; at two
    # workers each forking stage forks one child
    assert dict(forks) == {
        "snapshot": "False",
        "optimize": "True",
        "metrics": "True",
    }
    assert len(forks) == 3


# the BLAS thread count before and after a synth call, and whether NumPy
# was loaded
BLAS_THREADS = """
import os
import sys

from chainfrontier.cli import main

print("numpy" in sys.modules, os.environ.get("OMP_NUM_THREADS"))
assert main(["--config", sys.argv[1], "synth"]) == 0
print("numpy" in sys.modules, os.environ.get("OMP_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_one_blas_thread_unless_the_user_sets_a_count(tmp_path, preset, threads):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    env = {} if preset is None else {"OMP_NUM_THREADS": preset}
    lines = _run_script(BLAS_THREADS, str(cfg), **env)
    # NumPy loads after main sets the count, so OpenBLAS reads it
    assert lines[0] == f"False {preset}"
    assert lines[-1] == f"True {threads}"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)

    def build(name: str, env: dict[str, str]) -> dict:
        ws = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "chainfrontier.cli", "--config", str(cfg),
             "--workspace", str(ws), "run"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        files = (p for p in ws.rglob("*") if p.is_file())
        return {p.relative_to(ws): p.read_bytes() for p in files}

    default = build("default", _script_env())
    assert default == build("two", _script_env(OMP_NUM_THREADS="2"))
