"""Workspace orchestration tests on a small synthetic universe.

The properties under test: every stage writes its declared partitions and
reads only what its row in the stage table declares, a rerun with
unchanged inputs touches nothing and hashes each file once, a deleted or
corrupted partition is rebuilt byte-identically, an edited input reaches
every file that depends on it and no partition that does not read it, a
stage parses its shared inputs once rather than once per partition,
stages fail loudly when their upstream outputs are missing, and the worker
count changes wall time only, never bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import pytest

from chainfrontier import frontier, storage
from chainfrontier.config import PipelineConfig
from chainfrontier.errors import DependencyError, InputError
from chainfrontier.ingest import ZERO_ACCOUNT
from chainfrontier.pipeline import (
    MANIFEST,
    PIPELINE_STAGES,
    REPORT_FILES,
    STAGES,
    _producer,
    run_pipeline,
    snapshot_calendar,
    validate_workspace,
)
from helpers import REPORT_TABLES

SMALL = dict(
    seed=11,
    synth_tokens=6,
    synth_accounts=15,
    synth_months=3,
    synth_max_size=4,
    validation_samples=30,
    min_holders=5,
)


def small_config(ws) -> PipelineConfig:
    return PipelineConfig(workspace=ws, **SMALL)


def bundle(ws) -> dict:
    return {
        str(p.relative_to(ws)): p.read_bytes()
        for p in sorted(ws.rglob("*"))
        if p.is_file()
    }


def assert_matches_fresh_build(cfg, tmp_path) -> None:
    """The workspace equals a fresh build from its own inputs, manifest
    included; the rerun's manifest also holds the synth entry of the
    original build, which a build from copied inputs lacks."""
    fresh = dataclasses.replace(cfg, workspace=tmp_path / "fresh")
    shutil.copytree(cfg.workspace / "input", fresh.workspace / "input")
    run_pipeline(fresh, PIPELINE_STAGES[1:])
    rerun, rebuilt = bundle(cfg.workspace), bundle(fresh.workspace)
    manifests = [json.loads(b.pop("manifest.json")) for b in (rerun, rebuilt)]
    manifests[0].pop("synth")
    assert manifests[0] == manifests[1]
    assert rerun == rebuilt


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One fully built workspace shared by the read-only tests."""
    cfg = small_config(tmp_path_factory.mktemp("pipe") / "ws")
    ran = run_pipeline(cfg)
    return cfg, ran


@pytest.fixture()
def copied(built, tmp_path):
    """A private copy of the built workspace for mutating tests."""
    cfg, _ = built
    ws = tmp_path / "ws"
    shutil.copytree(cfg.workspace, ws)
    return dataclasses.replace(cfg, workspace=ws)


# ---------------------------------------------------------------------------
# one full build


def test_all_stages_ran(built):
    cfg, ran = built
    assert list(ran) == list(PIPELINE_STAGES)
    assert ran["synth"] == ["all"]
    assert len(ran["ingest"]) == cfg.synth_tokens + 1  # per token + filters
    assert len(ran["snapshot"]) == cfg.synth_months
    assert ran["report"] == ["bundle"]


def test_partition_layout(built):
    cfg, _ = built
    ws = cfg.workspace
    months = [s.month for s in snapshot_calendar(cfg)]
    assert len(months) == cfg.synth_months
    for month in months:
        assert (ws / "snapshots" / f"{month}.csv").exists()
        assert (ws / "solutions" / f"{month}.csv").exists()
        assert (ws / "perf" / f"{month}.csv").exists()
    for name in REPORT_FILES:
        assert (ws / "report" / name).exists()


def test_report_tables_are_finite(built):
    cfg, _ = built
    ws = cfg.workspace
    assert tuple(REPORT_TABLES) == REPORT_FILES
    for name, table in REPORT_TABLES.items():
        for row in storage.read_table(ws / "report" / name, table):
            for key, cell in zip(table.header, row):
                if key in ("strategy", "scope", "snapshot_date", "top_shares"):
                    continue
                if cell is None or isinstance(cell, bool):
                    continue
                assert math.isfinite(float(cell)), (name, key, cell)


def test_solutions_reference_snapshot_universe(built):
    cfg, _ = built
    ws = cfg.workspace
    month = snapshot_calendar(cfg)[0].month
    positions = storage.read_table(
        ws / "snapshots" / f"{month}.csv", storage.POSITIONS
    )
    held = {(r.account, r.token_id) for r in positions}
    for sol in storage.read_table(ws / "solutions" / f"{month}.csv", storage.SOLUTIONS):
        for tid in sol.weights:
            assert (sol.account, tid) in held
        assert sol.strategy in ("baseline", "min_var", "max_ret", "max_sr")
        total = sum(sol.weights.values())
        if sol.converged:
            assert total == pytest.approx(1.0, abs=1e-6)


def test_validate_passes(built):
    cfg, _ = built
    counts = validate_workspace(cfg)
    assert counts["probes"] == cfg.validation_samples
    assert counts["tokens"] >= 1


# ---------------------------------------------------------------------------
# incremental reruns


def test_noop_rerun_touches_nothing(copied):
    ws = copied.workspace
    before = {p: p.stat().st_mtime_ns for p in ws.rglob("*") if p.is_file()}
    ran = run_pipeline(copied)
    assert all(parts == [] for parts in ran.values())
    after = {p: p.stat().st_mtime_ns for p in ws.rglob("*") if p.is_file()}
    # the manifest included: no row's entry changed, so it is not rewritten
    assert after == before


def test_noop_rerun_hashes_each_file_once(copied, monkeypatch):
    ws = copied.workspace
    reads: Counter = Counter()
    read_bytes = Path.read_bytes

    def counted(path):
        reads[path] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    assert not any(run_pipeline(copied).values())
    files = {p for p in ws.rglob("*") if p.is_file()} - {ws / MANIFEST}
    assert set(reads) == files
    assert max(reads.values()) == 1


def test_manifest_is_read_once_and_written_when_an_entry_changes(copied, monkeypatch):
    calls: Counter = Counter()
    read_manifest, write_manifest = storage.read_manifest, storage.write_manifest

    def reading(path):
        calls["read"] += 1
        return read_manifest(path)

    def writing(path, manifest):
        calls["write"] += 1
        write_manifest(path, manifest)

    monkeypatch.setattr(storage, "read_manifest", reading)
    monkeypatch.setattr(storage, "write_manifest", writing)
    ws = copied.workspace
    original = (ws / MANIFEST).read_bytes()
    assert not any(run_pipeline(copied).values())
    assert calls == {"read": 1}

    # a rebuilt partition with the same inputs and bytes leaves its entry as is
    sorted((ws / "snapshots").glob("*.csv"))[0].unlink()
    assert len(run_pipeline(copied)["snapshot"]) == 1
    assert calls == {"read": 2}

    # a report-only change rewrites the manifest once, for the report row
    changed = dataclasses.replace(copied, min_bin_count=copied.min_bin_count + 1)
    assert run_pipeline(changed)["report"] == ["bundle"]
    assert calls == {"read": 3, "write": 1}
    assert (ws / MANIFEST).read_bytes() != original
    run_pipeline(copied)
    assert (ws / MANIFEST).read_bytes() == original


def test_deleted_partition_rebuilt_identically(copied):
    ws = copied.workspace
    months = sorted(p.name for p in (ws / "solutions").glob("*.csv"))
    victim = ws / "solutions" / months[1]
    original = victim.read_bytes()
    untouched = ws / "solutions" / months[0]
    mtime0 = untouched.stat().st_mtime_ns

    victim.unlink()
    ran = run_pipeline(copied, ["optimize"])["optimize"]
    assert ran == [victim.stem]
    assert victim.read_bytes() == original
    assert untouched.stat().st_mtime_ns == mtime0


def test_corrupted_partition_rebuilt_identically(copied):
    ws = copied.workspace
    victim = sorted((ws / "ledgers").glob("*.csv"))[0]
    original = victim.read_bytes()
    victim.write_bytes(original[: len(original) // 2])
    ran = run_pipeline(copied, ["ingest"])["ingest"]
    assert victim.stem in ran
    assert victim.read_bytes() == original


def test_config_change_invalidates_only_dependent_stage(copied):
    bumped = dataclasses.replace(copied, min_holders=copied.min_holders + 1)
    ran = run_pipeline(bumped)
    assert ran["synth"] == []
    assert ran["ingest"] == []
    assert ran["snapshot"] == []
    assert ran["optimize"] == []
    assert ran["metrics"] == []
    assert ran["report"] == ["bundle"]


def test_decimals_edit_matches_fresh_build(copied, tmp_path):
    """Snapshot quantities scale by token decimals, which live in meta.csv;
    of the ingest partitions only the edited token's ledger and the
    screening report read them."""
    ws = copied.workspace
    first_month = sorted((ws / "snapshots").glob("*.csv"))[0]
    held = storage.read_table(first_month, storage.POSITIONS)[0].token_id
    meta = ws / "input" / "meta.csv"
    storage.write_table(
        meta,
        storage.META,
        [
            dataclasses.replace(m, decimals=m.decimals + 2) if m.token_id == held else m
            for m in storage.read_table(meta, storage.META)
        ],
    )
    ran = run_pipeline(copied, PIPELINE_STAGES[1:])
    assert ran["ingest"] == [held, "filters"]
    assert len(ran["snapshot"]) == copied.synth_months
    assert_matches_fresh_build(copied, tmp_path)


def test_prices_edit_skips_ingest_and_matches_fresh_build(copied, tmp_path):
    """Ingest never reads prices, so one edited close recomputes none of
    its partitions, while every snapshot month reads the prices."""
    path = copied.workspace / "input" / "prices.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    row = rows[len(rows) // 2]
    row[2] = repr(float(row[2]) * 1.5)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    ran = run_pipeline(copied, PIPELINE_STAGES[1:])
    assert ran["ingest"] == []
    assert len(ran["snapshot"]) == copied.synth_months
    assert_matches_fresh_build(copied, tmp_path)


def test_lookback_edit_matches_fresh_build(copied, tmp_path):
    """A longer lookback drops early months, and their files must go too."""
    longer = dataclasses.replace(copied, lookback_days=copied.lookback_days + 40)
    assert 0 < len(snapshot_calendar(longer)) < len(snapshot_calendar(copied))
    run_pipeline(longer)
    assert_matches_fresh_build(longer, tmp_path)


def test_token_count_edit_matches_fresh_build(copied, tmp_path):
    """Fewer synthetic tokens drop event files and ledgers, which must go too."""
    fewer = dataclasses.replace(copied, synth_tokens=copied.synth_tokens - 2)
    run_pipeline(fewer)

    fresh = dataclasses.replace(fewer, workspace=tmp_path / "fresh")
    run_pipeline(fresh)
    assert bundle(fewer.workspace) == bundle(fresh.workspace)


def _held_token(ws: Path) -> str:
    first_month = sorted((ws / "snapshots").glob("*.csv"))[0]
    return storage.read_table(first_month, storage.POSITIONS)[0].token_id


def _double_a_mint(cfg: PipelineConfig) -> PipelineConfig:
    path = cfg.workspace / "input" / "events" / f"{_held_token(cfg.workspace)}.csv"
    events = storage.read_table(path, storage.EVENTS)
    k = next(i for i, e in enumerate(events) if e.sender == ZERO_ACCOUNT)
    events[k] = events[k]._replace(amount=2 * events[k].amount)
    storage.write_table(path, storage.EVENTS, events)
    return cfg


def _move_a_snapshot_block(cfg: PipelineConfig) -> PipelineConfig:
    """Move the anchor of the first snapshot's block halfway back to the
    anchor before it."""
    path = cfg.workspace / "input" / "blockmap.csv"
    anchors = storage.read_table(path, storage.BLOCKMAP)
    block = snapshot_calendar(cfg)[0].block
    k = next(i for i, (b, _) in enumerate(anchors) if b == block)
    anchors[k] = ((anchors[k - 1][0] + block) // 2, anchors[k][1])
    storage.write_table(path, storage.BLOCKMAP, anchors)
    return cfg


def _bump_a_probe(cfg: PipelineConfig) -> PipelineConfig:
    path = cfg.workspace / "input" / "probes.csv"
    probes = storage.read_table(path, storage.PROBES)
    token, account, block, balance = probes[0]
    probes[0] = (token, account, block, balance + 1)
    storage.write_table(path, storage.PROBES, probes)
    return cfg


def _screen_out_a_held_token(cfg: PipelineConfig) -> PipelineConfig:
    held = _held_token(cfg.workspace)
    metas = storage.read_table(cfg.workspace / "input" / "meta.csv", storage.META)
    volume = next(m.total_volume for m in metas if m.token_id == held)
    return dataclasses.replace(cfg, min_volume=volume * 1.001)


# one edit of an input file or of a key of the optimize, metrics or
# ingest.filters row each; every one must change some output
EDITS = {
    "event-amount": _double_a_mint,
    "blockmap-block": _move_a_snapshot_block,
    "probe-balance": _bump_a_probe,
    "w_max": lambda cfg: dataclasses.replace(cfg, w_max=0.6),
    "rf_annual": lambda cfg: dataclasses.replace(cfg, rf_annual=cfg.rf_annual + 0.5),
    "mean_shrink_lambda": lambda cfg: dataclasses.replace(cfg, mean_shrink_lambda=0.1),
    "forward_days": lambda cfg: dataclasses.replace(
        cfg, forward_days=cfg.forward_days + 10
    ),
    "min_volume": _screen_out_a_held_token,
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
def test_edited_input_or_key_matches_fresh_build(copied, tmp_path, edit):
    def outputs(ws):
        return {
            rel: data
            for rel, data in bundle(ws).items()
            if not rel.startswith("input") and rel != "manifest.json"
        }

    before = outputs(copied.workspace)
    edited = edit(copied)
    run_pipeline(edited, PIPELINE_STAGES[1:])
    assert outputs(edited.workspace) != before
    assert_matches_fresh_build(edited, tmp_path)


def test_seed_change_rebuilds_everything(copied):
    reseeded = dataclasses.replace(copied, seed=copied.seed + 1)
    ran = run_pipeline(reseeded)
    assert ran["synth"] == ["all"]
    assert len(ran["snapshot"]) == reseeded.synth_months


# ---------------------------------------------------------------------------
# determinism


def test_worker_count_changes_nothing(built, tmp_path):
    cfg, _ = built
    parallel = dataclasses.replace(cfg, workspace=tmp_path / "ws2", workers=3)
    run_pipeline(parallel)
    assert bundle(parallel.workspace) == bundle(cfg.workspace)


def test_same_seed_reproduces_bundle(built, tmp_path):
    cfg, _ = built
    again = dataclasses.replace(cfg, workspace=tmp_path / "ws3")
    run_pipeline(again)
    assert bundle(again.workspace) == bundle(cfg.workspace)


def test_stages_parse_shared_inputs_once(tmp_path, monkeypatch):
    cfg = dataclasses.replace(small_config(tmp_path / "ws"), workers=1)
    run_pipeline(cfg, ["synth"])
    prices: list[str] = []
    ledgers: list[str] = []
    read_table = storage.read_table

    def counted(path, table):
        path = Path(path)
        if path.name == "prices.csv":
            prices.append(path.name)
        elif path.parent.name == "ledgers":
            ledgers.append(path.name)
        return read_table(path, table)

    monkeypatch.setattr(storage, "read_table", counted)

    for name in (*PIPELINE_STAGES[1:], "validate"):
        prices.clear()
        ledgers.clear()
        if name == "validate":
            validate_workspace(cfg)
        else:
            run_pipeline(cfg, [name])
        # snapshot's calendar shares the one parse of prices.csv
        expected = 1 if name in ("snapshot", "optimize", "metrics") else 0
        assert len(prices) == expected, name
        assert max(Counter(ledgers).values(), default=0) <= 1, (name, ledgers)
        if name == "snapshot":
            assert ledgers

    # a no-op rerun loads nothing; only the snapshot calendar reads prices
    prices.clear()
    ledgers.clear()
    ran = run_pipeline(cfg)
    assert not any(ran.values())
    assert prices == ["prices.csv"]
    assert ledgers == []


def test_optimize_solves_one_gmv_per_book(tmp_path, monkeypatch):
    cfg = dataclasses.replace(small_config(tmp_path / "ws"), workers=1)
    run_pipeline(cfg, ["synth", "ingest", "snapshot"])
    calls = []
    minimize = frontier.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(frontier, "minimize", counted)
    run_pipeline(cfg, ["optimize"])
    books = sum(
        row.strategy == "baseline"
        for path in sorted((cfg.workspace / "solutions").glob("*.csv"))
        for row in storage.read_table(path, storage.SOLUTIONS)
    )
    assert books > 0
    assert 0 < len(calls) <= books


# ---------------------------------------------------------------------------
# the stage table


def _under(rel: str, declared) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in declared)


def test_every_stage_reads_only_what_its_row_declares(tmp_path, monkeypatch):
    cfg = dataclasses.replace(small_config(tmp_path / "ws"), workers=1)
    ws = cfg.workspace
    parsed: list[Path] = []
    hashed: list[Path] = []

    def spied(reader):
        def read(path, *args, **kwargs):
            parsed.append(Path(path))
            return reader(path, *args, **kwargs)

        return read

    for name, fn in list(vars(storage).items()):
        # the manifest is the cache's own record, not a stage input
        if name.startswith("read_") and callable(fn) and name != "read_manifest":
            monkeypatch.setattr(storage, name, spied(fn))
    read_bytes = Path.read_bytes

    def hashing(path):
        hashed.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", hashing)

    for stage in PIPELINE_STAGES:
        parsed.clear()
        hashed.clear()
        run_pipeline(cfg, [stage])
        seen = {p.relative_to(ws).as_posix() for p in parsed}
        digested = {p.relative_to(ws).as_posix() for p in hashed}
        reads, writes = set(), set()
        for row in STAGES:
            if row.stage == stage:
                parts, _ = row.plan(cfg)
                reads |= {*row.index, *row.shared}
                reads |= {rel for part in parts for rel in part.reads}
                writes |= {rel for part in parts for rel in part.writes}
        assert seen or stage == "synth"
        for rel in seen:
            assert _under(rel, reads), (stage, rel)
        # hashing also reads back what the stage wrote
        for rel in digested:
            assert _under(rel, reads | writes), (stage, rel)


def test_every_config_key_is_declared_by_a_stage():
    declared = {key for row in STAGES for key in row.keys}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert declared == fields - {"workspace", "workers"}


MISSING_READS = [
    (row.stage, rel)
    for row in STAGES
    for rel in row.index + row.shared
    if _producer(rel) != row.stage
]


@pytest.mark.parametrize(
    "stage, rel", MISSING_READS, ids=[f"{s}-{r}" for s, r in MISSING_READS]
)
def test_missing_read_names_the_stage_that_writes_it(copied, stage, rel):
    producer = _producer(rel)
    assert PIPELINE_STAGES.index(producer) < PIPELINE_STAGES.index(stage)
    path = copied.workspace / rel
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    with pytest.raises(DependencyError, match=f"run the '{producer}' stage first"):
        run_pipeline(copied, [stage])


# ---------------------------------------------------------------------------
# failure modes


def test_missing_upstream_names_the_stage(tmp_path):
    cfg = small_config(tmp_path / "empty")
    with pytest.raises(DependencyError, match="run the 'synth' stage first"):
        run_pipeline(cfg, ["ingest"])
    with pytest.raises(DependencyError, match="run the 'metrics' stage first"):
        run_pipeline(cfg, ["report"])
    with pytest.raises(DependencyError, match="run the 'ingest' stage first"):
        validate_workspace(cfg)


def test_unknown_stage_rejected(tmp_path):
    cfg = small_config(tmp_path / "ws")
    with pytest.raises(InputError, match="unknown stages"):
        run_pipeline(cfg, ["synth", "bogus"])


def test_stage_subset_runs_in_dependency_order(tmp_path):
    cfg = small_config(tmp_path / "ws")
    ran = run_pipeline(cfg, ["ingest", "synth"])  # order given does not matter
    assert list(ran) == ["synth", "ingest"]
    assert ran["synth"] == ["all"]


def test_validate_catches_probe_mismatch(copied):
    ws = copied.workspace
    tid = storage.read_table(ws / "input" / "probes.csv", storage.PROBES)[0][0]
    account = storage.read_table(ws / "input" / "probes.csv", storage.PROBES)[0][1]
    path = ws / "ledgers" / f"{tid}.csv"
    lines = path.read_text().splitlines()
    # a spurious credit at block zero shifts every later balance up by one
    lines.insert(1, f"{tid},{account},0,0,1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="validation failed"):
        validate_workspace(copied)


def test_validate_catches_conservation_break(copied):
    ws = copied.workspace
    tid = storage.read_table(ws / "input" / "probes.csv", storage.PROBES)[0][0]
    path = ws / "ledgers" / f"{tid}.csv"
    lines = path.read_text().splitlines()
    # credit an account no probe ever looks at: probes pass, totals do not
    lines.insert(1, f"{tid},0xphantom,0,0,1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="validation failed"):
        validate_workspace(copied)
