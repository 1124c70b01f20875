"""Workspace orchestration tests on a small synthetic universe.

The properties under test: every stage writes its declared partitions and
reads only what its row in the stage table declares, a rerun with
unchanged inputs touches nothing and hashes each file once, a deleted or
corrupted partition is rebuilt byte-identically, an edited input reaches
every file that depends on it and no partition that does not read it, a
run parses each shared input once, in the parent rather than in each forked
child, stages fail loudly when their upstream outputs are missing, a
forked child's error reaches the caller after every child is reaped, and
the worker count changes wall time only, never bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import fnmatch
import importlib.util
import json
import math
import os
import random
import shutil
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfrontier import frontier, numeric, pipeline, storage
from chainfrontier.config import PipelineConfig
from chainfrontier.errors import DependencyError, InputError
from chainfrontier.ingest import ZERO_ACCOUNT, TransferEvent
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
from oracles import ReferenceFrontier

SMALL = dict(
    seed=11,
    synth_tokens=8,
    synth_accounts=15,
    synth_months=3,
    # books of up to six tokens give the four size bins a decay fit needs
    synth_max_size=6,
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
    assert ran["ingest"] == ["filters"]
    assert len(ran["snapshot"]) == cfg.synth_months
    assert ran["report"] == ["performance", "distance", "concentration"]


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
        weights = storage.decode_weights(sol.weights)
        for tid in weights:
            assert (sol.account, tid) in held
        assert sol.strategy in ("baseline", "min_var", "max_ret", "max_sr")
        total = sum(weights.values())
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
    assert run_pipeline(changed)["report"] == ["distance"]
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
    victim = sorted((ws / "snapshots").glob("*.csv"))[0]
    original = victim.read_bytes()
    victim.write_bytes(original[: len(original) // 2])
    ran = run_pipeline(copied, ["snapshot"])["snapshot"]
    assert ran == [victim.stem]
    assert victim.read_bytes() == original


def test_config_change_invalidates_only_dependent_stage(copied):
    bumped = dataclasses.replace(copied, min_holders=copied.min_holders + 1)
    ran = run_pipeline(bumped)
    assert ran["synth"] == []
    assert ran["ingest"] == []
    assert ran["snapshot"] == []
    assert ran["optimize"] == []
    assert ran["metrics"] == []
    assert ran["report"] == ["concentration"]


def test_decimals_edit_matches_fresh_build(copied, tmp_path):
    """Snapshot quantities scale by token decimals, which live in meta.csv,
    and the screening report reads them too."""
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
    assert ran["ingest"] == ["filters"]
    assert len(ran["snapshot"]) == copied.synth_months
    assert_matches_fresh_build(copied, tmp_path)


def test_prices_edit_matches_fresh_build(copied, tmp_path):
    """Ingest parses the prices for the priced-day span, so one edited
    close recomputes its one partition, which writes the same screening
    report, while every snapshot month reads the closes."""
    path = copied.workspace / "input" / "prices.csv"
    filters = (copied.workspace / pipeline.FILTERS).read_bytes()
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    row = rows[len(rows) // 2]
    row[2] = repr(float(row[2]) * 1.5)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    ran = run_pipeline(copied, PIPELINE_STAGES[1:])
    assert ran["ingest"] == ["filters"]
    assert (copied.workspace / pipeline.FILTERS).read_bytes() == filters
    assert len(ran["snapshot"]) == copied.synth_months
    assert_matches_fresh_build(copied, tmp_path)


@pytest.mark.parametrize("lost", [0, 1], ids=["last-day", "last-month"])
def test_shorter_price_history_matches_fresh_build(copied, tmp_path, lost):
    """Dropping the last priced days ends the span earlier; once the last
    snapshot's forward window no longer fits, that month's files must go."""
    ws = copied.workspace
    months = snapshot_calendar(copied)
    path = ws / "input" / "prices.csv"
    rows = storage.read_table(path, storage.PRICES)
    first, last = min(r[1] for r in rows), max(r[1] for r in rows)
    if lost:
        cut = months[-1].timestamp + dt.timedelta(days=copied.forward_days)
    else:
        cut = last
    storage.write_table(path, storage.PRICES, [r for r in rows if r[1] < cut])
    ran = run_pipeline(copied, PIPELINE_STAGES[1:])
    assert ran["ingest"] == ["filters"]
    span = storage.read_table(ws / pipeline.PRICE_SPAN, storage.PRICE_SPAN)
    assert span == [(first, cut - dt.timedelta(days=1))]
    kept = [s.month for s in months[: len(months) - lost]]
    assert [s.month for s in snapshot_calendar(copied)] == kept
    for sub in ("snapshots", "solutions", "perf"):
        assert sorted(p.stem for p in (ws / sub).glob("*.csv")) == kept
    assert_matches_fresh_build(copied, tmp_path)


def test_deleted_price_span_recomputes_only_ingest(copied):
    """Ingest writes the span again byte for byte, so no snapshot month,
    which hashes it, recomputes."""
    ws = copied.workspace
    before = bundle(ws)
    (ws / pipeline.PRICE_SPAN).unlink()
    ran = run_pipeline(copied)
    assert ran.pop("ingest") == ["filters"]
    assert not any(ran.values())
    assert bundle(ws) == before


def test_lookback_edit_matches_fresh_build(copied, tmp_path):
    """A longer lookback drops early months, and their files must go too."""
    longer = dataclasses.replace(copied, lookback_days=copied.lookback_days + 40)
    assert 0 < len(snapshot_calendar(longer)) < len(snapshot_calendar(copied))
    run_pipeline(longer)
    assert_matches_fresh_build(longer, tmp_path)


def test_token_count_edit_matches_fresh_build(copied, tmp_path):
    """Fewer synthetic tokens drop event files, which must go too."""
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


def _drop_a_held_price(cfg: PipelineConfig) -> PipelineConfig:
    """Delete the row of a held token ten days before the first snapshot,
    inside its lookback window, so that day carries the previous close."""
    ws = cfg.workspace
    first_month = sorted((ws / "snapshots").glob("*.csv"))[0]
    held = storage.read_table(first_month, storage.POSITIONS)[0]
    gap = held.snapshot_date - dt.timedelta(days=10)
    path = ws / "input" / "prices.csv"
    rows = storage.read_table(path, storage.PRICES)
    kept = [r for r in rows if (r[0], r[1]) != (held.token_id, gap)]
    assert len(kept) == len(rows) - 1
    storage.write_table(path, storage.PRICES, kept)
    return cfg


# one edit of an input file or of a key of the optimize, metrics or
# ingest row each, and of every report key; every one must change some
# output
EDITS = {
    "event-amount": _double_a_mint,
    "blockmap-block": _move_a_snapshot_block,
    "probe-balance": _bump_a_probe,
    "price-gap": _drop_a_held_price,
    "w_max": lambda cfg: dataclasses.replace(cfg, w_max=0.6),
    "rf_annual": lambda cfg: dataclasses.replace(cfg, rf_annual=cfg.rf_annual + 0.5),
    "mean_shrink_lambda": lambda cfg: dataclasses.replace(cfg, mean_shrink_lambda=0.1),
    "forward_days": lambda cfg: dataclasses.replace(
        cfg, forward_days=cfg.forward_days + 10
    ),
    "min_volume": _screen_out_a_held_token,
    "dust_threshold": lambda cfg: dataclasses.replace(cfg, dust_threshold=1000.0),
    "distance_bin_edges": lambda cfg: dataclasses.replace(
        cfg, distance_bin_edges=(0.0, 50.0, 100.0)
    ),
    # at the default of 30 no size bin is full enough to fit
    "min_bin_count": lambda cfg: dataclasses.replace(cfg, min_bin_count=2),
    "top_k_pcts": lambda cfg: dataclasses.replace(cfg, top_k_pcts=(50.0,)),
    "min_holders": lambda cfg: dataclasses.replace(cfg, min_holders=10),
    # size bins need min_bin_count = 2 to fill, as above
    "size_bin_min": lambda cfg: dataclasses.replace(
        cfg, min_bin_count=2, size_bin_min=3
    ),
    "size_bin_max": lambda cfg: dataclasses.replace(
        cfg, min_bin_count=2, size_bin_max=5
    ),
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


# for each input file: its table, the rows an edit may pick, and the edit of
# row k, which keeps the file valid
ROW_EDITS = {
    "meta": (
        "input/meta.csv",
        storage.META,
        lambda rows: range(len(rows)),
        lambda rows, k: dataclasses.replace(rows[k], decimals=rows[k].decimals + 1),
    ),
    "prices": (
        "input/prices.csv",
        storage.PRICES,
        lambda rows: range(len(rows)),
        lambda rows, k: (*rows[k][:2], rows[k][2] * 1.01, *rows[k][3:]),
    ),
    "blockmap": (
        "input/blockmap.csv",
        storage.BLOCKMAP,
        lambda rows: range(1, len(rows)),
        lambda rows, k: ((rows[k - 1][0] + rows[k][0]) // 2, rows[k][1]),
    ),
    "probes": (
        "input/probes.csv",
        storage.PROBES,
        lambda rows: range(len(rows)),
        lambda rows, k: (*rows[k][:3], rows[k][3] + 1),
    ),
    "events": (
        "input/events/TOK002.csv",
        storage.EVENTS,
        lambda rows: [k for k, e in enumerate(rows) if e.sender == ZERO_ACCOUNT],
        lambda rows, k: rows[k]._replace(amount=2 * rows[k].amount),
    ),
}


@pytest.mark.parametrize(
    "rel, table, candidates, edit", ROW_EDITS.values(), ids=ROW_EDITS.keys()
)
def test_seeded_random_row_edit_matches_fresh_build(
    copied, tmp_path, rel, table, candidates, edit
):
    """An edit of one row picked by a fixed seed; unlike ``EDITS``, it need
    not change any output."""
    path = copied.workspace / rel
    rows = storage.read_table(path, table)
    k = random.Random(2718).choice(candidates(rows))
    rows[k] = edit(rows, k)
    storage.write_table(path, table, rows)
    run_pipeline(copied, PIPELINE_STAGES[1:])
    assert_matches_fresh_build(copied, tmp_path)


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
    prices: list[str] = []
    events: list[str] = []
    read_table = storage.read_table

    def counted(path, table):
        path = Path(path)
        if path.name == "prices.csv":
            prices.append(path.name)
        elif path.parent.name == "events":
            events.append(path.name)
        return read_table(path, table)

    monkeypatch.setattr(storage, "read_table", counted)

    # a whole cold run parses prices.csv and each event file once, though
    # snapshot, optimize and metrics all read the prices and ingest and
    # snapshot both build ledgers from the events
    whole = dataclasses.replace(small_config(tmp_path / "whole"), workers=1)
    run_pipeline(whole)
    assert prices == ["prices.csv"]
    assert len(events) == whole.synth_tokens
    assert set(Counter(events).values()) == {1}

    cfg = dataclasses.replace(small_config(tmp_path / "ws"), workers=1)
    run_pipeline(cfg, ["synth"])
    for name in (*PIPELINE_STAGES[1:], "validate"):
        prices.clear()
        events.clear()
        if name == "validate":
            validate_workspace(cfg)
        else:
            run_pipeline(cfg, [name])
        # ingest parses prices.csv for the priced-day span, from which the
        # snapshot calendar lists the months without a parse of its own
        expected = 1 if name in ("ingest", "snapshot", "optimize", "metrics") else 0
        assert len(prices) == expected, name
        assert max(Counter(events).values(), default=0) <= 1, (name, events)
        if name in ("ingest", "snapshot", "validate"):
            assert events, name
        else:
            assert events == [], name

    # a no-op rerun loads nothing, and the snapshot calendar reads the span
    prices.clear()
    events.clear()
    ran = run_pipeline(cfg)
    assert not any(ran.values())
    assert prices == []
    assert events == []


def test_noop_rerun_parses_only_the_calendar_inputs(copied, monkeypatch):
    parsed: list[str] = []
    read_table = storage.read_table

    def recorded(path, table):
        parsed.append(Path(path).relative_to(copied.workspace).as_posix())
        return read_table(path, table)

    monkeypatch.setattr(storage, "read_table", recorded)
    assert not any(run_pipeline(copied).values())
    assert sorted(parsed) == ["input/blockmap.csv", pipeline.PRICE_SPAN]


# a report-only edit of each keyed report partition, the one partition it
# recomputes, the directory that partition reads and the two it must not
REPORT_EDITS = {
    "min_bin_count": ("distance", "solutions", ("perf", "snapshots")),
    "dust_threshold": ("concentration", "snapshots", ("solutions", "perf")),
}


@pytest.mark.parametrize("key", REPORT_EDITS)
def test_report_edit_parses_only_its_partition_inputs(copied, monkeypatch, key):
    part, read, unread = REPORT_EDITS[key]
    parsed: list[str] = []
    read_table = storage.read_table

    def recorded(path, table):
        parsed.append(Path(path).relative_to(copied.workspace).parts[0])
        return read_table(path, table)

    monkeypatch.setattr(storage, "read_table", recorded)
    edited = dataclasses.replace(copied, **{key: 2 * getattr(copied, key) + 1})
    ran = run_pipeline(edited)
    assert ran["report"] == [part]
    assert read in parsed
    assert not set(unread) & set(parsed)


EDGES = PipelineConfig().distance_bin_edges


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(EDGES),
            st.floats(-10.0, 110.0),
            st.floats(allow_nan=False),
        ),
        max_size=40,
    )
)
# on an inner edge, below the first, above the last and on the last edge
@example([20.0, -1.0, 100.5, 100.0, 0.0, 99.99])
def test_bin_counts_match_numpy_histogram(values):
    expected = np.histogram(np.array(values, dtype=float), bins=EDGES)[0]
    assert pipeline._bin_counts(values, EDGES) == [int(c) for c in expected]


def test_forked_children_parse_no_shared_input(built, tmp_path, monkeypatch):
    cfg, _ = built
    parent = os.getpid()
    read_table = storage.read_table

    def parent_only(path, table):
        path = Path(path)
        shared = path.name == "prices.csv" or path.parent.name == "events"
        if shared and os.getpid() != parent:
            raise AssertionError(f"forked child {os.getpid()} parsed {path}")
        return read_table(path, table)

    # the children a stage forks inherit the patch, and an error raised in
    # one reaches this process
    monkeypatch.setattr(storage, "read_table", parent_only)
    parallel = dataclasses.replace(cfg, workspace=tmp_path / "ws2", workers=2)
    run_pipeline(parallel)
    assert bundle(parallel.workspace) == bundle(cfg.workspace)


# ---------------------------------------------------------------------------
# a forked stage's failures: optimize reruns the three months of a built
# workspace, dealt in turn to this process and its children, so at two and
# at three workers this process runs the first month and a child the second


def _fail_months(monkeypatch, cfg, fails: dict) -> list[str]:
    """Make optimize call ``fails[i]()`` on the i-th of the months it
    returns instead of solving it."""
    months = sorted(p.stem for p in (cfg.workspace / "snapshots").glob("*.csv"))
    assert len(months) == 3
    body = numeric.optimize_month

    def failing(prices, cfg, month):
        index = months.index(month)
        if index in fails:
            fails[index]()
        body(prices, cfg, month)

    monkeypatch.setattr(numeric, "optimize_month", failing)
    return months


def _failed_optimize(cfg, tmp_path, workers: int) -> BaseException:
    """The error an optimize run of every month raises, on a private copy
    of the workspace; no child of this process is left unreaped."""
    ws = tmp_path / f"workers{workers}"
    shutil.copytree(cfg.workspace, ws)
    for path in (ws / "solutions").glob("*.csv"):
        path.unlink()
    with pytest.raises(Exception) as info:
        run_pipeline(dataclasses.replace(cfg, workspace=ws, workers=workers), ["optimize"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return info.value


def _raise(exc: BaseException) -> Callable[[], None]:
    def fail():
        raise exc

    return fail


@pytest.mark.parametrize("workers", [2, 3])
def test_a_child_error_reaches_run_pipeline_as_in_a_serial_run(
    built, tmp_path, monkeypatch, workers
):
    cfg, _ = built
    _fail_months(monkeypatch, cfg, {1: _raise(InputError("snapshots/x.csv, line 2: bad"))})
    serial = _failed_optimize(cfg, tmp_path, 1)
    forked = _failed_optimize(cfg, tmp_path, workers)
    assert type(serial) is type(forked) is InputError
    assert str(forked) == str(serial) == "snapshots/x.csv, line 2: bad"


@pytest.mark.parametrize("workers", [2, 3])
def test_a_child_that_dies_is_an_error_naming_its_status(
    built, tmp_path, monkeypatch, workers
):
    cfg, _ = built
    _fail_months(monkeypatch, cfg, {1: lambda: os._exit(3)})
    error = _failed_optimize(cfg, tmp_path, workers)
    assert type(error) is RuntimeError
    assert str(error).endswith("exited with status 3")


class _NoLoadBack(Exception):
    """Pickles, but does not load back: it takes two arguments and passes
    one on."""

    def __init__(self, month, reason):
        super().__init__(f"{month}: {reason}")


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("load_back", [False, True])
def test_an_unpicklable_child_error_comes_back_as_its_repr(
    built, tmp_path, monkeypatch, workers, load_back
):
    cfg, _ = built
    # a lock does not pickle at all
    exc = _NoLoadBack("m", "bad") if load_back else ValueError(threading.Lock())
    _fail_months(monkeypatch, cfg, {1: _raise(exc)})
    error = _failed_optimize(cfg, tmp_path, workers)
    assert type(error) is RuntimeError
    assert str(error) == repr(exc)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("child_fails", [False, True])
def test_this_process_error_comes_first_and_every_child_is_reaped(
    built, tmp_path, monkeypatch, workers, child_fails
):
    cfg, _ = built
    fails = {0: _raise(InputError("first month"))}
    if child_fails:
        fails[1] = _raise(InputError("second month"))
    months = _fail_months(monkeypatch, cfg, fails)
    error = _failed_optimize(cfg, tmp_path, workers)
    assert type(error) is InputError
    assert str(error) == "first month"
    # the children ran their months to the end; this process stopped at its first
    solved = (tmp_path / f"workers{workers}" / "solutions").glob("*.csv")
    assert sorted(p.stem for p in solved) == months[1 + child_fails : workers]


def test_the_first_child_error_comes_before_the_next_childs(built, tmp_path, monkeypatch):
    cfg, _ = built
    # at three workers the second and third months are the two children's
    _fail_months(
        monkeypatch,
        cfg,
        {1: _raise(InputError("second month")), 2: _raise(InputError("third month"))},
    )
    error = _failed_optimize(cfg, tmp_path, 3)
    assert type(error) is InputError
    assert str(error) == "second month"


def test_optimize_walks_each_homotopy_once(tmp_path, monkeypatch):
    cfg = dataclasses.replace(small_config(tmp_path / "ws"), workers=1)
    run_pipeline(cfg, ["synth", "ingest", "snapshot"])
    homotopies, walked = [], []
    homotopy, walk = frontier._homotopy, frontier._run

    def made(*args):
        homotopies.append(homotopy(*args))
        return homotopies[-1]

    def counted(walks, stop):
        walked.extend(walks)
        return walk(walks, stop)

    monkeypatch.setattr(frontier, "_homotopy", made)
    monkeypatch.setattr(frontier, "_run", counted)
    monkeypatch.setattr(frontier, "minimize", None)
    run_pipeline(cfg, ["optimize"])
    books = sum(
        row.strategy == "baseline"
        for path in sorted((cfg.workspace / "solutions").glob("*.csv"))
        for row in storage.read_table(path, storage.SOLUTIONS)
    )
    assert books > 0
    # no small-config book is infeasible under the cap, so each has a GMV
    assert len(homotopies) == books
    # every walk stays referenced, so no two share an id
    runs = Counter(map(id, walked))
    assert all(runs[id(h)] == 1 for h in homotopies)


def _solve_books_alone(monkeypatch, frontier_class=frontier.Frontier) -> None:
    """Optimize with each book walked on its own, through ``gmv`` and
    ``walk`` as ``solve`` asks for them."""
    monkeypatch.setattr(frontier, "walk_books", lambda books: None)
    monkeypatch.setattr(frontier, "Frontier", frontier_class)


def _resolved(cfg) -> dict[str, list]:
    shutil.rmtree(cfg.workspace / "solutions")
    run_pipeline(cfg, ["optimize"])
    return {
        path.name: storage.read_table(path, storage.SOLUTIONS)
        for path in sorted((cfg.workspace / "solutions").glob("*.csv"))
    }


def test_books_solve_the_same_in_their_month_as_alone(built, copied, monkeypatch):
    cfg, _ = built
    gmvs = []
    minimize = frontier.minimize
    monkeypatch.setattr(frontier, "minimize", lambda *a: gmvs.append(1) or minimize(*a))
    _solve_books_alone(monkeypatch)
    _resolved(copied)
    assert gmvs
    assert bundle(copied.workspace) == bundle(cfg.workspace)


def test_lockstep_walks_match_the_per_book_reference(built, copied, monkeypatch):
    cfg, _ = built
    _solve_books_alone(monkeypatch, ReferenceFrontier)
    rows = 0
    for name, reference in _resolved(copied).items():
        lockstep = storage.read_table(cfg.workspace / "solutions" / name, storage.SOLUTIONS)
        assert len(lockstep) == len(reference)
        for got, want in zip(lockstep, reference):
            rows += 1
            assert (got.account, got.strategy, got.converged, got.reason, got.iterations) == (
                want.account, want.strategy, want.converged, want.reason, want.iterations
            )
            for field in ("mu", "sigma", "distance"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12
            w_got = storage.decode_weights(got.weights)
            w_want = storage.decode_weights(want.weights)
            assert w_got.keys() == w_want.keys()
            assert max(abs(w_got[t] - w_want[t]) for t in w_got) <= 1e-12
    assert rows > 0


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

    for row in STAGES:
        parsed.clear()
        hashed.clear()
        run_pipeline(cfg, [row.name])
        seen = {p.relative_to(ws).as_posix() for p in parsed}
        digested = {p.relative_to(ws).as_posix() for p in hashed}
        parts, _ = row.plan(cfg)
        reads = {*row.index, *row.shared, *(rel for part in parts for rel in part.reads)}
        writes = {rel for part in parts for rel in part.writes}
        assert seen or row.name == "synth"
        for rel in seen:
            assert _under(rel, reads), (row.name, rel)
        # hashing also reads back what the stage wrote
        for rel in digested:
            assert _under(rel, reads | writes), (row.name, rel)


def test_every_built_file_is_written_by_exactly_one_row(built):
    """``_drop_stale`` deletes only declared files, and ``_producer`` takes
    the first row that declares one, so each file needs exactly one row."""
    cfg, _ = built
    ws = cfg.workspace
    files = [p.relative_to(ws).as_posix() for p in ws.rglob("*") if p.is_file()]
    assert MANIFEST in files
    for rel in files:
        if rel == MANIFEST:
            continue
        rows = [
            row.name
            for row in STAGES
            if any(fnmatch.fnmatchcase(rel, pattern) for pattern in row.writes)
        ]
        assert len(rows) == 1, (rel, rows)


def test_the_benchmark_drives_every_stage(monkeypatch):
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.STAGES == PIPELINE_STAGES, (
        "bench/workloads.py lists the stages the benchmark runs, and its build "
        "call names them; a new stage row needs a benchmark change first"
    )


def test_every_config_key_is_declared_by_a_stage(built):
    """By a row, for all of its partitions, or by one partition alone."""
    cfg, _ = built
    declared = {key for row in STAGES for key in row.keys}
    for row in STAGES:
        declared.update(key for part in row.plan(cfg)[0] for key in part.keys)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert declared == fields - {"workspace", "workers"}


def _declared_reads(row) -> tuple[str, ...]:
    """A row's shared and index reads, and the reads of the partitions that
    its plan lists from the config alone; a plan that needs upstream files
    (the snapshot calendar) lists none without a workspace."""
    try:
        parts = row.plan(PipelineConfig(workspace=Path("no-workspace")))[0]
    except DependencyError:
        parts = []
    own = (rel for part in parts for rel in part.reads)
    return tuple(dict.fromkeys((*row.index, *row.shared, *own)))


MISSING_READS = [
    (row.name, rel)
    for row in STAGES
    for rel in _declared_reads(row)
    if _producer(rel) != row.name
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
    with pytest.raises(DependencyError, match="run the 'synth' stage first"):
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
    tid, account = storage.read_table(ws / "input" / "probes.csv", storage.PROBES)[0][:2]
    path = ws / "input" / "events" / f"{tid}.csv"
    events = storage.read_table(path, storage.EVENTS)
    assert (events[0].block, events[0].log_index) > (0, 0)
    # a spurious mint at block zero shifts every later balance up by one;
    # the mint flow moves with it, so only the probes can catch it
    mint = TransferEvent(tid, 0, 0, ZERO_ACCOUNT, account, 1)
    storage.write_table(path, storage.EVENTS, [mint, *events])
    with pytest.raises(InputError, match="validation failed .*ledger .* != reference"):
        validate_workspace(copied)


def test_validate_catches_conservation_break(copied, monkeypatch):
    build_ledger = pipeline.build_ledger

    def phantom(events, decimals):
        # credit an account no probe ever looks at: probes pass, totals do not
        ledger = build_ledger(events, decimals)
        ledger.history["0xphantom"] = ([0], [1])
        return ledger

    monkeypatch.setattr(pipeline, "build_ledger", phantom)
    with pytest.raises(InputError, match="validation failed .* mint flow"):
        validate_workspace(copied)
