"""Round-trip tests for every on-disk artifact format.

The contract under test: read(write(x)) == x, floats survive via repr
exactly, None maps to the empty cell, and writes land atomically.
"""

from __future__ import annotations

import datetime as dt
import math

import pytest

from chainfrontier import storage
from chainfrontier.concentration import ConcentrationRow
from chainfrontier.decayfit import DecayFit
from chainfrontier.errors import InputError
from chainfrontier.ingest import (
    ZERO_ACCOUNT,
    FilterReport,
    FilterStage,
    LedgerEntry,
    TokenMeta,
    TransferEvent,
    build_ledger,
)
from chainfrontier.metrics import AggregateReport, ExcessPoint, PerfRecord, StrategySummary
from chainfrontier.portfolio import BlockTimeMap


D = dt.date


def test_fmt_cells():
    assert storage.fmt(None) == ""
    assert storage.fmt(True) == "true"
    assert storage.fmt(False) == "false"
    assert storage.fmt(0.1) == "0.1"
    assert storage.fmt(1 / 3) == repr(1 / 3)
    assert storage.fmt(D(2021, 2, 3)) == "2021-02-03"
    assert storage.fmt(10**30) == str(10**30)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "deep" / "file.txt"
    storage.atomic_write_text(path, "one")
    storage.atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert list(path.parent.iterdir()) == [path]


def test_events_round_trip_and_kinds(tmp_path):
    events = (
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "0xa", 500),
        TransferEvent("X", 2, 0, "0xa", "0xb", 100),
        TransferEvent("X", 3, 1, "0xb", ZERO_ACCOUNT, 25),
    )
    path = tmp_path / "events.csv"
    storage.write_events(path, events)
    rows = storage.read_rows(path)
    assert [r["event_kind"] for r in rows] == ["deposit", "transfer", "withdrawal"]
    assert rows[0]["from"] == "" and rows[2]["to"] == ""

    # the ingest parser accepts the written form unchanged
    from chainfrontier.ingest import parse_events

    parsed = parse_events(rows)
    assert tuple(parsed) == events


def test_huge_amounts_survive_exactly(tmp_path):
    amount = 123456789 * 10**18 + 7
    events = (TransferEvent("X", 1, 0, ZERO_ACCOUNT, "0xa", amount),)
    path = tmp_path / "events.csv"
    storage.write_events(path, events)
    from chainfrontier.ingest import parse_events

    assert parse_events(storage.read_rows(path))[0].amount == amount


def test_ledger_entries_round_trip(tmp_path):
    events = (
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "0xa", 500),
        TransferEvent("X", 2, 0, "0xa", "0xb", 100),
    )
    entries = build_ledger(events, decimals=18).entries
    path = tmp_path / "ledger.csv"
    storage.write_ledger_entries(path, entries)
    assert tuple(storage.read_ledger_entries(path)) == entries


def test_meta_round_trip_with_missing_fields(tmp_path):
    metas = [
        TokenMeta("X", 18, 30, 1e6, 5e8, 6e8, True, 1e9),
        TokenMeta("Y", 6, None, None, None, None, False, None),
    ]
    path = tmp_path / "meta.csv"
    storage.write_meta(path, metas)
    assert storage.read_meta(path) == metas


def test_prices_round_trip_with_gap(tmp_path):
    from chainfrontier.prices import PriceSeries

    series = {
        "X": PriceSeries("X", D(2021, 1, 1), (1.0, None, 3.0)),
    }
    mcaps = {"X": (10.0, None, 30.0)}
    volumes = {"X": (5.0, None, 7.0)}
    path = tmp_path / "prices.csv"
    storage.write_prices(path, series, mcaps, volumes)
    back = storage.read_prices(path)
    assert back["X"].closes == (1.0, None, 3.0)
    assert back["X"].start == D(2021, 1, 1)


def test_read_prices_rejects_unexpected_columns(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,token_id,close_usd\n2021-01-01,X,1.0\n")
    with pytest.raises(InputError, match="expected columns"):
        storage.read_prices(path)


def test_block_map_round_trip(tmp_path):
    bm = BlockTimeMap(((99, D(2021, 1, 1)), (199, D(2021, 1, 2))))
    path = tmp_path / "blockmap.csv"
    storage.write_block_map(path, bm)
    assert storage.read_block_map(path).anchors == bm.anchors


def test_probes_round_trip(tmp_path):
    probes = [("X", "0xa", 17, 5 * 10**20), ("Y", "0xb", 0, 0)]
    path = tmp_path / "probes.csv"
    storage.write_probes(path, probes)
    assert storage.read_probes(path) == probes


def test_filters_round_trip(tmp_path):
    reports = [
        FilterReport("X", True),
        FilterReport("Y", False, FilterStage.NEGLIGIBLE_VOLUME, "volume 0.5 < 1.0"),
    ]
    path = tmp_path / "filters.csv"
    storage.write_filters(path, reports)
    assert storage.read_filters(path) == reports


def test_positions_round_trip(tmp_path):
    rows = [
        (D(2021, 4, 1), 700, "0xa", "X", 5 * 10**18, 5.0, 123.456),
        (D(2021, 4, 1), 700, "0xa", "Y", 10**6, 1.0, 1 / 3),
    ]
    path = tmp_path / "positions.csv"
    storage.write_positions(path, rows)
    back = storage.read_positions(path)
    assert back[0]["base_units"] == 5 * 10**18
    assert back[1]["value_usd"] == 1 / 3
    assert back[0]["snapshot_date"] == D(2021, 4, 1)


def test_weights_encode_decode():
    ids = ("AAA", "B:B")  # token ids may contain the separator character
    w = (0.25, 1 / 3)
    cell = storage.encode_weights(ids, w)
    back = storage.decode_weights(cell)
    assert back == {"AAA": 0.25, "B:B": 1 / 3}
    assert storage.decode_weights("") == {}


def test_solutions_round_trip(tmp_path):
    rows = [
        (
            D(2021, 4, 1), "0xa", "min_var",
            storage.encode_weights(("X", "Y"), (0.4, 0.6)),
            0.001, 0.02, True, 12, 1 / 7, 2, 1234.5, "",
        ),
        (
            D(2021, 4, 1), "0xa", "max_ret",
            storage.encode_weights(("X", "Y"), (0.5, 0.5)),
            0.002, 0.03, False, 0, 0.0, 2, 1234.5,
            "risk budget below the feasible minimum",
        ),
    ]
    path = tmp_path / "solutions.csv"
    storage.write_solutions(path, rows)
    back = storage.read_solutions(path)
    assert back[0]["distance"] == 1 / 7
    assert back[0]["weights"] == {"X": 0.4, "Y": 0.6}
    assert back[0]["converged"] is True
    assert back[1]["converged"] is False
    assert back[1]["reason"].startswith("risk budget")


def test_perf_round_trip(tmp_path):
    records = [
        PerfRecord(D(2021, 4, 1), "0xa", "min_var", 0.01, 0.9, 0.001, 0.01),
        PerfRecord(D(2021, 5, 1), "0xb", "baseline", -0.02, 1.1, -0.03, 0.009),
    ]
    path = tmp_path / "perf.csv"
    storage.write_perf(path, records)
    assert storage.read_perf(path) == records


def test_report_tables_write(tmp_path):
    report = AggregateReport(
        summaries=(
            StrategySummary("baseline", 0.01, None, 0.0, 0.5, 10),
            StrategySummary("min_var", 0.02, 0.6, 0.001, 0.7, 10),
        ),
        excess_curve=(ExcessPoint(D(2021, 4, 1), "min_var", 0.01),),
    )
    storage.write_summary(tmp_path / "summary.csv", report)
    storage.write_excess_curve(tmp_path / "excess.csv", report)
    rows = storage.read_rows(tmp_path / "summary.csv")
    assert rows[0]["hit_rate"] == ""  # None round-trips to empty
    assert float(rows[1]["hit_rate"]) == 0.6
    curve = storage.read_rows(tmp_path / "excess.csv")
    assert curve[0]["cumulative_excess"] == "0.01"

    fit = DecayFit("min_var", 80.0, 1.5, 1.0, 0.99, 0.5, True, 20)
    storage.write_decay_table(tmp_path / "decay.csv", [fit])
    row = storage.read_rows(tmp_path / "decay.csv")[0]
    assert float(row["delta_inf"]) == 80.0
    assert row["converged"] == "true"

    conc = ConcentrationRow("ecosystem", D(2021, 4, 1), 0.5, 0.2, ((1.0, 0.3),), 100)
    storage.write_concentration(tmp_path / "conc.csv", [conc])
    row = storage.read_rows(tmp_path / "conc.csv")[0]
    assert row["top_shares"] == "1.0:0.3"
    assert row["n_holders"] == "100"


def test_manifest_round_trip_and_stability(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = {"ingest": {"inputs": "abc", "partitions": {"X": "h1", "A": "h2"}}}
    storage.write_manifest(path, manifest)
    assert storage.read_manifest(path) == manifest
    first = path.read_bytes()
    storage.write_manifest(path, manifest)
    assert path.read_bytes() == first  # sorted keys, no timestamps
    assert storage.read_manifest(tmp_path / "missing.json") == {}


def test_float_repr_round_trip_is_exact(tmp_path):
    values = [1 / 3, math.pi, 1e-17, 123456.789012345, 5e-324]
    path = tmp_path / "floats.csv"
    storage.write_csv(path, ("v",), [(v,) for v in values])
    back = [float(r["v"]) for r in storage.read_rows(path)]
    assert back == values


def test_writes_are_byte_stable(tmp_path):
    rows = [("a", 0.1, D(2021, 1, 1)), ("b", 2 / 3, None)]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    storage.write_csv(p1, ("s", "x", "d"), rows)
    storage.write_csv(p2, ("s", "x", "d"), rows)
    assert p1.read_bytes() == p2.read_bytes()
