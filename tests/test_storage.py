"""Round-trip and error tests for every on-disk artifact format.

The contract under test: read(write(x)) == x, floats survive via repr
exactly, None maps to the empty cell, writes land atomically, and a file
whose header, row width or cells do not fit its table is an input error
that names the file and the line.
"""

from __future__ import annotations

import csv
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
    TokenMeta,
    TransferEvent,
)
from chainfrontier.metrics import AggregateReport, ExcessPoint, PerfRecord, StrategySummary
from chainfrontier.portfolio import BlockTimeMap
from chainfrontier.prices import PriceSeries, price_rows, price_series


D = dt.date


def _event_records(path):
    """Raw event rows as mappings from column to cell, as written."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_cell_texts_round_trip(tmp_path):
    """None is the empty cell, a boolean column reads true or false, a
    float its repr, a date its ISO form and an int its digits."""
    table = storage.Table(
        (
            ("none", storage._opt_float),
            ("yes", storage._bool),
            ("no", storage._bool),
            ("tenth", float),
            ("third", float),
            ("day", storage._date),
            ("big", int),
        )
    )
    row = (None, True, False, 0.1, 1 / 3, D(2021, 2, 3), 10**30)
    path = tmp_path / "cells.csv"
    storage.write_table(path, table, [row])
    with path.open(newline="") as fh:
        _, cells = csv.reader(fh)
    assert cells == ["", "true", "false", "0.1", repr(1 / 3), "2021-02-03", str(10**30)]
    assert storage.read_table(path, table) == [row]


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
    storage.write_table(path, storage.EVENTS, events)
    rows = _event_records(path)
    assert [r["event_kind"] for r in rows] == ["deposit", "transfer", "withdrawal"]
    assert rows[0]["from"] == "" and rows[2]["to"] == ""

    # the events table reads the written form back unchanged
    parsed = storage.read_table(path, storage.EVENTS)
    assert tuple(parsed) == events


def test_huge_amounts_survive_exactly(tmp_path):
    amount = 123456789 * 10**18 + 7
    events = (TransferEvent("X", 1, 0, ZERO_ACCOUNT, "0xa", amount),)
    path = tmp_path / "events.csv"
    storage.write_table(path, storage.EVENTS, events)

    assert storage.read_table(path, storage.EVENTS)[0].amount == amount


def test_meta_round_trip_with_missing_fields(tmp_path):
    metas = [
        TokenMeta("X", 18, 30, 1e6, 5e8, 6e8, True, 1e9),
        TokenMeta("Y", 6, None, None, None, None, False, None),
    ]
    path = tmp_path / "meta.csv"
    storage.write_table(path, storage.META, metas)
    assert storage.read_table(path, storage.META) == metas


def test_prices_round_trip_with_gap(tmp_path):
    path = tmp_path / "prices.csv"
    rows = [
        ("X", D(2021, 1, 1), 1.0, 10.0, 5.0),
        ("X", D(2021, 1, 3), 3.0, 30.0, 7.0),
    ]
    storage.write_table(path, storage.PRICES, rows)
    assert storage.read_table(path, storage.PRICES) == rows
    # the day without a row reads back with the previous close
    series = price_series(storage.read_table(path, storage.PRICES))
    assert series["X"] == PriceSeries("X", D(2021, 1, 1), (1.0, 1.0, 3.0))
    mcaps = {"X": (10.0, 10.0, 30.0)}
    volumes = {"X": (5.0, 0.0, 7.0)}
    storage.write_table(path, storage.PRICES, price_rows(series, mcaps, volumes))
    assert price_series(storage.read_table(path, storage.PRICES)) == series


def test_read_prices_rejects_unexpected_columns(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,token_id,close_usd\n2021-01-01,X,1.0\n")
    with pytest.raises(InputError, match="expected columns"):
        storage.read_table(path, storage.PRICES)


def test_block_map_round_trip(tmp_path):
    bm = BlockTimeMap(((99, D(2021, 1, 1)), (199, D(2021, 1, 2))))
    path = tmp_path / "blockmap.csv"
    storage.write_table(path, storage.BLOCKMAP, bm.anchors)
    assert tuple(storage.read_table(path, storage.BLOCKMAP)) == bm.anchors


def test_probes_round_trip(tmp_path):
    probes = [("X", "0xa", 17, 5 * 10**20), ("Y", "0xb", 0, 0)]
    path = tmp_path / "probes.csv"
    storage.write_table(path, storage.PROBES, probes)
    assert storage.read_table(path, storage.PROBES) == probes


def test_filters_round_trip(tmp_path):
    reports = [
        FilterReport("X", True),
        FilterReport("Y", False, FilterStage.NEGLIGIBLE_VOLUME, "volume 0.5 < 1.0"),
    ]
    path = tmp_path / "filters.csv"
    storage.write_table(path, storage.FILTERS, reports)
    assert storage.read_table(path, storage.FILTERS) == reports


def test_positions_round_trip(tmp_path):
    rows = [
        (D(2021, 4, 1), 700, "0xa", "X", 5 * 10**18, 5.0, 123.456),
        (D(2021, 4, 1), 700, "0xa", "Y", 10**6, 1.0, 1 / 3),
    ]
    path = tmp_path / "positions.csv"
    storage.write_table(path, storage.POSITIONS, rows)
    back = storage.read_table(path, storage.POSITIONS)
    assert back == rows
    assert back[0].base_units == 5 * 10**18
    assert back[1].value_usd == 1 / 3
    assert back[0].snapshot_date == D(2021, 4, 1)


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
        (D(2021, 4, 1), "0xb", "max_sr", "", 0.0, 0.0, False, 0, 0.0, 2, 9.5, "x"),
    ]
    path = tmp_path / "solutions.csv"
    storage.write_table(path, storage.SOLUTIONS, rows)
    back = storage.read_table(path, storage.SOLUTIONS)
    assert back[0].distance == 1 / 7
    # the weights cell reads back as written; decode_weights parses it
    assert back[0].weights == rows[0][3]
    assert storage.decode_weights(back[0].weights) == {"X": 0.4, "Y": 0.6}
    assert back[0].converged is True
    assert back[1].converged is False
    assert back[1].reason.startswith("risk budget")
    assert storage.decode_weights(back[2].weights) == {}


def test_perf_round_trip(tmp_path):
    records = [
        PerfRecord(D(2021, 4, 1), "0xa", "min_var", 0.01, 0.9, 0.001, 0.01),
        PerfRecord(D(2021, 5, 1), "0xb", "baseline", -0.02, 1.1, -0.03, 0.009),
    ]
    path = tmp_path / "perf.csv"
    storage.write_table(path, storage.PERF, records)
    back = storage.read_table(path, storage.PERF)
    assert [PerfRecord(*row) for row in back] == records


def test_report_tables_write(tmp_path):
    def rows(path, table):
        return [dict(zip(table.header, r)) for r in storage.read_table(path, table)]

    report = AggregateReport(
        summaries=(
            StrategySummary("baseline", 0.01, None, 0.0, 0.5, 10),
            StrategySummary("min_var", 0.02, 0.6, 0.001, 0.7, 10),
        ),
        excess_curve=(ExcessPoint(D(2021, 4, 1), "min_var", 0.01),),
    )
    storage.write_table(tmp_path / "summary.csv", storage.SUMMARY, report.summaries)
    storage.write_table(
        tmp_path / "excess.csv", storage.EXCESS_CURVE, report.excess_curve
    )
    summary = rows(tmp_path / "summary.csv", storage.SUMMARY)
    assert summary[0]["hit_rate"] is None  # None round-trips to the empty cell
    assert float(summary[1]["hit_rate"]) == 0.6
    curve = rows(tmp_path / "excess.csv", storage.EXCESS_CURVE)
    assert curve[0]["cumulative_excess"] == 0.01

    fit = DecayFit("min_var", 80.0, 1.5, 1.0, 0.99, 0.5, True, 20)
    storage.write_table(tmp_path / "decay.csv", storage.DECAY_FIT, [fit])
    row = rows(tmp_path / "decay.csv", storage.DECAY_FIT)[0]
    assert float(row["delta_inf"]) == 80.0
    assert row["converged"] is True
    assert row["n_bins"] == 20

    conc = ConcentrationRow("ecosystem", D(2021, 4, 1), 0.5, 0.2, ((1.0, 0.3),), 100)
    storage.write_table(tmp_path / "conc.csv", storage.CONCENTRATION, [conc])
    assert (tmp_path / "conc.csv").read_text().splitlines()[1].split(",")[4] == "1.0:0.3"
    row = rows(tmp_path / "conc.csv", storage.CONCENTRATION)[0]
    assert row["top_shares"] == ((1.0, 0.3),)
    assert row["n_holders"] == 100

    hist = [("min_var", 0.0, 1.0, 3), ("min_var", 1.0, 20.0, 0)]
    storage.write_table(tmp_path / "hist.csv", storage.DISTANCE_HIST, hist)
    assert storage.read_table(tmp_path / "hist.csv", storage.DISTANCE_HIST) == hist


def test_manifest_round_trip_and_stability(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = {"ingest": {"inputs": "abc", "partitions": {"X": "h1", "A": "h2"}}}
    storage.write_manifest(path, manifest)
    assert storage.read_manifest(path) == manifest
    first = path.read_bytes()
    storage.write_manifest(path, manifest)
    assert path.read_bytes() == first  # sorted keys, no timestamps
    assert storage.read_manifest(tmp_path / "missing.json") == {}


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"snapshot": {"2021-01": ', "not a JSON manifest"),
        (b"\xff\xfe{}", "not a JSON manifest"),
        (b"[1, 2]", "expected a JSON object of objects"),
        (b'{"snapshot": []}', "expected a JSON object of objects"),
    ],
    ids=["truncated", "not-utf8", "list", "entry-not-an-object"],
)
def test_malformed_manifest_is_an_input_error(tmp_path, text, message):
    path = tmp_path / "manifest.json"
    path.write_bytes(text)
    with pytest.raises(InputError) as exc:
        storage.read_manifest(path)
    assert str(exc.value).startswith(f"{path}: {message}")


def test_float_repr_round_trip_is_exact(tmp_path):
    values = [1 / 3, math.pi, 1e-17, 123456.789012345, 5e-324]
    table = storage.Table((("v", float),))
    path = tmp_path / "floats.csv"
    storage.write_table(path, table, [(v,) for v in values])
    back = [v for (v,) in storage.read_table(path, table)]
    assert back == values


def test_writes_are_byte_stable(tmp_path):
    rows = [("a", 0.1, D(2021, 1, 1)), ("b", 2 / 3, None)]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    storage.write_csv(p1, ("s", "x", "d"), rows)
    storage.write_csv(p2, ("s", "x", "d"), rows)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# malformed files: one valid record per table, then one defect at a time

TABLES = {
    name: table
    for name, table in vars(storage).items()
    if isinstance(table, storage.Table)
}

SAMPLES = {
    "EVENTS": TransferEvent("X", 1, 0, ZERO_ACCOUNT, "0xa", 500),
    "META": TokenMeta("Y", 6, None, None, None, None, False, None),
    "PRICES": ("X", D(2021, 1, 1), 1.0, 10.0, 5.0),
    "PRICE_SPAN": (D(2021, 1, 1), D(2022, 12, 31)),
    "BLOCKMAP": (99, D(2021, 1, 1)),
    "PROBES": ("X", "0xa", 17, 5 * 10**20),
    "FILTERS": FilterReport("Y", False, FilterStage.NEGLIGIBLE_VOLUME, "low"),
    "POSITIONS": (D(2021, 4, 1), 700, "0xa", "X", 5 * 10**18, 5.0, 123.456),
    "SOLUTIONS": (
        D(2021, 4, 1), "0xa", "min_var", "X:0.4;Y:0.6",
        0.001, 0.02, True, 12, 1 / 7, 2, 1234.5, "",
    ),
    "PERF": PerfRecord(D(2021, 4, 1), "0xa", "min_var", 0.01, 0.9, 0.001, 0.01),
    "SUMMARY": StrategySummary("min_var", 0.02, 0.6, 0.001, 0.7, 10),
    "EXCESS_CURVE": ExcessPoint(D(2021, 4, 1), "min_var", 0.01),
    "DISTANCE_HIST": ("min_var", 0.0, 1.0, 3),
    "DECAY_FIT": DecayFit("min_var", 80.0, 1.5, 1.0, 0.99, 0.5, True, 20),
    "CONCENTRATION": ConcentrationRow(
        "ecosystem", D(2021, 4, 1), 0.5, 0.2, ((1.0, 0.3),), 100
    ),
}


def _sample_cells(tmp_path, name):
    """The header and the one row of a valid file of the named table."""
    path = tmp_path / "valid.csv"
    storage.write_table(path, TABLES[name], [SAMPLES[name]])
    storage.read_table(path, TABLES[name])  # the sample itself is valid
    with path.open(newline="") as fh:
        header, row = csv.reader(fh)
    return header, row


def _write_rows(path, *rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _raises_at(path, table, line):
    with pytest.raises(InputError) as exc:
        storage.read_table(path, table)
    assert str(exc.value).startswith(f"{path}, line {line}")
    return str(exc.value)


def test_every_table_has_a_sample():
    assert SAMPLES.keys() == TABLES.keys()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_wrong_header_is_an_input_error(tmp_path, name):
    header, row = _sample_cells(tmp_path, name)
    path = tmp_path / "bad.csv"
    _write_rows(path, ["bogus", *header[1:]], row)
    assert "expected columns" in _raises_at(path, TABLES[name], 1)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_short_row_is_an_input_error(tmp_path, name):
    header, row = _sample_cells(tmp_path, name)
    path = tmp_path / "bad.csv"
    _write_rows(path, header, row, row[:-1])
    message = _raises_at(path, TABLES[name], 3)
    assert f"{len(row) - 1} cells, expected {len(row)}" in message


@pytest.mark.parametrize(
    "name",
    sorted(n for n in SAMPLES if any(p is not str for p in TABLES[n].parsers)),
)
def test_bad_cell_is_an_input_error(tmp_path, name):
    table = TABLES[name]
    header, row = _sample_cells(tmp_path, name)
    column = next(i for i, parse in enumerate(table.parsers) if parse is not str)
    row[column] = "x"
    path = tmp_path / "bad.csv"
    _write_rows(path, header, row)
    assert f"column {header[column]}:" in _raises_at(path, table, 2)


def test_missing_file_header_and_broken_bytes_are_input_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    _raises_at(empty, storage.PROBES, 1)
    garbled = tmp_path / "garbled.csv"
    garbled.write_bytes(b"token_id,account,block,balance\nX,\xff\xfe,1,2\n")
    with pytest.raises(InputError, match="garbled.csv"):
        storage.read_table(garbled, storage.PROBES)
