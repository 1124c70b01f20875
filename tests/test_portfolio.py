"""Snapshot reconstruction tests, anchored on the golden two-token account:
alice ends up with 370 X at $2 and 200 Y at $1, a $940 portfolio with
weights (740/940, 200/940).
"""

from __future__ import annotations

import datetime as dt

import pytest

from chainfrontier.ingest import ZERO_ACCOUNT, TransferEvent, build_ledger
from chainfrontier.portfolio import (
    BlockTimeMap,
    Snapshot,
    monthly_snapshots,
    reconstruct_snapshot,
)
from chainfrontier.prices import PriceSeries

D = dt.date


def golden_ledgers():
    events_x = [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 500),
        TransferEvent("X", 2, 0, "alice", "bob", 100),
        TransferEvent("X", 3, 0, "bob", "carol", 50),
        TransferEvent("X", 4, 0, "alice", "carol", 30),
    ]
    events_y = [
        TransferEvent("Y", 1, 1, ZERO_ACCOUNT, "carol", 300),
        TransferEvent("Y", 3, 1, "carol", "alice", 200),
    ]
    return {
        "X": build_ledger(events_x, decimals=0),
        "Y": build_ledger(events_y, decimals=0),
    }


def golden_prices(snapshot_day):
    return {
        "X": PriceSeries("X", snapshot_day, (2.0,)),
        "Y": PriceSeries("Y", snapshot_day, (1.0,)),
    }


# ---------------------------------------------------------------------------
# block-time map and snapshot calendar
# ---------------------------------------------------------------------------


def test_block_map_resolves_latest_block_at_or_before():
    bmap = BlockTimeMap(((0, D(2023, 1, 1)), (100, D(2023, 1, 2)), (200, D(2023, 1, 3))))
    assert bmap.block_for(D(2023, 1, 1)) == 0
    assert bmap.block_for(D(2023, 1, 2)) == 100
    assert bmap.block_for(D(2023, 6, 1)) == 200
    with pytest.raises(ValueError):
        bmap.block_for(D(2022, 12, 31))


def test_block_map_rejects_non_monotone():
    with pytest.raises(ValueError):
        BlockTimeMap(((10, D(2023, 1, 1)), (5, D(2023, 1, 2))))
    with pytest.raises(ValueError):
        BlockTimeMap(((1, D(2023, 1, 2)), (2, D(2023, 1, 1))))


def test_monthly_snapshots_first_of_month():
    anchors = tuple(
        (i * 1000, D(2023, 1, 1) + dt.timedelta(days=i)) for i in range(120)
    )
    bmap = BlockTimeMap(anchors)
    snaps = monthly_snapshots(D(2023, 1, 15), D(2023, 4, 20), bmap)
    assert [s.timestamp for s in snaps] == [D(2023, 2, 1), D(2023, 3, 1), D(2023, 4, 1)]
    assert snaps[0].block == bmap.block_for(D(2023, 2, 1))
    assert snaps[0].month == "2023-02"
    # a start already on the first of the month is included
    snaps = monthly_snapshots(D(2023, 2, 1), D(2023, 3, 1), bmap)
    assert [s.timestamp for s in snaps] == [D(2023, 2, 1), D(2023, 3, 1)]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_golden_portfolio_weights():
    day = D(2023, 2, 1)
    snap = Snapshot(day, block=4)
    p = reconstruct_snapshot(golden_ledgers(), golden_prices(day), "alice", snap)
    assert p is not None
    assert p.token_ids == ("X", "Y")
    assert p.positions[0].base_units == 370
    assert p.positions[1].base_units == 200
    assert p.total_value == pytest.approx(940.0, abs=1e-12)
    assert p.weights[0] == pytest.approx(740.0 / 940.0, abs=1e-12)
    assert p.weights[1] == pytest.approx(200.0 / 940.0, abs=1e-12)
    assert abs(sum(p.weights) - 1.0) <= 1e-12


def test_unknown_account_is_empty():
    day = D(2023, 2, 1)
    snap = Snapshot(day, block=4)
    assert reconstruct_snapshot(golden_ledgers(), golden_prices(day), "mallory", snap) is None


def test_snapshot_before_any_activity_is_empty():
    day = D(2023, 2, 1)
    snap = Snapshot(day, block=0)
    assert reconstruct_snapshot(golden_ledgers(), golden_prices(day), "alice", snap) is None


def test_missing_price_excludes_position():
    day = D(2023, 2, 1)
    snap = Snapshot(day, block=4)
    prices = golden_prices(day)
    del prices["Y"]
    p = reconstruct_snapshot(golden_ledgers(), prices, "alice", snap)
    assert p is not None
    assert p.token_ids == ("X",)
    assert p.excluded == ("Y",)
    assert p.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_all_prices_missing_is_empty():
    day = D(2023, 2, 1)
    snap = Snapshot(day, block=4)
    assert reconstruct_snapshot(golden_ledgers(), {}, "alice", snap) is None


def test_decimals_scale_quantity():
    events = [TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 2_500_000)]
    ledgers = {"X": build_ledger(events, decimals=6)}
    day = D(2023, 2, 1)
    prices = {"X": PriceSeries("X", day, (4.0,))}
    p = reconstruct_snapshot(ledgers, prices, "alice", Snapshot(day, 1))
    assert p is not None
    assert p.positions[0].quantity == pytest.approx(2.5)
    assert p.total_value == pytest.approx(10.0)
