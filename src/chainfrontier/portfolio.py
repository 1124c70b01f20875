"""Portfolio reconstruction at monthly snapshots.

Balances come out of the token ledgers as exact base-unit integers; USD
conversion is the only place floats enter. Snapshots sit on the first day
of each calendar month and resolve to a block height through a monotone
block-time mapping.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass
from typing import Mapping

from .ingest import TokenLedger, balance_at
from .prices import PriceSeries


@dataclass(frozen=True)
class BlockTimeMap:
    """Monotone mapping between block heights and calendar days.

    Anchors are (block, date) pairs, strictly increasing on both sides.
    ``block_for`` resolves a snapshot day to the highest block known to
    have happened by that day.
    """

    anchors: tuple[tuple[int, dt.date], ...]

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("block-time map needs at least one anchor")
        blocks = [a[0] for a in self.anchors]
        days = [a[1] for a in self.anchors]
        if any(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:])):
            raise ValueError("anchor blocks must be strictly increasing")
        if any(d2 <= d1 for d1, d2 in zip(days, days[1:])):
            raise ValueError("anchor dates must be strictly increasing")

    def block_for(self, day: dt.date) -> int:
        days = [a[1] for a in self.anchors]
        i = bisect.bisect_right(days, day)
        if i == 0:
            raise ValueError(f"{day} precedes the first block anchor")
        return self.anchors[i - 1][0]


@dataclass(frozen=True)
class Snapshot:
    """A reconstruction instant: first day of a month plus its block height."""

    timestamp: dt.date
    block: int

    @property
    def month(self) -> str:
        return self.timestamp.strftime("%Y-%m")


def _add_months(day: dt.date, months: int) -> dt.date:
    total = day.year * 12 + (day.month - 1) + months
    return dt.date(total // 12, total % 12 + 1, 1)


def _first_of_next_month(day: dt.date) -> dt.date:
    if day.day == 1:
        return day
    return _add_months(day, 1)


def monthly_snapshots(
    start: dt.date, end: dt.date, block_map: BlockTimeMap
) -> list[Snapshot]:
    """All first-of-month snapshots with start <= timestamp <= end."""
    if end < start:
        raise ValueError("end before start")
    out: list[Snapshot] = []
    day = _first_of_next_month(start)
    while day <= end:
        out.append(Snapshot(day, block_map.block_for(day)))
        day = _add_months(day, 1)
    return out


@dataclass(frozen=True)
class Position:
    """One token holding: exact base units plus its USD valuation."""

    token_id: str
    base_units: int
    quantity: float
    value: float


@dataclass(frozen=True, eq=False)
class Portfolio:
    """An account's priced holdings at one snapshot.

    Positions are sorted by token id. ``excluded`` lists tokens the account
    held but that had no usable price on the snapshot day.
    """

    account: str
    snapshot: Snapshot
    positions: tuple[Position, ...]
    total_value: float
    excluded: tuple[str, ...] = ()

    @property
    def token_ids(self) -> tuple[str, ...]:
        return tuple(p.token_id for p in self.positions)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(p.value / self.total_value for p in self.positions)


def reconstruct_snapshot(
    ledgers: Mapping[str, TokenLedger],
    prices: Mapping[str, PriceSeries],
    account: str,
    snapshot: Snapshot,
) -> Portfolio | None:
    """Price an account's balances at a snapshot into a weight vector.

    Tokens without a close on the snapshot day are excluded and recorded.
    Returns None when nothing prices to a positive value, which callers
    treat as an empty portfolio and keep out of downstream statistics.
    """
    positions: list[Position] = []
    excluded: list[str] = []
    for token_id in sorted(ledgers):
        ledger = ledgers[token_id]
        units = balance_at(ledger, account, snapshot.block)
        if units == 0:
            continue
        series = prices.get(token_id)
        close = series.close_on(snapshot.timestamp) if series is not None else None
        if close is None:
            excluded.append(token_id)
            continue
        quantity = units / 10**ledger.decimals
        positions.append(Position(token_id, units, quantity, quantity * close))

    total = sum(p.value for p in positions)
    if total <= 0:
        return None
    return Portfolio(account, snapshot, tuple(positions), total, tuple(excluded))

