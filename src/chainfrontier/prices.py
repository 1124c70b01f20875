"""Daily price series on a consecutive calendar with explicit gaps.

Plain Python, so that the stages which only read or carry prices forward
(the snapshot calendar, portfolio valuation) never load NumPy. A
``prices.csv`` row is (token_id, date, close, market cap, volume);
``price_rows`` and ``price_series`` convert between those rows and series.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

ONE_DAY = dt.timedelta(days=1)


@dataclass(frozen=True)
class PriceSeries:
    """Daily USD closes for one token.

    ``closes[i]`` belongs to ``start + i days``; ``None`` marks a day with
    no observation. The grid is consecutive, so day arithmetic is pure
    index arithmetic.
    """

    token_id: str
    start: dt.date
    closes: tuple[float | None, ...]

    @property
    def end(self) -> dt.date:
        return self.start + (len(self.closes) - 1) * ONE_DAY

    def close_on(self, day: dt.date) -> float | None:
        i = (day - self.start).days
        if 0 <= i < len(self.closes):
            return self.closes[i]
        return None

    @classmethod
    def from_observations(
        cls,
        token_id: str,
        observations: Mapping[dt.date, float],
        end: dt.date | None = None,
    ) -> "PriceSeries":
        """Build a gapped daily series from sparse (date, close) pairs."""
        if not observations:
            raise ValueError(f"no price observations for {token_id!r}")
        days = sorted(observations)
        last = max(days[-1], end) if end is not None else days[-1]
        start = days[0]
        closes: list[float | None] = [None] * ((last - start).days + 1)
        for day, close in observations.items():
            close = float(close)
            if not math.isfinite(close) or close <= 0:
                raise ValueError(f"nonpositive close {close} for {token_id!r} on {day}")
            closes[(day - start).days] = close
        return cls(token_id, start, tuple(closes))


def forward_fill(series: PriceSeries, through: dt.date | None = None) -> PriceSeries:
    """Fill gaps with the last observed close.

    Days before the first observation stay absent. ``through`` extends the
    calendar past the last observation so stale prices keep carrying
    forward (positions are valued at the last known close). Idempotent.
    """
    closes = list(series.closes)
    if through is not None and through > series.end:
        closes.extend([None] * (through - series.end).days)
    last: float | None = None
    for i, c in enumerate(closes):
        if c is None:
            closes[i] = last
        else:
            last = c
    return PriceSeries(series.token_id, series.start, tuple(closes))


def price_rows(
    prices: Mapping[str, PriceSeries],
    mcaps: Mapping[str, Sequence[float]],
    volumes: Mapping[str, Sequence[float]],
) -> Iterable[tuple]:
    """One row per token and priced day, tokens in sorted order; ``mcaps``
    and ``volumes`` parallel each series by day."""
    for tid in sorted(prices):
        series = prices[tid]
        for i, close in enumerate(series.closes):
            if close is None:
                continue
            day = series.start + i * ONE_DAY
            yield (tid, day, close, mcaps[tid][i], volumes[tid][i])


def price_series(rows: Iterable[Sequence]) -> dict[str, PriceSeries]:
    """Group price rows into one gapped daily series per token."""
    observations: dict[str, dict[dt.date, float]] = {}
    for tid, day, close, *_ in rows:
        observations.setdefault(tid, {})[day] = close
    return {
        tid: PriceSeries.from_observations(tid, obs)
        for tid, obs in observations.items()
    }
