"""Gap-free daily price series on a consecutive calendar.

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

    ``closes[i]`` belongs to ``start + i days``, so day arithmetic is pure
    index arithmetic. Every day of the series has a close, and every close
    is positive and finite.
    """

    token_id: str
    start: dt.date
    closes: tuple[float, ...]

    def __post_init__(self) -> None:
        for i, close in enumerate(self.closes):
            if close is None or not 0.0 < close < math.inf:
                day = self.start + i * ONE_DAY
                raise ValueError(
                    f"close {close} for {self.token_id!r} on {day} "
                    "is not positive and finite"
                )

    @property
    def end(self) -> dt.date:
        return self.start + (len(self.closes) - 1) * ONE_DAY

    def close_on(self, day: dt.date) -> float | None:
        i = (day - self.start).days
        if 0 <= i < len(self.closes):
            return self.closes[i]
        return None


def price_rows(
    prices: Mapping[str, PriceSeries],
    mcaps: Mapping[str, Sequence[float]],
    volumes: Mapping[str, Sequence[float]],
) -> Iterable[tuple]:
    """One row per token and day, tokens in sorted order; ``mcaps`` and
    ``volumes`` parallel each series by day."""
    for tid in sorted(prices):
        series = prices[tid]
        for i, close in enumerate(series.closes):
            day = series.start + i * ONE_DAY
            yield (tid, day, close, mcaps[tid][i], volumes[tid][i])


def price_series(rows: Iterable[Sequence]) -> dict[str, PriceSeries]:
    """One gap-free daily series per token from price rows (token, day,
    close, market cap, volume), in any order.

    One pass over the rows maps each token's days to their closes; then
    each token's series is filled day by day from its first row through
    the last day any token has a row, and a day without a row carries the
    previous close forward. Raises ValueError when there are no rows, when
    two rows share a token and day, or on a close that is not positive and
    finite.
    """
    by_day: dict[str, dict[int, float]] = {}
    for tid, day, close, _, _ in rows:
        closes = by_day.setdefault(tid, {})
        n = day.toordinal()
        if n in closes:
            raise ValueError(f"two rows for {tid!r} on {day}")
        closes[n] = close
    if not by_day:
        raise ValueError("no price rows")

    last = max(max(closes) for closes in by_day.values())
    out: dict[str, PriceSeries] = {}
    for tid, closes in by_day.items():
        first = min(closes)
        filled = [closes[first]]
        for n in range(first + 1, last + 1):
            filled.append(closes.get(n, filled[-1]))
        out[tid] = PriceSeries(tid, dt.date.fromordinal(first), tuple(filled))
    return out
