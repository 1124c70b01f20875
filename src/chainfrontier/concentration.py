"""Wealth-concentration statistics over holder value vectors.

Three standard inequality measures: the population Gini coefficient
(sorted-rank form, no small-sample correction), the Herfindahl-Hirschman
index of wealth shares, and the share of total wealth held by the top k
percent of accounts. Balances at or below the dust threshold are excluded
before any statistic is taken.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConcentrationRow", "concentration_row", "gini", "hhi", "top_share"]


def _as_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a non-empty 1-D vector")
    if np.any(~np.isfinite(x)):
        raise ValueError("values must be finite")
    if np.any(x < 0):
        raise ValueError("values must be non-negative")
    return x


def gini(values) -> float:
    """Population Gini coefficient of a non-negative value vector.

    Computed as Σᵢ (2i - n - 1) xᵢ / (n Σx) over ascending-sorted values
    with 1-based ranks. 0 means perfect equality; the upper bound for n
    holders is 1 - 1/n.
    """
    x = _as_values(values)
    total = float(x.sum())
    if total <= 0:
        raise ValueError("values are all zero")
    x = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1, dtype=float)
    return float(np.sum((2.0 * ranks - n - 1.0) * x) / (n * total))


def hhi(values) -> float:
    """Herfindahl-Hirschman index: sum of squared wealth shares.

    Ranges from 1/n (equal holders) to 1 (single holder).
    """
    x = _as_values(values)
    total = float(x.sum())
    if total <= 0:
        raise ValueError("values are all zero")
    shares = x / total
    return float(np.sum(shares * shares))


def top_share(values, k_pct: float, dust_threshold: float = 1.0) -> float:
    """Share of filtered wealth held by the top ``k_pct`` percent of holders.

    Values at or below ``dust_threshold`` are dropped first. The account
    count rounds up, so any positive ``k_pct`` covers at least one holder.
    """
    if not 0.0 < k_pct <= 100.0:
        raise ValueError(f"k_pct must be in (0, 100], got {k_pct}")
    x = _as_values(values)
    kept = x[x > dust_threshold]
    if kept.size == 0:
        raise ValueError("no holders above the dust threshold")
    kept = np.sort(kept)[::-1]
    # guard the ceil against float fuzz right at integer boundaries
    k = max(1, math.ceil(k_pct * kept.size / 100.0 - 1e-9))
    return float(kept[:k].sum() / kept.sum())


@dataclass(frozen=True)
class ConcentrationRow:
    """Concentration statistics for one scope at one snapshot.

    ``scope`` names the population (a token id, or "ecosystem" for
    account-level portfolio values). ``top_shares`` pairs each k percent
    with the corresponding wealth share. ``n_holders`` counts holders
    above the dust threshold.
    """

    scope: str
    snapshot_date: dt.date
    gini: float
    hhi: float
    top_shares: tuple[tuple[float, float], ...]
    n_holders: int


def concentration_row(
    scope: str,
    snapshot: dt.date,
    values,
    k_pcts: tuple[float, ...] = (1.0, 5.0, 10.0),
    dust_threshold: float = 1.0,
) -> ConcentrationRow | None:
    """Build one statistics row, or None when every balance is dust."""
    x = _as_values(values)
    kept = x[x > dust_threshold]
    if kept.size == 0:
        return None
    shares = tuple(
        (k, top_share(kept, k, dust_threshold=0.0)) for k in sorted(k_pcts)
    )
    return ConcentrationRow(
        scope=scope,
        snapshot_date=snapshot,
        gini=gini(kept),
        hhi=hhi(kept),
        top_shares=shares,
        n_holders=int(kept.size),
    )
