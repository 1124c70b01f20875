"""Distance and performance metrics.

The ℓ₁ weight distance is the headline number: half the absolute weight
difference, which for fully-invested long-only vectors equals one minus
the overlap and lives in [0, 1]. A record's forward return is the book's
simple buy-and-hold return over the holding window; alpha is the CAPM
residual at a zero risk-free rate.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

# a hit must beat the baseline's return by more than this; a projection
# equal to the observed book otherwise wins or loses on rounding
HIT_TOL = 1e-12


def _check_weights(w: np.ndarray, name: str, tol: float = 1e-6) -> None:
    if np.any(w < -1e-9):
        raise ValueError(f"{name} has negative weights")
    total = float(np.sum(w))
    if abs(total - 1.0) > tol:
        raise ValueError(f"{name} sums to {total}, not 1")


def l1_distance_from(w_actual) -> Callable[[object], float]:
    """Half the ℓ₁ difference from one book to any number of targets.

    Each distance lies in [0, 1]: 0 means identical books, 1 disjoint ones.
    Every vector must be fully invested and long-only over the same asset
    ordering (zeros are fine). ``w_actual`` is checked once, here; each
    target is checked on its call.
    """
    a = np.asarray(w_actual, dtype=float)
    _check_weights(a, "w_actual")

    def distance(w_target) -> float:
        b = np.asarray(w_target, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"weight shapes differ: {a.shape} vs {b.shape}")
        _check_weights(b, "w_target")
        return float(0.5 * np.sum(np.abs(a - b)))

    return distance


def capm_alpha(portfolio_return: float, beta: float, market_return: float) -> float:
    """Return in excess of the beta-scaled market move (risk-free rate 0)."""
    return portfolio_return - beta * market_return


@dataclass(frozen=True)
class PerfRecord:
    """Realised performance of one (snapshot, account, strategy) book."""

    snapshot_date: dt.date
    account: str
    strategy: str
    fwd_return: float
    beta: float
    alpha: float
    market_fwd_return: float


@dataclass(frozen=True)
class StrategySummary:
    """Per-strategy aggregate over all snapshots.

    ``hit_rate`` is None for the baseline strategy, which cannot beat
    itself.
    """

    strategy: str
    median_return: float
    hit_rate: float | None
    median_alpha: float
    frac_positive_alpha: float
    n_records: int


@dataclass(frozen=True)
class ExcessPoint:
    """One point of the cumulative excess-return curve."""

    snapshot_date: dt.date
    strategy: str
    cumulative_excess: float


@dataclass(frozen=True)
class AggregateReport:
    summaries: tuple[StrategySummary, ...]
    excess_curve: tuple[ExcessPoint, ...]


def aggregate(
    records: Iterable[PerfRecord], baseline: str = "baseline"
) -> AggregateReport:
    """Collapse per-account performance into per-strategy summaries.

    Accounts are aggregated by the median within each snapshot, and
    snapshots then weigh equally: the reported median return is the median
    of within-snapshot medians, the hit rate averages the per-snapshot
    fraction of accounts whose return exceeds the baseline account's own
    return by more than ``HIT_TOL`` (so a book equal to the observed one
    up to rounding is no hit), and the excess curve is the running sum of
    median strategy return minus median market return per snapshot.
    """
    by_strategy: dict[str, dict[dt.date, list[PerfRecord]]] = {}
    for rec in records:
        by_strategy.setdefault(rec.strategy, {}).setdefault(rec.snapshot_date, []).append(rec)
    if not by_strategy:
        return AggregateReport((), ())

    baseline_by_snap: dict[dt.date, dict[str, float]] = {}
    for snap, recs in by_strategy.get(baseline, {}).items():
        baseline_by_snap[snap] = {r.account: r.fwd_return for r in recs}

    summaries: list[StrategySummary] = []
    curve: list[ExcessPoint] = []
    for strategy in sorted(by_strategy):
        snaps = by_strategy[strategy]
        snap_medians: list[float] = []
        alpha_medians: list[float] = []
        pos_alpha_fracs: list[float] = []
        hit_fracs: list[float] = []
        n_records = 0
        cumulative = 0.0
        for snap in sorted(snaps):
            recs = snaps[snap]
            n_records += len(recs)
            returns = [r.fwd_return for r in recs]
            snap_medians.append(median(returns))
            alpha_medians.append(median(r.alpha for r in recs))
            pos_alpha_fracs.append(
                sum(1 for r in recs if r.alpha > 0) / len(recs)
            )
            cumulative += median(returns) - median(
                r.market_fwd_return for r in recs
            )
            curve.append(ExcessPoint(snap, strategy, cumulative))
            if strategy != baseline:
                base = baseline_by_snap.get(snap, {})
                matched = [r for r in recs if r.account in base]
                if matched:
                    hits = sum(
                        1 for r in matched if r.fwd_return > base[r.account] + HIT_TOL
                    )
                    hit_fracs.append(hits / len(matched))
                else:
                    log.warning(
                        "no baseline records to compare for %s at %s",
                        strategy,
                        snap,
                    )
        summaries.append(
            StrategySummary(
                strategy=strategy,
                median_return=median(snap_medians),
                hit_rate=(
                    None
                    if strategy == baseline
                    else (sum(hit_fracs) / len(hit_fracs) if hit_fracs else None)
                ),
                median_alpha=median(alpha_medians),
                frac_positive_alpha=sum(pos_alpha_fracs) / len(pos_alpha_fracs),
                n_records=n_records,
            )
        )
    return AggregateReport(tuple(summaries), tuple(curve))
