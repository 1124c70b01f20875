"""Independent reference implementations that the tests check the pipeline
against. No pipeline run reaches any of them.

The grid oracle and the naive replay are the acceptance oracles: a
brute-force search of the simplex grid for the frontier projections, and a
linear scan of the raw events for a balance. ``forward_return`` prices one
weight vector's buy-and-hold return from its start and end closes, the
reference for every perf row. The rest are small readings of pipeline
values that only the tests need.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from chainfrontier.decayfit import DecayFit, SizeBin, _curve
from chainfrontier.frontier import (
    DAYS_PER_YEAR,
    Frontier,
    FrontierSolution,
    Strategy,
)
from chainfrontier.ingest import TransferEvent
from chainfrontier.marketdata import MomentEstimates
from chainfrontier.metrics import l1_distance_from
from chainfrontier.synth import SynthMarket


def _compositions(total: int, parts: int, cap_units: int) -> np.ndarray:
    """All integer compositions of ``total`` into ``parts`` entries <= cap."""
    if parts == 1:
        if total <= cap_units:
            return np.array([[total]], dtype=np.int64)
        return np.empty((0, 1), dtype=np.int64)
    blocks = []
    for first in range(min(total, cap_units) + 1):
        tail = _compositions(total - first, parts - 1, cap_units)
        if len(tail):
            blocks.append(
                np.column_stack([np.full(len(tail), first, dtype=np.int64), tail])
            )
    if not blocks:
        return np.empty((0, parts), dtype=np.int64)
    return np.concatenate(blocks)


def grid_oracle(
    strategy: Strategy,
    w0,
    m: MomentEstimates,
    w_max: float = 0.9,
    step: float = 0.01,
    rf_annual: float = 0.0,
) -> FrontierSolution:
    """Brute-force reference solver on the simplex grid with spacing ``step``.

    Enumerates every grid weight vector inside the constraint set and picks
    the best objective directly, so it shares no code path with the smooth
    solver. The return anchor admits only the grid points that match the
    anchor as closely as the grid can at all (a grid rarely hits an anchor
    exactly); the risk anchor is a budget, so only grid points at or under
    the anchor volatility count, falling back to the nearest-risk shell
    when nothing fits under it. Ties break toward the smallest ℓ₁ distance
    from the observed book, then lexicographically.

    Supports up to 4 assets; the candidate count explodes beyond that.
    """
    fr = Frontier(w0, m, w_max)
    if fr.reason:
        raise ValueError(fr.reason)
    n = fr.support.size
    if n > 4:
        raise ValueError("grid oracle supports at most 4 assets")
    M = round(1.0 / step)
    if M < 1 or abs(M * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 evenly")
    cap_units = int(math.floor(fr.cap * M + 1e-9))
    comps = _compositions(M, n, cap_units)
    if not len(comps):
        raise ValueError("no grid point satisfies the constraints")
    W = comps.astype(float) / M
    mus = W @ fr.mu
    variances = np.einsum("ij,jk,ik->i", W, fr.cov, W)
    sigmas = np.sqrt(np.clip(variances, 0.0, None))

    rf_daily = rf_annual / DAYS_PER_YEAR
    if strategy is Strategy.MIN_VAR:
        # admit only points that meet the return anchor as closely as the
        # grid can at all; a wider band would let the oracle trade anchor
        # error for variance and overstate the attainable minimum
        dev = np.abs(mus - fr.anchor_mu)
        mask = dev <= dev.min() + 1e-12
        objective = -sigmas
    elif strategy is Strategy.MAX_RET:
        # mirror the solver's risk-budget semantics: at most the anchor
        # volatility, falling back to the nearest-risk shell off grid
        over = sigmas - fr.anchor_sigma
        mask = over <= 1e-12
        if not mask.any():
            dev = np.abs(over)
            mask = dev <= dev.min() + 1e-12
        objective = mus
    elif strategy is Strategy.MAX_SR:
        mask = np.ones(len(W), dtype=bool)
        excess = mus - rf_daily
        with np.errstate(divide="ignore", invalid="ignore"):
            objective = np.where(
                sigmas > 0.0,
                excess / np.where(sigmas > 0.0, sigmas, 1.0),
                np.where(excess > 0.0, math.inf, np.where(excess < 0.0, -math.inf, 0.0)),
            )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    candidates = np.flatnonzero(mask)
    best_val = float(np.max(objective[candidates]))
    tie_tol = 1e-12 if math.isfinite(best_val) else 0.0
    ties = [i for i in candidates if objective[i] >= best_val - tie_tol]
    dists = {i: float(0.5 * np.abs(W[i] - fr.w0).sum()) for i in ties}
    pick = min(ties, key=lambda i: (dists[i], tuple(W[i])))

    w = W[pick]
    full = fr.embed(w)
    mu_p, sigma_p = float(mus[pick]), float(sigmas[pick])
    return FrontierSolution(
        strategy=strategy,
        weights=full,
        mu=mu_p,
        sigma=sigma_p,
        distance=fr.distance(full),
        converged=True,
        iterations=len(W),
        reason="",
    )


def replay_balance(
    events: Iterable[TransferEvent], account: str, block: int
) -> int:
    """Naive linear-scan balance over the raw events, kept as an
    independent cross-check for the ledger and ``balance_at``."""
    total = 0
    for e in events:
        if e.block <= block:
            if e.sender == account:
                total -= e.amount
            if e.recipient == account:
                total += e.amount
    return total


def l1_distance(w_actual, w_target) -> float:
    """Half the ℓ₁ difference between two weight vectors, in [0, 1].

    Both vectors must be fully invested and long-only over the same asset
    ordering (zeros are fine). 0 means identical books, 1 means disjoint.
    """
    return l1_distance_from(w_actual)(w_target)


def weighted_sse(
    bins: Sequence[SizeBin], delta_inf: float, psi: float, gamma: float
) -> float:
    """Objective the fit minimises: sum of sqrt(count)-weighted squares."""
    fitted = _curve([float(b.n) for b in bins], delta_inf, psi, gamma)
    return sum(
        math.sqrt(b.count) * (b.mean_d - f) * (b.mean_d - f)
        for b, f in zip(bins, fitted)
    )


def predict(fit: DecayFit, n):
    """Model value d(n) in percent for a scalar size or a NumPy array of
    sizes."""
    return fit.delta_inf * (1.0 - fit.psi * n ** (-fit.gamma))


def events_for(market: SynthMarket, token_id: str) -> tuple[TransferEvent, ...]:
    """The market's events of one token, in block order."""
    return tuple(e for e in market.events if e.token_id == token_id)


def forward_return(weights, start_prices, end_prices) -> float:
    """Buy-and-hold simple return of a weight vector over one window.

    Each held asset contributes its weight times the simple price relative
    minus one. Prices must be positive and finite wherever the weight is
    nonzero.
    """
    w = np.asarray(weights, dtype=float)
    p0 = np.asarray(start_prices, dtype=float)
    p1 = np.asarray(end_prices, dtype=float)
    if not (w.shape == p0.shape == p1.shape):
        raise ValueError("weights and price vectors must align")
    held = w > 0
    if np.any(~np.isfinite(p0[held])) or np.any(p0[held] <= 0):
        raise ValueError("missing or nonpositive start price for a held asset")
    if np.any(~np.isfinite(p1[held])) or np.any(p1[held] <= 0):
        raise ValueError("missing or nonpositive end price for a held asset")
    rel = np.zeros_like(w)
    rel[held] = p1[held] / p0[held] - 1.0
    return float(np.sum(w * rel))
