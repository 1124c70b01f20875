"""Return-moment estimation from daily price series.

Returns are daily log-returns; expected returns get cross-sectional
shrinkage toward the universe mean, covariances get constant-correlation
shrinkage with a data-driven intensity.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prices import ONE_DAY, PriceSeries


@dataclass(frozen=True, eq=False)
class ReturnWindow:
    """Daily log-returns for one token over the days ending at ``end_date``.

    The window has no gaps, so ``returns[k]`` is the return of the day
    ``len - 1 - k`` days before ``end_date``. Two windows that end on the
    same day share their last ``min(len)`` days.
    """

    token_id: str
    end_date: dt.date
    returns: np.ndarray

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True, eq=False)
class MomentEstimates:
    """Shrunk return moments for one asset universe.

    Arrays cover only the eligible assets (``eligible_ids`` order);
    ``eligible`` maps back onto the full input ordering in ``asset_ids``.
    """

    asset_ids: tuple[str, ...]
    eligible: np.ndarray
    eligible_ids: tuple[str, ...]
    raw_means: np.ndarray
    shrunk_means: np.ndarray
    cross_mean: float
    cov: np.ndarray
    lw_intensity: float
    n_obs: int


def log_returns(
    series: PriceSeries, end_date: dt.date, window: int = 60
) -> ReturnWindow:
    """Daily log-returns over the ``window`` days ending at ``end_date``.

    A day contributes ln(p_t / p_{t-1}). A series that starts inside the
    window yields fewer than ``window`` observations rather than fabricated
    ones. Raises ValueError when ``end_date`` lies past the series or a
    close is missing after the first one the window reads, since a gap
    would leave the window's days unknown.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if end_date > series.end:
        raise ValueError(f"{series.token_id!r} prices end before {end_date}")
    rets: list[float] = []
    prev: float | None = None
    day = end_date - window * ONE_DAY
    for _ in range(window + 1):
        cur = series.close_on(day)
        if cur is None:
            if prev is not None:
                raise ValueError(f"{series.token_id!r} has no close on {day}")
        elif cur <= 0:
            raise ValueError(f"nonpositive close for {series.token_id!r} on {day}")
        elif prev is not None:
            rets.append(float(np.log(cur / prev)))
        prev = cur
        day += ONE_DAY
    return ReturnWindow(series.token_id, end_date, np.asarray(rets, dtype=float))


def _aligned(*windows: ReturnWindow) -> list[np.ndarray]:
    """Each window's returns on the days all of them share, the last
    ``min(len)``. Raises ValueError unless they end on the same day."""
    ends = sorted({w.end_date for w in windows})
    if len(ends) > 1:
        raise ValueError(f"return windows are not aligned: they end on {ends}")
    n = min(len(w) for w in windows)
    return [w.returns[len(w) - n :] for w in windows]


def estimate_moments(
    windows: Sequence[ReturnWindow],
    shrink_lambda: float = 0.5,
    min_obs: int = 45,
) -> MomentEstimates:
    """Estimate shrunk mean vector and covariance matrix for a universe.

    Assets with fewer than ``min_obs`` return observations are flagged
    ineligible and excluded from every statistic. Means are per-asset
    sample means pulled halfway (``shrink_lambda``) toward the equal-weighted
    cross-asset mean of the eligible universe. The covariance is the sample
    covariance over the dates all eligible assets share, shrunk toward a
    constant-correlation target with the Ledoit-Wolf optimal intensity.

    Raises ValueError when no asset is eligible, asset ids repeat or the
    eligible assets' windows end on different days.
    """
    if not 0.0 <= shrink_lambda <= 1.0:
        raise ValueError("shrink_lambda must be in [0, 1]")
    ids = tuple(w.token_id for w in windows)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate asset ids in moment estimation")

    eligible = np.array([len(w) >= min_obs for w in windows], dtype=bool)
    kept = [w for w, ok in zip(windows, eligible) if ok]
    if not kept:
        raise ValueError(f"no eligible assets (need >= {min_obs} observations)")

    raw = np.array([float(np.mean(w.returns)) for w in kept])
    cross = float(np.mean(raw))
    shrunk = shrink_lambda * cross + (1.0 - shrink_lambda) * raw

    cols = _aligned(*kept)
    if len(cols[0]) < 2:
        raise ValueError("fewer than 2 shared return dates across eligible assets")
    X = np.column_stack(cols)

    cov, intensity = _shrink_constant_correlation(X)
    return MomentEstimates(
        asset_ids=ids,
        eligible=eligible,
        eligible_ids=tuple(w.token_id for w in kept),
        raw_means=raw,
        shrunk_means=shrunk,
        cross_mean=cross,
        cov=cov,
        lw_intensity=intensity,
        n_obs=len(X),
    )


def _shrink_constant_correlation(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Constant-correlation covariance shrinkage.

    Returns (covariance, intensity). The target keeps sample variances and
    replaces every correlation with the average sample correlation; the
    intensity is the plug-in optimal weight clipped to [0, 1]. Degenerate
    inputs (one asset, a zero-variance asset, or a sample that already
    equals the target) shrink by 0.
    """
    t, n = X.shape
    Xc = X - X.mean(axis=0)
    sample = (Xc.T @ Xc) / t
    sample = (sample + sample.T) / 2.0
    if n == 1:
        return sample, 0.0

    var = np.diag(sample).copy()
    if np.any(var <= 0):
        return _psd_floor(sample), 0.0
    sqrtvar = np.sqrt(var)
    denom = np.outer(sqrtvar, sqrtvar)
    rbar = float((np.sum(sample / denom) - n) / (n * (n - 1)))
    prior = rbar * denom
    np.fill_diagonal(prior, var)

    gamma = float(np.linalg.norm(sample - prior, "fro") ** 2)
    if gamma <= 1e-30:
        return _psd_floor(sample), 0.0

    # pi-hat: Var[x_i x_j] summed over all pairs
    Y = Xc**2
    phi_mat = (Y.T @ Y) / t - sample**2
    phi = float(np.sum(phi_mat))

    # rho-hat: diagonal part plus the constant-correlation cross terms
    theta = (Xc**3).T @ Xc / t - var[:, None] * sample
    np.fill_diagonal(theta, 0.0)
    rho = float(np.sum(np.diag(phi_mat))) + rbar * float(
        np.sum(np.outer(1.0 / sqrtvar, sqrtvar) * theta)
    )

    kappa = (phi - rho) / gamma
    intensity = float(min(1.0, max(0.0, kappa / t)))
    cov = intensity * prior + (1.0 - intensity) * sample
    return _psd_floor((cov + cov.T) / 2.0), intensity


def _psd_floor(cov: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Clip tiny negative eigenvalues so downstream solvers see a PSD matrix."""
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] >= -tol:
        return cov
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    fixed = vecs @ np.diag(vals) @ vecs.T
    return (fixed + fixed.T) / 2.0


def market_index(weth: ReturnWindow, wbtc: ReturnWindow) -> ReturnWindow:
    """Equal-weighted mean of the two benchmark assets' daily log-returns,
    over the days they share."""
    a, b = _aligned(weth, wbtc)
    return ReturnWindow("market", weth.end_date, (a + b) / 2.0)


def asset_beta(asset: ReturnWindow, market: ReturnWindow) -> float:
    """Regression slope of asset returns on market returns.

    Uses the days both windows share; needs at least two and a moving
    market (zero market variance has no defined beta).
    """
    a, m = _aligned(asset, market)
    if len(a) < 2:
        raise ValueError(
            f"fewer than 2 aligned observations for beta of {asset.token_id!r}"
        )
    var_m = float(np.var(m))
    if var_m <= 0:
        raise ValueError("market variance is zero over the aligned window")
    cov_am = float(np.mean((a - a.mean()) * (m - m.mean())))
    return cov_am / var_m


def market_forward_return(market: ReturnWindow, start: dt.date, days: int) -> float:
    """Simple market return over the ``days`` days after ``start``.

    Compounds the daily index log-returns across (start, start + days] and
    converts to a simple return. Every day in the span must be in the window.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    # the index of the day after ``start``
    first = len(market) - (market.end_date - start).days
    if first < 0 or first + days > len(market):
        raise ValueError(
            f"market index is missing days of ({start}, {start + days * ONE_DAY}]"
        )
    total = 0.0
    for r in market.returns[first : first + days]:
        total += float(r)
    return float(np.expm1(total))
