"""Return-moment estimation from daily price series.

Returns are daily log-returns; expected returns get cross-sectional
shrinkage toward the universe mean, covariances get constant-correlation
shrinkage with a data-driven intensity (Ledoit & Wolf 2004).

``estimate_books`` estimates a month's books in one batch: each distinct
window's mean once, and one pass of the shrinkage kernel over each stack
of books with the same eligible count and sample length. A book gets the
same bits alone as in its batch, and ``estimate_moments`` is the batch of
one.
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
    ones. Raises ValueError when ``end_date`` lies past the series.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if end_date > series.end:
        raise ValueError(f"{series.token_id!r} prices end before {end_date}")
    i = (end_date - series.start).days
    closes = np.array(series.closes[max(i - window, 0) : max(i + 1, 0)], dtype=float)
    return ReturnWindow(series.token_id, end_date, np.log(closes[1:] / closes[:-1]))


def _shared_length(windows: Sequence[ReturnWindow]) -> int:
    """The number of days all windows share, the last ``min(len)``.
    Raises ValueError unless they end on the same day."""
    ends = sorted({w.end_date for w in windows})
    if len(ends) > 1:
        raise ValueError(f"return windows are not aligned: they end on {ends}")
    return min(len(w) for w in windows)


def _aligned(*windows: ReturnWindow) -> list[np.ndarray]:
    """Each window's returns on the days all of them share."""
    n = _shared_length(windows)
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

    Raises ValueError when no asset is eligible, asset ids repeat, the
    eligible assets' windows end on different days or share fewer than 2
    days. It is ``estimate_books`` on a batch of one.
    """
    (m,) = estimate_books([windows], shrink_lambda, min_obs)
    if isinstance(m, ValueError):
        raise m
    return m


def _eligible(windows: Sequence[ReturnWindow], min_obs: int) -> tuple[list[bool], int]:
    """Which windows have ``min_obs`` returns, and the days the eligible
    ones share; raises ValueError where ``estimate_moments`` does."""
    ids = [w.token_id for w in windows]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate asset ids in moment estimation")
    eligible = [len(w) >= min_obs for w in windows]
    if not any(eligible):
        raise ValueError(f"no eligible assets (need >= {min_obs} observations)")
    t = _shared_length([w for w, ok in zip(windows, eligible) if ok])
    if t < 2:
        raise ValueError("fewer than 2 shared return dates across eligible assets")
    return eligible, t


def estimate_books(
    books: Sequence[Sequence[ReturnWindow]],
    shrink_lambda: float = 0.5,
    min_obs: int = 45,
) -> list[MomentEstimates | ValueError]:
    """``estimate_moments`` for many universes at once: each book's
    estimates, or the ValueError that it raises for that book alone.

    Each distinct window's mean is taken once. The books with the same
    eligible count n and shared sample length t are stacked as (B, t, n),
    each book's columns the last t returns of its eligible windows, and
    shrunk in one pass. Every step treats a book's sample on its own, so a
    book's estimates are the same bits alone as in any batch.
    """
    if not 0.0 <= shrink_lambda <= 1.0:
        raise ValueError("shrink_lambda must be in [0, 1]")
    out: list = [None] * len(books)
    rows: dict[ReturnWindow, int] = {}  # each distinct eligible window's row
    groups: dict[tuple[int, int], list[tuple[int, list[bool], list[int]]]] = {}
    for b, windows in enumerate(books):
        try:
            eligible, t = _eligible(windows, min_obs)
        except ValueError as exc:
            out[b] = exc
            continue
        cols = [rows.setdefault(w, len(rows)) for w, ok in zip(windows, eligible) if ok]
        groups.setdefault((len(cols), t), []).append((b, eligible, cols))
    if not groups:
        return out

    kept = list(rows)
    lengths = np.array([len(w) for w in kept])
    means = np.empty(len(kept))
    for size in set(lengths.tolist()):
        same = np.flatnonzero(lengths == size)
        means[same] = np.stack([kept[j].returns for j in same]).mean(axis=1)
    flat = np.concatenate([w.returns for w in kept])
    ends = np.cumsum(lengths)

    for (n, t), group in groups.items():
        cols = np.array([c for *_, c in group])
        raw = means[cols]
        cross = raw.mean(axis=1)
        shrunk = shrink_lambda * cross[:, None] + (1.0 - shrink_lambda) * raw
        # X[i, k, j] is day k of the last t days of book i's eligible window j
        X = flat[ends[cols][:, None, :] - t + np.arange(t)[:, None]]
        cov, intensity = _shrink_constant_correlation(X)
        for i, (b, eligible, c) in enumerate(group):
            out[b] = MomentEstimates(
                asset_ids=tuple(w.token_id for w in books[b]),
                eligible=np.array(eligible, dtype=bool),
                eligible_ids=tuple(kept[j].token_id for j in c),
                raw_means=raw[i],
                shrunk_means=shrunk[i],
                cross_mean=float(cross[i]),
                cov=cov[i],
                lw_intensity=float(intensity[i]),
                n_obs=t,
            )
    return out


def _shrink_constant_correlation(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant-correlation covariance shrinkage of each (t, n) sample in a
    stack ``X`` of shape (..., t, n).

    Returns (covariances, intensities) over the leading axes. The target
    keeps sample variances and replaces every correlation with the average
    sample correlation; the intensity is the plug-in optimal weight clipped
    to [0, 1]. Degenerate samples (one asset, a zero-variance asset, or a
    sample that already equals the target) shrink by 0.
    """
    lead, (t, n) = X.shape[:-2], X.shape[-2:]
    X = X.reshape(-1, t, n)
    Xc = X - X.mean(axis=1, keepdims=True)
    sample = (Xc.swapaxes(1, 2) @ Xc) / t
    sample = (sample + sample.swapaxes(1, 2)) / 2.0
    if n == 1:
        return sample.reshape(*lead, n, n), np.zeros(lead)

    # diagonals as strided views, so a row sum runs along each book's row
    diag, var = np.arange(n), np.diagonal(sample, axis1=1, axis2=2)
    degenerate = np.any(var <= 0, axis=1)
    # a zero-variance sample's terms are inf or nan; it is masked at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrtvar = np.sqrt(var)
        denom = sqrtvar[:, :, None] * sqrtvar[:, None, :]
        rbar = (np.sum(sample / denom, axis=(1, 2)) - n) / (n * (n - 1))
        prior = rbar[:, None, None] * denom
        prior[:, diag, diag] = var
        # the squared Frobenius norm of sample - prior, squared from the
        # norm as ``np.linalg.norm`` gives it, which keeps the per-book
        # reference's bits in all but a few books in 10^4
        gap = (sample - prior).reshape(-1, 1, n * n)
        gamma = np.sqrt((gap @ gap.swapaxes(1, 2))[:, 0, 0]) ** 2
        degenerate |= gamma <= 1e-30

        # pi-hat: Var[x_i x_j] summed over all pairs
        Y = Xc**2
        phi_mat = (Y.swapaxes(1, 2) @ Y) / t - sample**2
        phi = np.sum(phi_mat, axis=(1, 2))

        # rho-hat: diagonal part plus the constant-correlation cross terms
        theta = (Xc**3).swapaxes(1, 2) @ Xc / t - var[:, :, None] * sample
        theta[:, diag, diag] = 0.0
        ratio = (1.0 / sqrtvar)[:, :, None] * sqrtvar[:, None, :]
        rho = np.sum(np.diagonal(phi_mat, axis1=1, axis2=2), axis=1)
        rho += rbar * np.sum(ratio * theta, axis=(1, 2))

        kappa = (phi - rho) / gamma
        intensity = np.where(degenerate, 0.0, np.clip(kappa / t, 0.0, 1.0))
        mixed = intensity[:, None, None] * prior + (1.0 - intensity[:, None, None]) * sample
    cov = np.where(degenerate[:, None, None], sample, (mixed + mixed.swapaxes(1, 2)) / 2.0)
    return _psd_floor(cov).reshape(*lead, n, n), intensity.reshape(lead)


def _psd_floor(cov: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Clip tiny negative eigenvalues of each matrix in a (B, n, n) stack so
    downstream solvers see PSD matrices; in place."""
    for i in np.flatnonzero(np.linalg.eigvalsh(cov)[:, 0] < -tol).tolist():
        vals, vecs = np.linalg.eigh(cov[i])
        vals = np.clip(vals, 0.0, None)
        fixed = vecs @ np.diag(vals) @ vecs.T
        cov[i] = (fixed + fixed.T) / 2.0
    return cov


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
