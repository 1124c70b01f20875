"""Price-series handling and moment-estimation tests.

The shrinkage oracle below is a deliberately naive loop implementation of
the published constant-correlation intensity formula, kept independent of
the vectorized production code.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfrontier.marketdata import (
    MarketIndex,
    ReturnWindow,
    asset_beta,
    estimate_moments,
    log_returns,
    market_forward_return,
    market_index,
)
from chainfrontier.prices import PriceSeries, forward_fill

D0 = dt.date(2023, 1, 1)


def day(i: int) -> dt.date:
    return D0 + dt.timedelta(days=i)


def series(closes, token_id="X", start=D0) -> PriceSeries:
    return PriceSeries(token_id, start, tuple(closes))


def window(returns, start_idx=1, token_id="X") -> ReturnWindow:
    returns = np.asarray(returns, dtype=float)
    dates = tuple(day(start_idx + k) for k in range(len(returns)))
    return ReturnWindow(token_id, dates[-1], dates, returns)


# ---------------------------------------------------------------------------
# forward_fill
# ---------------------------------------------------------------------------


def test_forward_fill_fills_interior_gaps():
    filled = forward_fill(series([10.0, None, None, 12.0]))
    assert filled.closes == (10.0, 10.0, 10.0, 12.0)


def test_forward_fill_keeps_leading_gap():
    filled = forward_fill(series([None, 5.0, None]))
    assert filled.closes == (None, 5.0, 5.0)


def test_forward_fill_extends_through():
    filled = forward_fill(series([7.0, 8.0]), through=day(4))
    assert filled.closes == (7.0, 8.0, 8.0, 8.0, 8.0)
    assert filled.end == day(4)


def test_forward_fill_idempotent():
    s = series([None, 3.0, None, 4.0, None])
    once = forward_fill(s)
    twice = forward_fill(once)
    assert once.closes == twice.closes


@settings(deadline=None, max_examples=60)
@given(
    closes=st.lists(
        st.one_of(st.none(), st.floats(0.01, 1e6, allow_nan=False)), min_size=1, max_size=30
    )
)
def test_forward_fill_idempotence_property(closes):
    s = series(closes)
    assert forward_fill(forward_fill(s)).closes == forward_fill(s).closes


def test_from_observations_builds_gapped_grid():
    s = PriceSeries.from_observations("X", {day(0): 10.0, day(3): 12.0})
    assert s.closes == (10.0, None, None, 12.0)
    assert s.close_on(day(1)) is None
    assert s.close_on(day(9)) is None


def test_from_observations_rejects_nonpositive():
    with pytest.raises(ValueError):
        PriceSeries.from_observations("X", {day(0): 0.0})


# ---------------------------------------------------------------------------
# log_returns
# ---------------------------------------------------------------------------


def test_log_returns_constant_price_is_zero():
    s = series([5.0] * 11)
    w = log_returns(s, day(10), window=10)
    assert len(w) == 10
    assert np.allclose(w.returns, 0.0)
    assert w.dates[0] == day(1) and w.dates[-1] == day(10)


def test_log_returns_doubling_price():
    s = series([1.0, 2.0, 4.0])
    w = log_returns(s, day(2), window=2)
    assert np.allclose(w.returns, [math.log(2.0)] * 2)


def test_log_returns_skips_gap_pairs():
    s = series([1.0, None, 4.0, 8.0])
    w = log_returns(s, day(3), window=3)
    # day1 lacks a close and day2 lacks a predecessor; only day3 survives
    assert w.dates == (day(3),)
    assert np.allclose(w.returns, [math.log(2.0)])


def test_log_returns_leading_gap_shortens_window():
    s = series([None, None, 1.0, 2.0, 4.0])
    w = log_returns(s, day(4), window=4)
    assert w.dates == (day(3), day(4))
    assert len(w) == 2


# ---------------------------------------------------------------------------
# estimate_moments: means
# ---------------------------------------------------------------------------


def test_shrunk_means_halfway_to_cross_mean():
    w1 = window([0.1] * 50, token_id="A")
    w2 = window([0.3] * 50, token_id="B")
    m = estimate_moments([w1, w2], shrink_lambda=0.5, min_obs=45)
    assert m.cross_mean == pytest.approx(0.2, abs=1e-15)
    assert m.shrunk_means == pytest.approx([0.15, 0.25], abs=1e-15)
    assert m.raw_means == pytest.approx([0.1, 0.3], abs=1e-15)
    # constant series carry no covariance and shrink by nothing
    assert np.allclose(m.cov, 0.0)
    assert m.lw_intensity == 0.0


def test_lambda_one_collapses_to_cross_mean():
    m = estimate_moments(
        [window([0.1] * 50, token_id="A"), window([0.3] * 50, token_id="B")],
        shrink_lambda=1.0,
    )
    assert m.shrunk_means == pytest.approx([0.2, 0.2], abs=1e-15)


def test_lambda_zero_keeps_raw_means():
    m = estimate_moments(
        [window([0.1] * 50, token_id="A"), window([0.3] * 50, token_id="B")],
        shrink_lambda=0.0,
    )
    assert m.shrunk_means == pytest.approx([0.1, 0.3], abs=1e-15)


def test_ineligible_asset_excluded_from_cross_mean():
    rng = np.random.default_rng(0)
    w1 = window(rng.normal(0.001, 0.01, 60), token_id="A")
    w2 = window(rng.normal(0.002, 0.01, 60), token_id="B")
    short = window([0.5] * 44, token_id="C")  # one observation short
    m = estimate_moments([w1, w2, short], min_obs=45)
    assert list(m.eligible) == [True, True, False]
    assert m.eligible_ids == ("A", "B")
    assert m.cross_mean == pytest.approx(
        (np.mean(w1.returns) + np.mean(w2.returns)) / 2
    )
    assert m.cov.shape == (2, 2)


def test_no_eligible_assets_raises():
    with pytest.raises(ValueError, match="eligible"):
        estimate_moments([window([0.1] * 10, token_id="A")], min_obs=45)


def test_duplicate_ids_raise():
    w = window([0.0] * 50, token_id="A")
    with pytest.raises(ValueError, match="duplicate"):
        estimate_moments([w, w])


def test_single_eligible_asset_scalar_variance():
    rng = np.random.default_rng(3)
    rets = rng.normal(0.0, 0.02, 50)
    m = estimate_moments([window(rets, token_id="A")], min_obs=45)
    assert m.cov.shape == (1, 1)
    assert m.cov[0, 0] == pytest.approx(np.var(rets), rel=1e-12)
    assert m.lw_intensity == 0.0
    assert m.shrunk_means[0] == pytest.approx(np.mean(rets))


# ---------------------------------------------------------------------------
# estimate_moments: covariance shrinkage vs naive oracle
# ---------------------------------------------------------------------------


def lw_oracle(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Loop-based constant-correlation shrinkage, no vectorised shortcuts."""
    t, n = X.shape
    X = X - X.mean(axis=0)
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = float(np.sum(X[:, i] * X[:, j]) / t)
    var = [s[i, i] for i in range(n)]
    corr_sum = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                corr_sum += s[i, j] / math.sqrt(var[i] * var[j])
    rbar = corr_sum / (n * (n - 1))
    prior = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            prior[i, j] = var[i] if i == j else rbar * math.sqrt(var[i] * var[j])

    pi_mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pi_mat[i, j] = float(np.mean((X[:, i] * X[:, j] - s[i, j]) ** 2))
    pi_hat = float(np.sum(pi_mat))

    rho = float(np.trace(pi_mat))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            theta_ii_ij = float(np.mean((X[:, i] ** 2 - var[i]) * (X[:, i] * X[:, j] - s[i, j])))
            rho += rbar * math.sqrt(var[j] / var[i]) * theta_ii_ij

    gamma = float(np.sum((s - prior) ** 2))
    kappa = (pi_hat - rho) / gamma
    delta = max(0.0, min(1.0, kappa / t))
    return delta * prior + (1 - delta) * s, delta


def test_shrinkage_matches_published_formula():
    # three assets with uneven correlations, so the constant-correlation
    # target is meaningfully wrong and the optimal intensity lands interior
    rng = np.random.default_rng(40)
    sd = np.array([0.02, 0.03, 0.015])
    corr = np.array([[1.0, 0.7, 0.0], [0.7, 1.0, 0.2], [0.0, 0.2, 1.0]])
    true_cov = corr * np.outer(sd, sd)
    X = rng.multivariate_normal(mean=[0.0, 0.001, -0.001], cov=true_cov, size=60)
    windows = [window(X[:, k], token_id=f"T{k}") for k in range(3)]
    m = estimate_moments(windows, min_obs=45)

    expected_cov, expected_delta = lw_oracle(X)
    assert m.lw_intensity == pytest.approx(expected_delta, abs=1e-12)
    assert np.allclose(m.cov, expected_cov, atol=1e-15)
    assert 0.0 < m.lw_intensity < 1.0
    # close to the generating covariance on this seed
    assert np.linalg.norm(m.cov - true_cov) <= 0.10 * np.linalg.norm(true_cov)
    assert np.all(np.abs(np.diag(m.cov) - np.diag(true_cov)) <= 0.10 * np.diag(true_cov))


def test_two_asset_universe_shrinks_by_zero():
    # with two assets the constant-correlation target coincides with the
    # sample covariance, so the intensity is pinned at zero by convention
    rng = np.random.default_rng(8)
    X = rng.normal(0, 0.02, size=(60, 2))
    windows = [window(X[:, k], token_id=f"T{k}") for k in range(2)]
    m = estimate_moments(windows, min_obs=45)
    Xc = X - X.mean(axis=0)
    assert np.allclose(m.cov, Xc.T @ Xc / 60, atol=1e-18)
    assert m.lw_intensity == 0.0


def test_shrinkage_always_psd():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = rng.integers(2, 7)
        t = rng.integers(5, 80)
        X = rng.normal(0, 0.02, size=(t, n))
        windows = [window(X[:, k], token_id=f"T{k}") for k in range(n)]
        m = estimate_moments(windows, min_obs=2)
        assert np.allclose(m.cov, m.cov.T)
        assert np.linalg.eigvalsh(m.cov)[0] >= -1e-10
        assert 0.0 <= m.lw_intensity <= 1.0


def test_covariance_uses_shared_dates_only():
    rng = np.random.default_rng(5)
    full = window(rng.normal(0, 0.01, 60), start_idx=1, token_id="A")
    late = window(rng.normal(0, 0.01, 50), start_idx=11, token_id="B")
    m = estimate_moments([full, late], min_obs=45)
    assert m.n_obs == 50  # intersection of the two date ranges


# ---------------------------------------------------------------------------
# market index and beta
# ---------------------------------------------------------------------------


def test_market_index_daily_mean():
    weth = window([0.02, 0.01], token_id="WETH")
    wbtc = window([0.04, 0.03], token_id="WBTC")
    idx = market_index(weth, wbtc)
    assert np.allclose(idx.returns, [0.03, 0.02])
    assert idx.dates == weth.dates


def test_market_index_misaligned_raises():
    weth = window([0.02, 0.01], start_idx=1, token_id="WETH")
    wbtc = window([0.04, 0.03], start_idx=2, token_id="WBTC")
    with pytest.raises(ValueError, match="align"):
        market_index(weth, wbtc)


def test_beta_of_market_itself_is_one():
    rng = np.random.default_rng(10)
    rets = rng.normal(0, 0.02, 100)
    w = window(rets, token_id="M")
    idx = MarketIndex(w.dates, w.returns)
    assert asset_beta(w, idx) == pytest.approx(1.0, abs=1e-12)


def test_beta_independent_series_near_zero():
    rng = np.random.default_rng(99)
    a = window(rng.normal(0, 0.02, 10_000), token_id="A")
    m_rets = rng.normal(0, 0.02, 10_000)
    idx = MarketIndex(a.dates, m_rets)
    assert abs(asset_beta(a, idx)) < 0.05


def test_beta_linearity():
    rng = np.random.default_rng(4)
    m_rets = rng.normal(0, 0.02, 200)
    x = window(rng.normal(0, 0.01, 200) + 0.5 * m_rets, token_id="X")
    y = window(rng.normal(0, 0.01, 200) - 0.2 * m_rets, token_id="Y")
    idx = MarketIndex(x.dates, m_rets)
    for a, b in [(1.0, 1.0), (0.3, 0.7), (-2.0, 5.0)]:
        combo = ReturnWindow("C", x.end_date, x.dates, a * x.returns + b * y.returns)
        lhs = asset_beta(combo, idx)
        rhs = a * asset_beta(x, idx) + b * asset_beta(y, idx)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_beta_needs_overlap_and_moving_market():
    a = window([0.01, 0.02], start_idx=1, token_id="A")
    idx = MarketIndex((day(9), day(10)), np.array([0.01, 0.02]))
    with pytest.raises(ValueError, match="aligned"):
        asset_beta(a, idx)
    flat = MarketIndex(a.dates, np.zeros(2))
    with pytest.raises(ValueError, match="variance"):
        asset_beta(a, flat)


# ---------------------------------------------------------------------------
# market forward return
# ---------------------------------------------------------------------------


def test_market_forward_return_compounds_logs():
    rets = np.full(25, 0.01)
    dates = tuple(day(1 + k) for k in range(25))
    idx = MarketIndex(dates, rets)
    got = market_forward_return(idx, day(0), days=20)
    assert got == pytest.approx(math.exp(0.2) - 1.0, rel=1e-12)


def test_market_forward_return_missing_day_raises():
    idx = MarketIndex((day(1), day(3)), np.array([0.01, 0.01]))
    with pytest.raises(ValueError, match="missing"):
        market_forward_return(idx, day(0), days=2)
