"""Price-series handling and moment-estimation tests.

The shrinkage oracle below is a deliberately naive loop implementation of
the published constant-correlation intensity formula, kept independent of
the vectorized production code. The window oracle keys every return by its
day and lines windows up by intersecting their days, so it checks the
suffix arithmetic that the production code uses instead.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfrontier import marketdata
from chainfrontier.marketdata import (
    ReturnWindow,
    asset_beta,
    estimate_moments,
    log_returns,
    market_forward_return,
    market_index,
)
from chainfrontier.prices import ONE_DAY, PriceSeries, forward_fill

D0 = dt.date(2023, 1, 1)


def day(i: int) -> dt.date:
    return D0 + dt.timedelta(days=i)


def series(closes, token_id="X", start=D0) -> PriceSeries:
    return PriceSeries(token_id, start, tuple(closes))


def window(returns, start_idx=1, token_id="X") -> ReturnWindow:
    """The returns of the days from ``day(start_idx)`` on."""
    returns = np.asarray(returns, dtype=float)
    return ReturnWindow(token_id, day(start_idx + len(returns) - 1), returns)


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
    assert w.end_date == day(10)


def test_log_returns_doubling_price():
    s = series([1.0, 2.0, 4.0])
    w = log_returns(s, day(2), window=2)
    assert np.allclose(w.returns, [math.log(2.0)] * 2)


def test_log_returns_rejects_interior_gap():
    # day 1 lacks a close after day 0 had one, so the window's days are unknown
    s = series([1.0, None, 4.0, 8.0])
    with pytest.raises(ValueError, match=f"no close on {day(1)}"):
        log_returns(s, day(3), window=3)
    # a gap before the closes the window reads does not matter
    w = log_returns(s, day(3), window=1)
    assert np.allclose(w.returns, [math.log(2.0)])


def test_log_returns_rejects_end_past_series():
    with pytest.raises(ValueError, match="end before"):
        log_returns(series([1.0, 2.0, 4.0]), day(3), window=2)


def test_log_returns_leading_gap_shortens_window():
    s = series([None, None, 1.0, 2.0, 4.0])
    w = log_returns(s, day(4), window=4)
    # the returns of days 3 and 4
    assert len(w) == 2
    assert np.allclose(w.returns, [math.log(2.0)] * 2)


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
    early = window(rng.normal(0, 0.01, 50), start_idx=1, token_id="C")
    with pytest.raises(ValueError, match="not aligned"):
        estimate_moments([full, early], min_obs=45)


# ---------------------------------------------------------------------------
# market index and beta
# ---------------------------------------------------------------------------


def test_market_index_daily_mean():
    weth = window([0.02, 0.01], token_id="WETH")
    wbtc = window([0.04, 0.03], token_id="WBTC")
    idx = market_index(weth, wbtc)
    assert np.allclose(idx.returns, [0.03, 0.02])
    assert idx.end_date == weth.end_date
    # a shorter window shares only its own days
    short = window([0.05], start_idx=2, token_id="WBTC")
    assert np.allclose(market_index(weth, short).returns, [0.03])


def test_market_index_misaligned_raises():
    weth = window([0.02, 0.01], start_idx=1, token_id="WETH")
    wbtc = window([0.04, 0.03], start_idx=2, token_id="WBTC")
    with pytest.raises(ValueError, match="not aligned"):
        market_index(weth, wbtc)


def test_beta_of_market_itself_is_one():
    rng = np.random.default_rng(10)
    rets = rng.normal(0, 0.02, 100)
    w = window(rets, token_id="M")
    assert asset_beta(w, w) == pytest.approx(1.0, abs=1e-12)


def test_beta_independent_series_near_zero():
    rng = np.random.default_rng(99)
    a = window(rng.normal(0, 0.02, 10_000), token_id="A")
    idx = window(rng.normal(0, 0.02, 10_000), token_id="market")
    assert abs(asset_beta(a, idx)) < 0.05


def test_beta_linearity():
    rng = np.random.default_rng(4)
    m_rets = rng.normal(0, 0.02, 200)
    x = window(rng.normal(0, 0.01, 200) + 0.5 * m_rets, token_id="X")
    y = window(rng.normal(0, 0.01, 200) - 0.2 * m_rets, token_id="Y")
    idx = window(m_rets, token_id="market")
    for a, b in [(1.0, 1.0), (0.3, 0.7), (-2.0, 5.0)]:
        combo = ReturnWindow("C", x.end_date, a * x.returns + b * y.returns)
        lhs = asset_beta(combo, idx)
        rhs = a * asset_beta(x, idx) + b * asset_beta(y, idx)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_beta_needs_overlap_and_moving_market():
    a = window([0.01, 0.02], start_idx=1, token_id="A")
    idx = window([0.01, 0.02], start_idx=9, token_id="market")
    with pytest.raises(ValueError, match="not aligned"):
        asset_beta(a, idx)
    one_day = window([0.03], start_idx=2, token_id="market")
    with pytest.raises(ValueError, match="fewer than 2 aligned"):
        asset_beta(a, one_day)
    flat = window(np.zeros(2), start_idx=1, token_id="market")
    with pytest.raises(ValueError, match="variance"):
        asset_beta(a, flat)


# ---------------------------------------------------------------------------
# market forward return
# ---------------------------------------------------------------------------


def test_market_forward_return_compounds_logs():
    idx = window(np.full(25, 0.01), start_idx=1, token_id="market")
    got = market_forward_return(idx, day(0), days=20)
    assert got == pytest.approx(math.exp(0.2) - 1.0, rel=1e-12)


def test_market_forward_return_missing_day_raises():
    # the index covers days 1 and 2
    idx = window([0.01, 0.01], start_idx=1, token_id="market")
    assert market_forward_return(idx, day(0), days=2) == pytest.approx(math.expm1(0.02))
    with pytest.raises(ValueError, match="missing"):
        market_forward_return(idx, day(0), days=3)
    with pytest.raises(ValueError, match="missing"):
        market_forward_return(idx, day(-1), days=2)


# ---------------------------------------------------------------------------
# suffix alignment vs a date-keyed reference
# ---------------------------------------------------------------------------


def dated_returns(s: PriceSeries, end: dt.date, window: int) -> dict[dt.date, float]:
    """Each day's log-return in the window, keyed by day, where the day and
    its predecessor both have a close."""
    out: dict[dt.date, float] = {}
    d = end - (window - 1) * ONE_DAY
    for _ in range(window):
        cur, prev = s.close_on(d), s.close_on(d - ONE_DAY)
        if cur is not None and prev is not None:
            out[d] = float(np.log(cur / prev))
        d += ONE_DAY
    return out


def aligned(*windows: dict[dt.date, float]) -> list[np.ndarray]:
    """Each window's returns on the days all of them share, in day order."""
    days = sorted(set.intersection(*(set(w) for w in windows)))
    return [np.array([w[d] for d in days]) for w in windows]


def reference_moments(windows, shrink_lambda, min_obs):
    """(raw means, shrunk means, covariance, n_obs) by date intersection."""
    kept = [w for w in windows if len(w) >= min_obs]
    if not kept:
        raise ValueError("no eligible assets")
    raw = np.array([float(np.mean(np.asarray(list(w.values())))) for w in kept])
    cross = float(np.mean(raw))
    shrunk = shrink_lambda * cross + (1.0 - shrink_lambda) * raw
    cols = aligned(*kept)
    if len(cols[0]) < 2:
        raise ValueError("fewer than 2 shared return dates")
    cov, _ = marketdata._shrink_constant_correlation(np.column_stack(cols))
    return raw, shrunk, cov, len(cols[0])


def reference_beta(asset, market) -> float:
    a, m = aligned(asset, market)
    if len(a) < 2 or float(np.var(m)) <= 0:
        raise ValueError("no beta")
    return float(np.mean((a - a.mean()) * (m - m.mean()))) / float(np.var(m))


def reference_forward(market, start: dt.date, days: int) -> float:
    total = 0.0
    for k in range(1, days + 1):
        total += market[start + k * ONE_DAY]  # KeyError on a missing day
    return float(np.expm1(total))


def outcome(fn, *args):
    """fn's value, or the marker that it raised."""
    try:
        return fn(*args)
    except (ValueError, KeyError):
        return "raised"


CALENDAR = 60


@st.composite
def listed_series(draw, token_id: str, listed: int):
    """A series listed on day ``listed`` whose random gaps are forward
    filled, as the stages load prices, through the calendar's last day."""
    closes = draw(
        st.lists(
            st.one_of(st.none(), st.floats(0.5, 2.0)),
            min_size=CALENDAR - listed,
            max_size=CALENDAR - listed,
        )
    )
    closes[0] = draw(st.floats(0.5, 2.0))
    raw = PriceSeries(token_id, day(listed), tuple(closes))
    return forward_fill(raw, through=day(CALENDAR - 1))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_windows_match_date_keyed_reference(data):
    listing_days = st.integers(0, CALENDAR - 15)
    n = data.draw(st.integers(1, 4), label="n")
    assets = [
        data.draw(listed_series(f"T{k}", data.draw(listing_days)), label=f"T{k}")
        for k in range(n)
    ]
    # the benchmark assets list on days of their own, and the index covers
    # the days both have
    weth = data.draw(listed_series("WETH", data.draw(listing_days)), label="WETH")
    wbtc = data.draw(listed_series("WBTC", data.draw(listing_days)), label="WBTC")
    end = day(data.draw(st.integers(20, CALENDAR - 1), label="end"))
    width = data.draw(st.integers(1, 40), label="window")
    shrink = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="shrink")
    min_obs = data.draw(st.integers(1, width), label="min_obs")

    got = outcome(
        estimate_moments,
        [log_returns(s, end, width) for s in assets],
        shrink,
        min_obs,
    )
    want = outcome(
        reference_moments,
        [dated_returns(s, end, width) for s in assets],
        shrink,
        min_obs,
    )
    if want == "raised":
        assert got == "raised"
    else:
        raw, shrunk, cov, n_obs = want
        assert np.array_equal(got.raw_means, raw)
        assert np.array_equal(got.shrunk_means, shrunk)
        assert np.array_equal(got.cov, cov)
        assert got.n_obs == n_obs

    market = market_index(log_returns(weth, end, width), log_returns(wbtc, end, width))
    ref_w, ref_b = dated_returns(weth, end, width), dated_returns(wbtc, end, width)
    ref_market = {d: (r + ref_b[d]) / 2.0 for d, r in ref_w.items() if d in ref_b}
    assert np.array_equal(market.returns, np.array(list(ref_market.values())))
    for s in assets:
        assert outcome(asset_beta, log_returns(s, end, width), market) == outcome(
            reference_beta, dated_returns(s, end, width), ref_market
        )

    # spans that end up to two days before the index's last day or one day
    # past it, some of them starting before its first day
    days = data.draw(st.integers(1, width + 1), label="days")
    start = end - (days + data.draw(st.integers(-1, 2), label="shift")) * ONE_DAY
    assert outcome(market_forward_return, market, start, days) == outcome(
        reference_forward, ref_market, start, days
    )
