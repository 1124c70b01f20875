"""Tests for the portfolio-size decay fit."""

import numpy as np
import pytest

from chainfrontier.decayfit import (
    SizeBin,
    bin_by_size,
    fit_power_decay,
    weighted_sse,
)
from chainfrontier.errors import UnidentifiableFitError


def curve(n, delta_inf, psi, gamma):
    n = np.asarray(n, dtype=float)
    return delta_inf * (1.0 - psi * n ** (-gamma))


def synthetic_bins(delta_inf=80.0, psi=1.5, gamma=1.0, count=100, ns=range(2, 51)):
    return tuple(
        SizeBin(n=n, mean_d=float(curve(n, delta_inf, psi, gamma)), count=count)
        for n in ns
    )


# ---------------------------------------------------------------------------
# binning


def test_bin_by_size_single_bin():
    records = [(2, 0.0)] * 100
    bins = bin_by_size(records)
    assert bins == (SizeBin(n=2, mean_d=0.0, count=100),)


def test_bin_by_size_mean_is_in_percent():
    records = [(3, 0.1)] * 15 + [(3, 0.3)] * 15
    (b,) = bin_by_size(records)
    assert b.mean_d == pytest.approx(20.0)
    assert b.count == 30


def test_bin_by_size_drops_thin_bins():
    records = [(2, 0.2)] * 30 + [(3, 0.2)] * 29
    bins = bin_by_size(records)
    assert [b.n for b in bins] == [2]


def test_bin_by_size_enforces_range():
    records = [(1, 0.2)] * 40 + [(51, 0.2)] * 40 + [(50, 0.2)] * 40
    bins = bin_by_size(records)
    assert [b.n for b in bins] == [50]


def test_bin_by_size_no_qualifying_bins():
    with pytest.raises(ValueError, match="minimum observation count"):
        bin_by_size([(2, 0.1)] * 29)


def test_bin_by_size_rejects_out_of_range_distance():
    with pytest.raises(ValueError, match="outside"):
        bin_by_size([(2, 1.5)] * 30)


def test_bin_by_size_orders_bins():
    records = [(5, 0.3)] * 30 + [(2, 0.1)] * 30 + [(3, 0.2)] * 30
    assert [b.n for b in bin_by_size(records)] == [2, 3, 5]


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_exact_parameters():
    fit = fit_power_decay(synthetic_bins(), strategy="max_sr")
    assert fit.converged
    assert fit.delta_inf == pytest.approx(80.0, abs=1e-6)
    assert fit.psi == pytest.approx(1.5, abs=1e-6)
    assert fit.gamma == pytest.approx(1.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.mae == pytest.approx(0.0, abs=1e-6)
    assert fit.strategy == "max_sr"
    assert fit.n_bins == 49


def test_fit_recovers_under_noise():
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bins = tuple(
            SizeBin(n=b.n, mean_d=b.mean_d + rng.normal(0.0, 0.5), count=b.count)
            for b in synthetic_bins()
        )
        fit = fit_power_decay(bins)
        ok = (
            abs(fit.delta_inf - 80.0) / 80.0 < 0.05
            and abs(fit.psi - 1.5) / 1.5 < 0.05
            and abs(fit.gamma - 1.0) < 0.05
            and fit.r_squared >= 0.99
        )
        hits += ok
    assert hits >= 4


def test_fit_rejects_constant_means():
    bins = tuple(SizeBin(n=n, mean_d=50.0, count=100) for n in range(2, 10))
    with pytest.raises(UnidentifiableFitError):
        fit_power_decay(bins)


def test_fit_needs_four_bins():
    with pytest.raises(ValueError, match="at least 4"):
        fit_power_decay(synthetic_bins(ns=range(2, 5)))


def test_fitted_curve_is_monotone_and_bounded():
    fit = fit_power_decay(synthetic_bins())
    grid = fit.predict(np.arange(2, 51, dtype=float))
    assert np.all(np.diff(grid) >= -1e-12)
    assert np.all(grid < fit.delta_inf)
    assert fit.predict(1e9) == pytest.approx(fit.delta_inf, abs=1e-5)


def test_fit_caps_asymptote_at_100():
    # means that push toward a 110% asymptote must still fit under the cap
    bins = tuple(
        SizeBin(n=n, mean_d=float(curve(n, 110.0, 1.2, 0.8)), count=50)
        for n in range(2, 51)
    )
    capped = tuple(
        SizeBin(n=b.n, mean_d=min(b.mean_d, 99.0), count=b.count) for b in bins
    )
    fit = fit_power_decay(capped)
    assert fit.delta_inf <= 100.0 + 1e-9
    assert fit.psi > 0.0
    assert fit.gamma > 0.0


def test_fit_pinned_at_the_cap_is_not_converged():
    # means still rising linearly at n = 40 ask for an asymptote above 100
    bins = tuple(SizeBin(n=n, mean_d=2.0 * n, count=50) for n in range(2, 41))
    fit = fit_power_decay(bins)
    assert fit.delta_inf == pytest.approx(100.0, abs=1e-6)
    assert not fit.converged


def test_weighted_sse_quadruple_count_doubles_weight():
    b = SizeBin(n=4, mean_d=30.0, count=25)
    b4 = SizeBin(n=4, mean_d=30.0, count=100)
    lo = weighted_sse([b], 80.0, 1.5, 1.0)
    hi = weighted_sse([b4], 80.0, 1.5, 1.0)
    assert lo > 0.0
    assert hi == pytest.approx(2.0 * lo, rel=1e-12)


def test_fit_minimises_weighted_objective():
    rng = np.random.default_rng(3)
    bins = tuple(
        SizeBin(
            n=n,
            mean_d=float(curve(n, 70.0, 1.3, 0.9)) + rng.normal(0.0, 1.0),
            count=int(rng.integers(30, 300)),
        )
        for n in range(2, 31)
    )
    fit = fit_power_decay(bins)
    best = weighted_sse(bins, fit.delta_inf, fit.psi, fit.gamma)
    for _ in range(20):
        delta = min(fit.delta_inf * rng.uniform(0.9, 1.1), 100.0)
        psi = fit.psi * rng.uniform(0.9, 1.1)
        gamma = fit.gamma * rng.uniform(0.9, 1.1)
        assert best <= weighted_sse(bins, delta, psi, gamma) + 1e-9


def test_refit_from_answer_is_stable():
    fit = fit_power_decay(synthetic_bins())
    again = fit_power_decay(
        synthetic_bins(), start=(fit.delta_inf, fit.psi, fit.gamma)
    )
    assert again.delta_inf == pytest.approx(fit.delta_inf, abs=1e-8)
    assert again.psi == pytest.approx(fit.psi, abs=1e-8)
    assert again.gamma == pytest.approx(fit.gamma, abs=1e-8)


def test_fit_rejects_bad_start():
    with pytest.raises(ValueError, match="feasible region"):
        fit_power_decay(synthetic_bins(), start=(80.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="feasible region"):
        fit_power_decay(synthetic_bins(), start=(120.0, 1.0, 1.0))
