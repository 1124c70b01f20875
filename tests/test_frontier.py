"""Frontier solver tests.

Analytic expectations are derived by hand: unconstrained two-asset
minimum-variance and tangency books have closed forms, and the equal-risk
max-return case reduces to a quadratic in one weight. The grid oracle then
cross-checks the solver on random instances without sharing any code with
it, and a test-only SciPy SLSQP reference does the same for books of five
to eight assets, beyond the oracle's reach. A book's projections share
one traced frontier; sharing must not change a single bit of any answer.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from chainfrontier import metrics
from chainfrontier.frontier import (
    DAYS_PER_YEAR,
    SOLVER_TOL,
    Frontier,
    NaiveStrategy,
    Strategy,
    grid_oracle,
    naive_weights,
    sharpe,
    solve,
)
from chainfrontier.metrics import l1_distance
from helpers import lipschitz_bound, moments


def two_asset(means, cov):
    return moments(["A", "B"], means, cov)


# ---------------------------------------------------------------------------
# sharpe conventions
# ---------------------------------------------------------------------------


def test_sharpe_degenerate_volatility():
    assert sharpe(0.01, 0.0) == math.inf
    assert sharpe(-0.01, 0.0) == -math.inf
    assert sharpe(0.0, 0.0) == 0.0
    assert sharpe(0.02, 0.1, rf_daily=0.02) == 0.0


# ---------------------------------------------------------------------------
# min-variance
# ---------------------------------------------------------------------------


def test_min_var_equal_means_reaches_global_minimum():
    # equal means leave the return anchor slack everywhere; the global
    # minimum-variance book weights inversely to variance: (0.2, 0.8)
    m = two_asset([0.01, 0.01], [[0.04, 0.0], [0.0, 0.01]])
    sol = solve(Strategy.MIN_VAR, Frontier([0.5, 0.5], m))
    assert sol.converged
    assert sol.weights == pytest.approx([0.2, 0.8], abs=1e-6)
    assert sol.sigma == pytest.approx(math.sqrt(0.2**2 * 0.04 + 0.8**2 * 0.01), abs=1e-8)


def test_min_var_two_assets_distinct_means_stays_put():
    # with two assets and distinct means the return anchor pins the single
    # fully-invested point: the observed book itself
    rng = np.random.default_rng(42)
    for _ in range(25):
        mu = rng.normal(0.001, 0.01, 2)
        while abs(mu[0] - mu[1]) < 1e-5:
            mu = rng.normal(0.001, 0.01, 2)
        a = rng.uniform(0.005, 0.05, 2)
        rho = rng.uniform(-0.9, 0.9)
        cov = np.array(
            [[a[0] ** 2, rho * a[0] * a[1]], [rho * a[0] * a[1], a[1] ** 2]]
        )
        w0 = rng.uniform(0.1, 0.9)
        w0 = np.array([w0, 1.0 - w0])
        sol = solve(Strategy.MIN_VAR, Frontier(w0, two_asset(mu, cov)))
        assert sol.converged
        assert sol.distance <= 1e-8


def test_min_var_reduces_risk_at_same_return_three_assets():
    m = moments(
        ["A", "B", "C"],
        [0.010, 0.012, 0.014],
        np.diag([0.0004, 0.0009, 0.0025]),
    )
    w0 = np.array([0.2, 0.3, 0.5])
    sol = solve(Strategy.MIN_VAR, Frontier(w0, m))
    anchor_mu = float(w0 @ m.shrunk_means)
    anchor_sigma = math.sqrt(float(w0 @ m.cov @ w0))
    assert sol.converged
    assert sol.mu >= anchor_mu - 1e-8
    assert sol.sigma <= anchor_sigma + 1e-8
    assert sol.sigma < anchor_sigma - 1e-4  # strictly better here


def test_min_var_unreachable_anchor_is_flagged():
    m = two_asset([0.02, 0.01], [[0.01, 0.0], [0.0, 0.01]])
    # observed book violates the cap and its return tops the reachable range
    sol = solve(Strategy.MIN_VAR, Frontier([0.95, 0.05], m))
    assert not sol.converged
    assert "unreachable" in sol.reason


def test_min_var_cap_violating_book_relaxes_to_inequality():
    # anchor return below the reachable range: the solver may raise the
    # return while cutting risk
    m = two_asset([0.01, 0.02], [[0.01, 0.0], [0.0, 0.01]])
    sol = solve(Strategy.MIN_VAR, Frontier([0.95, 0.05], m))
    assert sol.converged
    assert sol.mu >= float(np.dot([0.95, 0.05], m.shrunk_means)) - 1e-8
    assert np.all(sol.weights <= 0.9 + 1e-8)


# ---------------------------------------------------------------------------
# max-return
# ---------------------------------------------------------------------------


def test_max_ret_moves_along_iso_risk_ellipse():
    # variances (0.013, 0.007) put the variance vertex at t*=0.35, so the
    # iso-variance partner of t0=0.5 is t1=0.2, which earns more
    m = two_asset([0.01, 0.02], [[0.013, 0.0], [0.0, 0.007]])
    sol = solve(Strategy.MAX_RET, Frontier([0.5, 0.5], m))
    assert sol.converged
    assert sol.weights == pytest.approx([0.2, 0.8], abs=1e-6)
    assert sol.mu == pytest.approx(0.018, abs=1e-8)
    assert sol.sigma == pytest.approx(math.sqrt(0.005), abs=1e-8)


def test_max_ret_hits_cap_when_better_asset_is_safer():
    # asset B has the higher mean and the lower variance: the optimizer
    # should push B to the cap, leaving risk under budget
    m = two_asset([0.01, 0.02], [[0.04, 0.0], [0.0, 0.01]])
    w0 = np.array([0.6, 0.4])
    sol = solve(Strategy.MAX_RET, Frontier(w0, m))
    assert sol.converged
    assert sol.weights == pytest.approx([0.1, 0.9], abs=1e-6)
    assert sol.sigma <= math.sqrt(float(w0 @ m.cov @ w0)) + 1e-8


def test_max_ret_never_loses_return():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mu = rng.normal(0.001, 0.01, 3)
        A = rng.normal(0, 0.02, (3, 3))
        cov = A @ A.T
        w0 = rng.dirichlet([1.0, 1.0, 1.0])
        if w0.max() > 0.9:
            continue
        m = moments(["A", "B", "C"], mu, cov)
        sol = solve(Strategy.MAX_RET, Frontier(w0, m))
        anchor_mu = float(w0 @ mu)
        anchor_sigma = math.sqrt(float(w0 @ cov @ w0))
        assert sol.converged
        assert sol.mu >= anchor_mu - 1e-8
        assert sol.sigma <= anchor_sigma + 1e-8


def test_max_ret_infeasible_risk_budget_is_flagged():
    m = two_asset([0.01, 0.02], [[1e-6, 0.0], [0.0, 0.25]])
    sol = solve(Strategy.MAX_RET, Frontier([0.95, 0.05], m))
    assert not sol.converged
    assert "risk budget" in sol.reason


def test_max_ret_budget_below_minimum_on_cap_violating_book():
    # the observed book breaks the cap; its variance sits below the capped
    # minimum, which once made a best-effort row fail the weight checks
    m = two_asset(
        [-0.0020525992592274243, -0.002554938605083095],
        [
            [0.001261803523892537, 0.00020171526303697292],
            [0.00020171526303697292, 0.00018405945132404382],
        ],
    )
    sol = solve(Strategy.MAX_RET, Frontier([0.005635010312728259, 0.9943649896872717], m))
    assert not sol.converged
    assert sol.reason == "risk budget below the feasible minimum"


def test_max_ret_spends_its_budget():
    # a converged row either sits on the risk budget or is the max-return
    # point itself; stopping inside the budget would give up return
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        mu = rng.normal(0.001, 0.01, n)
        A = rng.normal(0, 0.02, (n, n))
        cov = A @ A.T + np.eye(n) * 1e-6
        w0 = rng.dirichlet(np.ones(n))
        if w0.max() > 0.9:
            continue
        m = moments([f"T{i}" for i in range(n)], mu, cov)
        sol = solve(Strategy.MAX_RET, Frontier(w0, m))
        assert sol.converged
        top = np.sort(mu)[::-1]
        mu_hi = 0.9 * top[0] + 0.1 * top[1]
        sigma0 = math.sqrt(float(w0 @ cov @ w0))
        assert abs(sol.sigma - sigma0) <= 1e-8 or sol.mu >= mu_hi - 1e-12


def test_max_ret_on_rank_one_covariance_returns_a_row():
    # a singular covariance can round the GMV's variance below zero, which
    # must not raise from the square root of the risk-budget check
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        F = rng.normal(0.0, 0.02, (n, 1))
        m = moments([f"T{i}" for i in range(n)], rng.normal(0.001, 0.01, n), F @ F.T)
        sol = solve(Strategy.MAX_RET, Frontier(rng.dirichlet(np.ones(n)), m))
        assert sol.weights.shape == (n,)


def test_max_return_vertex_over_budget():
    # cap 0.5 makes the max-return face the single vertex (0.5, 0.5, 0):
    # three active bounds and two equality rows on three weights
    mu = np.array([0.03, 0.02, 0.01])
    cov = np.array([[0.04, 0.03, 0.0], [0.03, 0.04, 0.0], [0.0, 0.0, 0.001]])
    m = moments(["A", "B", "C"], mu, cov)
    w0 = np.array([0.1, 0.4, 0.5])
    sigma0 = math.sqrt(float(w0 @ cov @ w0))
    sol = solve(Strategy.MAX_RET, Frontier(w0, m, w_max=0.5))
    assert sol.converged
    assert sol.sigma == pytest.approx(sigma0, abs=1e-8)
    assert float(w0 @ mu) < sol.mu < 0.025
    ora = grid_oracle(Strategy.MAX_RET, w0, m, w_max=0.5, step=0.01)
    assert sol.mu >= ora.mu - 1e-12
    # a three-asset book over the cap whose return is the vertex's, 0.025:
    # min-variance walks to the end of the line, where the vertex is the
    # only feasible point
    sol = solve(Strategy.MIN_VAR, Frontier([0.7, 0.1, 0.2], m, w_max=0.5))
    assert sol.converged
    assert sol.weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)


def test_means_tied_at_the_cap_boundary():
    # B and C tie for the last 0.1 of the max-return book, so the face is a
    # segment; max-return takes its least risky point, which favours C
    mu = np.array([0.02, 0.01, 0.01])
    cov = np.diag([0.01, 0.04, 0.0025])
    m = moments(["A", "B", "C"], mu, cov)
    w0 = np.array([0.1, 0.8, 0.1])
    sol = solve(Strategy.MAX_RET, Frontier(w0, m))
    assert sol.converged
    assert sol.mu == pytest.approx(0.019, abs=1e-12)
    assert sol.weights[0] == pytest.approx(0.9, abs=1e-9)
    assert sol.weights[2] > sol.weights[1]
    for strategy in Strategy:
        sol = solve(strategy, Frontier(w0, m))
        ora = grid_oracle(strategy, w0, m, step=0.01)
        assert sol.converged
        if strategy is Strategy.MIN_VAR:
            assert sol.sigma <= ora.sigma + 1e-12
        elif strategy is Strategy.MAX_RET:
            assert sol.mu >= ora.mu - 1e-12
        else:
            assert sharpe(sol.mu, sol.sigma) >= sharpe(ora.mu, ora.sigma) - 1e-12


# ---------------------------------------------------------------------------
# max-Sharpe
# ---------------------------------------------------------------------------


def test_max_sr_tangency_closed_form():
    # rf=0, equal variances, independent: tangency weights are mean-proportional
    m = two_asset([0.02, 0.01], [[0.01, 0.0], [0.0, 0.01]])
    sol = solve(Strategy.MAX_SR, Frontier([0.5, 0.5], m))
    assert sol.converged
    assert sol.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-6)


def test_max_sr_cap_binds():
    m = two_asset([0.04, 0.004], [[0.01, 0.0], [0.0, 0.01]])
    sol = solve(Strategy.MAX_SR, Frontier([0.5, 0.5], m))
    assert sol.converged
    assert sol.weights == pytest.approx([0.9, 0.1], abs=1e-6)


def test_max_sr_independent_of_observed_book():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu = rng.normal(0.002, 0.01, 3)
        A = rng.normal(0, 0.02, (3, 3))
        cov = A @ A.T + np.eye(3) * 1e-5
        m = moments(["A", "B", "C"], mu, cov)
        w_a = rng.dirichlet([1, 1, 1])
        w_b = rng.dirichlet([5, 2, 1])
        sol_a = solve(Strategy.MAX_SR, Frontier(w_a, m))
        sol_b = solve(Strategy.MAX_SR, Frontier(w_b, m))
        assert sol_a.converged and sol_b.converged
        assert np.max(np.abs(sol_a.weights - sol_b.weights)) <= 1e-6


def test_max_sr_beats_observed_book():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = rng.normal(0.002, 0.008, 3)
        A = rng.normal(0, 0.02, (3, 3))
        cov = A @ A.T + np.eye(3) * 1e-6
        w0 = rng.dirichlet([1, 1, 1])
        if w0.max() > 0.9:
            continue
        m = moments(["A", "B", "C"], mu, cov)
        sol = solve(Strategy.MAX_SR, Frontier(w0, m))
        assert sol.converged
        sr0 = sharpe(float(w0 @ mu), math.sqrt(float(w0 @ cov @ w0)))
        assert sharpe(sol.mu, sol.sigma) >= sr0 - 1e-8


def test_max_sr_uses_risk_free_rate():
    # a higher risk-free rate tilts the tangency book toward the riskier,
    # higher-return asset
    m = two_asset([0.004, 0.001], [[0.04, 0.0], [0.0, 0.0025]])
    low = solve(Strategy.MAX_SR, Frontier([0.5, 0.5], m), rf_annual=0.0)
    high = solve(Strategy.MAX_SR, Frontier([0.5, 0.5], m), rf_annual=0.3)
    assert low.converged and high.converged
    assert high.weights[0] > low.weights[0] + 1e-4


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_solve_validates_inputs():
    m = two_asset([0.01, 0.02], np.eye(2) * 0.01)
    with pytest.raises(ValueError, match="entries"):
        Frontier([1.0], m)
    with pytest.raises(ValueError, match="long-only"):
        Frontier([1.2, -0.2], m)
    with pytest.raises(ValueError, match="sum"):
        Frontier([0.6, 0.6], m)
    with pytest.raises(ValueError, match="support"):
        Frontier([1.0, 0.0], m)


def test_solve_cap_too_small_for_support():
    m = two_asset([0.01, 0.02], np.eye(2) * 0.01)
    sol = solve(Strategy.MIN_VAR, Frontier([0.5, 0.5], m, w_max=0.4))
    assert not sol.converged
    assert "cap" in sol.reason


# ---------------------------------------------------------------------------
# naive weights
# ---------------------------------------------------------------------------


def test_naive_equal_weights():
    w = naive_weights(NaiveStrategy.EQUAL, ["A", "B", "C"])
    assert w == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_naive_mcap_weights():
    w = naive_weights(NaiveStrategy.MCAP, ["A", "B"], {"A": 100.0, "B": 300.0})
    assert w == pytest.approx([0.25, 0.75])


def test_naive_mcap_uncapped():
    w = naive_weights(NaiveStrategy.MCAP, ["A", "B"], {"A": 99.0, "B": 1.0})
    assert w[0] == pytest.approx(0.99)  # no w_max applies to benchmarks


def test_naive_weight_errors():
    with pytest.raises(ValueError, match="empty"):
        naive_weights(NaiveStrategy.EQUAL, [])
    with pytest.raises(ValueError, match="market cap"):
        naive_weights(NaiveStrategy.MCAP, ["A"], None)
    with pytest.raises(ValueError, match="missing"):
        naive_weights(NaiveStrategy.MCAP, ["A"], {})
    with pytest.raises(ValueError, match="positive"):
        naive_weights(NaiveStrategy.MCAP, ["A"], {"A": 0.0})


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def test_grid_candidates_respect_cap():
    # step 0.5 with cap 0.9 kills both corners: only (0.5, 0.5) survives
    m = two_asset([0.01, 0.02], np.eye(2) * 0.01)
    sol = grid_oracle(Strategy.MAX_SR, [0.5, 0.5], m, step=0.5)
    assert sol.iterations == 1
    assert sol.weights == pytest.approx([0.5, 0.5])


def test_grid_oracle_min_var_equal_means():
    m = two_asset([0.01, 0.01], [[0.04, 0.0], [0.0, 0.01]])
    sol = grid_oracle(Strategy.MIN_VAR, [0.5, 0.5], m, step=0.01)
    assert sol.weights == pytest.approx([0.2, 0.8], abs=1e-12)


def test_grid_oracle_ties_break_toward_observed_book():
    # zero covariance makes every candidate's Sharpe +inf: the tie-break
    # must pick the grid point closest to the observed book
    m = two_asset([0.01, 0.02], np.zeros((2, 2)))
    sol = grid_oracle(Strategy.MAX_SR, [0.33, 0.67], m, step=0.01)
    assert sol.weights == pytest.approx([0.33, 0.67], abs=1e-12)


def test_grid_oracle_rejects_bad_inputs():
    m = moments(
        [f"T{i}" for i in range(5)],
        [0.01] * 5,
        np.eye(5) * 0.01,
    )
    with pytest.raises(ValueError, match="4 assets"):
        grid_oracle(Strategy.MIN_VAR, [0.2] * 5, m)
    m2 = two_asset([0.01, 0.02], np.eye(2) * 0.01)
    with pytest.raises(ValueError, match="step"):
        grid_oracle(Strategy.MIN_VAR, [0.5, 0.5], m2, step=0.3)


def test_solver_matches_grid_oracle():
    # spot check; the acceptance suite runs the full 200-instance sweep.
    # Max-Sharpe also runs with r_f above every mean, where no book has
    # positive excess return.
    rng = np.random.default_rng(2024)
    step = 0.01
    for _ in range(15):
        n = int(rng.integers(2, 4))
        mu = rng.normal(0.001, 0.01, n)
        A = rng.normal(0, 0.02, (n, n))
        cov = A @ A.T + np.eye(n) * 1e-6
        w0 = rng.dirichlet(np.ones(n))
        if w0.max() > 0.9:
            continue
        m = moments([f"T{i}" for i in range(n)], mu, cov)
        cases = [(s, 0.0) for s in Strategy] + [(Strategy.MAX_SR, float(mu.max()) + 0.001)]
        for strategy, rf_daily in cases:
            rf_annual = rf_daily * DAYS_PER_YEAR
            sol = solve(strategy, Frontier(w0, m), rf_annual=rf_annual)
            ora = grid_oracle(strategy, w0, m, step=step, rf_annual=rf_annual)
            assert sol.converged
            if strategy is Strategy.MIN_VAR:
                got, ref = -sol.sigma, -ora.sigma
                sigma_floor = ora.sigma
            elif strategy is Strategy.MAX_RET:
                got, ref = sol.mu, ora.mu
                sigma_floor = ora.sigma
            else:
                got = sharpe(sol.mu, sol.sigma, rf_daily)
                ref = sharpe(ora.mu, ora.sigma, rf_daily)
                sigma_floor = min(sol.sigma, ora.sigma)
            lip = lipschitz_bound(strategy, mu, cov, rf_daily, sigma_floor)
            assert got >= ref - 2.0 * step * lip, (strategy, rf_daily, got, ref)


# ---------------------------------------------------------------------------
# SLSQP reference beyond the grid oracle's four assets


def _slsqp_reference(strategy, w0, mu, cov, rf_daily, cap=0.9):
    """Best converged, feasible SLSQP answer from two starts, or None."""
    scipy_minimize = pytest.importorskip("scipy.optimize").minimize
    n = mu.size
    cons = [{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(n)}]
    anchor_mu, budget = float(w0 @ mu), float(w0 @ cov @ w0)
    if strategy is Strategy.MIN_VAR:
        cons.append({"type": "eq", "fun": lambda w: w @ mu - anchor_mu, "jac": lambda w: mu})
        f, jac = (lambda w: w @ cov @ w), (lambda w: 2.0 * cov @ w)
    elif strategy is Strategy.MAX_RET:
        cons.append(
            {"type": "ineq", "fun": lambda w: budget - w @ cov @ w, "jac": lambda w: -2.0 * cov @ w}
        )
        f, jac = (lambda w: -(w @ mu)), (lambda w: -mu)
    else:
        def f(w):
            return -(w @ mu - rf_daily) / math.sqrt(w @ cov @ w)

        def jac(w):
            sig = math.sqrt(w @ cov @ w)
            return -(mu * sig - (w @ mu - rf_daily) * (cov @ w) / sig) / sig**2

    best = None
    for start in (w0, np.full(n, 1.0 / n)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = scipy_minimize(
                f, start, jac=jac, method="SLSQP", bounds=[(0.0, cap)] * n,
                constraints=cons, options={"maxiter": 500, "ftol": 1e-14},
            )
        w = res.x
        feasible = (
            abs(w.sum() - 1.0) <= 1e-8 and w.min() >= -1e-8 and w.max() <= cap + 1e-8
        )
        if strategy is Strategy.MIN_VAR:
            feasible = feasible and w @ mu >= anchor_mu - 1e-8
        if strategy is Strategy.MAX_RET:
            feasible = feasible and math.sqrt(w @ cov @ w) <= math.sqrt(budget) + 1e-8
        if res.success and feasible and (best is None or f(w) < f(best)):
            best = w
    return best


def _factor_book(rng, n):
    """A random n-asset book with a two-factor covariance."""
    mu = rng.normal(0.001, 0.01, n)
    F = rng.normal(0.0, 0.02, (n, 2))
    cov = F @ F.T + np.diag(rng.uniform(1e-5, 1e-3, n))
    return mu, cov, moments([f"T{j}" for j in range(n)], mu, cov)


def test_solver_matches_slsqp_reference_on_larger_books():
    # wherever the reference converges, the kernel converges too, with an
    # objective no worse than 1e-7 relative
    rng = np.random.default_rng(8)
    rf_daily = 0.05 / DAYS_PER_YEAR
    checked = 0
    for i in range(16):
        n = 5 + i % 4
        mu, cov, m = _factor_book(rng, n)
        w0 = rng.dirichlet(np.ones(n))
        for strategy in Strategy:
            ref = _slsqp_reference(strategy, w0, mu, cov, rf_daily)
            if ref is None:
                continue
            checked += 1
            sol = solve(strategy, Frontier(w0, m), rf_annual=0.05)
            assert sol.converged, (i, strategy, sol.reason)
            r_mu, r_sigma = float(ref @ mu), math.sqrt(float(ref @ cov @ ref))
            if strategy is Strategy.MIN_VAR:
                got, want = -sol.sigma, -r_sigma
            elif strategy is Strategy.MAX_RET:
                got, want = sol.mu, r_mu
            else:
                got, want = sharpe(sol.mu, sol.sigma, rf_daily), sharpe(r_mu, r_sigma, rf_daily)
            assert got >= want - 1e-7 * abs(want), (i, strategy, got, want)
    assert checked >= 40


def test_min_var_below_the_gmv_return_walks_down():
    # an anchor between the lowest reachable return and the GMV's return
    # is met on the inefficient branch, as an equality
    rng = np.random.default_rng(21)
    checked = 0
    for i in range(12):
        n = 5 + i % 4
        mu, cov, m = _factor_book(rng, n)
        gmv = Frontier(np.full(n, 1.0 / n), m).gmv().x
        w0 = 0.6 * np.eye(n)[int(np.argmin(mu))] + 0.2 * gmv + 0.2 / n
        anchor = float(w0 @ mu)
        low = 0.9 * np.sort(mu)[0] + 0.1 * np.sort(mu)[1]
        assert low < anchor < float(gmv @ mu)
        sol = solve(Strategy.MIN_VAR, Frontier(w0, m))
        assert sol.converged, (i, sol.reason)
        assert abs(sol.mu - anchor) <= SOLVER_TOL
        ref = _slsqp_reference(Strategy.MIN_VAR, w0, mu, cov, 0.0)
        if ref is None:
            continue
        checked += 1
        r_sigma = math.sqrt(float(ref @ cov @ ref))
        assert sol.sigma <= r_sigma * (1.0 + 1e-7), (i, sol.sigma, r_sigma)
    assert checked >= 8


def test_projections_on_three_segments_match_grid_oracle():
    # min-variance, max-return and max-Sharpe land on the first, second and
    # last segment of this book's walk, so their iteration counts differ
    mu = np.array([0.0026, -0.0049, -0.0124, -0.013])
    cov = np.array(
        [
            [0.0035, -0.00137, -0.00074, 0.00089],
            [-0.00137, 0.00435, -0.00211, -0.00132],
            [-0.00074, -0.00211, 0.00682, -0.00019],
            [0.00089, -0.00132, -0.00019, 0.00218],
        ]
    )
    w0 = np.array([0.37, 0.07, 0.23, 0.33])
    m = moments(["A", "B", "C", "D"], mu, cov)
    book = Frontier(w0, m)
    iterations = set()
    for strategy in Strategy:
        sol = solve(strategy, book)
        ora = grid_oracle(strategy, w0, m, step=0.01)
        assert sol.converged
        iterations.add(sol.iterations)
        if strategy is Strategy.MIN_VAR:
            assert sol.sigma <= ora.sigma + 1e-12
        elif strategy is Strategy.MAX_RET:
            assert sol.mu >= ora.mu - 1e-12
        else:
            assert sharpe(sol.mu, sol.sigma) >= sharpe(ora.mu, ora.sigma) - 1e-12
    assert len(iterations) == 3


def test_shared_frontier_matches_fresh_solves_in_any_order():
    rng = np.random.default_rng(31)
    fields = ("strategy", "mu", "sigma", "distance", "converged", "iterations", "reason")
    for i in range(12):
        n = 3 + i % 6
        mu, cov, m = _factor_book(rng, n)
        w0 = rng.dirichlet(np.ones(n))
        cap = 0.9 if i % 3 else 0.5
        fresh = {
            s: solve(s, Frontier(w0, m, cap), rf_annual=0.05) for s in Strategy
        }
        for order in itertools.permutations(Strategy):
            book = Frontier(w0, m, cap)
            for strategy in order:
                sol = solve(strategy, book, rf_annual=0.05)
                ref = fresh[strategy]
                assert np.array_equal(sol.weights, ref.weights), (i, order, strategy)
                assert [getattr(sol, f) for f in fields] == [getattr(ref, f) for f in fields]


def test_observed_book_is_checked_once_per_frontier(monkeypatch):
    checked = []
    check = metrics._check_weights

    def counted(w, name, *args, **kwargs):
        checked.append(name)
        return check(w, name, *args, **kwargs)

    monkeypatch.setattr(metrics, "_check_weights", counted)
    rng = np.random.default_rng(5)
    _, _, m = _factor_book(rng, 4)
    w0 = rng.dirichlet(np.ones(4))
    book = Frontier(w0, m)
    sols = [solve(s, book, rf_annual=0.05) for s in Strategy]
    # each solution is still checked before its distance is taken
    assert checked == ["w_actual", "w_target", "w_target", "w_target"]
    monkeypatch.undo()
    for sol in sols:
        assert sol.distance == l1_distance(w0, sol.weights)
