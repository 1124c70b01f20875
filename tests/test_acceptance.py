"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test states its tolerance inline; the end-to-end run
uses the default configuration and a temporary workspace.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chainfrontier import storage
from chainfrontier.concentration import gini, hhi, top_share
from chainfrontier.config import PipelineConfig
from chainfrontier.decayfit import SizeBin, fit_power_decay
from chainfrontier.frontier import Frontier, Strategy, sharpe, solve
from chainfrontier.ingest import (
    ZERO_ACCOUNT,
    account_balances,
    balance_at,
    build_ledger,
)
from chainfrontier.marketdata import (
    ReturnWindow,
    asset_beta,
    market_forward_return,
    market_index,
)
from chainfrontier.metrics import capm_alpha
from chainfrontier.pipeline import run_pipeline
from chainfrontier.portfolio import Snapshot, reconstruct_snapshot
from chainfrontier.prices import PriceSeries
from helpers import REPORT_TABLES, lipschitz_bound, moments, random_stream
from oracles import grid_oracle, l1_distance, replay_balance

D = dt.date


# ---------------------------------------------------------------------------
# instance builders


def random_instance(rng, n, cap=0.9):
    """A solvable universe plus a cap-feasible observed book."""
    mu = rng.normal(0.001, 0.01, n)
    A = rng.normal(0.0, 0.02, (n, n))
    cov = A @ A.T + np.eye(n) * 1e-6
    while True:
        w0 = rng.dirichlet(np.ones(n))
        if w0.max() <= cap:
            break
    m = moments([f"T{i}" for i in range(n)], mu, cov)
    return m, mu, cov, w0


# ---------------------------------------------------------------------------
# criterion 1: the worked three-account, two-token example


def test_worked_example_balances_and_weights(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(
        "token_id,block,log_index,event_kind,from,to,amount\n"
        # token X: 500 minted to alice, then three hops
        "X,1,0,deposit,,alice,500\n"
        "X,2,0,transfer,alice,bob,100\n"
        "X,3,0,transfer,bob,carol,50\n"
        "X,5,0,transfer,alice,carol,30\n"
        # token Y: 300 minted to carol, one hop back to alice
        "Y,1,1,deposit,,carol,300\n"
        "Y,4,0,transfer,carol,alice,200\n"
    )
    events = storage.read_table(path, storage.EVENTS)
    ledgers = {
        tid: build_ledger([e for e in events if e.token_id == tid], decimals=0)
        for tid in ("X", "Y")
    }
    snap = Snapshot(D(2021, 1, 31), block=100)
    expected = {
        "alice": {"X": 370, "Y": 200},
        "bob": {"X": 50, "Y": 0},
        "carol": {"X": 80, "Y": 100},
    }
    for account, balances in expected.items():
        for tid, units in balances.items():
            assert balance_at(ledgers[tid], account, snap.block) == units

    prices = {
        "X": PriceSeries("X", snap.timestamp, (2.0,)),
        "Y": PriceSeries("Y", snap.timestamp, (1.0,)),
    }
    alice = reconstruct_snapshot(ledgers, prices, "alice", snap)
    assert alice.token_ids == ("X", "Y")
    assert alice.weights == pytest.approx([740 / 940, 200 / 940], abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 2: indexed balances vs naive replay on 10^4 transfers


def test_ledger_index_matches_naive_replay_with_conservation():
    rng = random.Random(20240207)
    tokens = {}
    raw_events = {}
    for t in range(20):
        tid = f"TK{t:02d}"
        raw_events[tid] = random_stream(rng, tid, n_events=500)
        tokens[tid] = build_ledger(raw_events[tid], decimals=6)

    token_ids = sorted(tokens)
    for _ in range(200):
        tid = rng.choice(token_ids)
        ledger = tokens[tid]
        account = rng.choice(list(ledger.accounts) + ["nobody"])
        block = rng.randint(0, raw_events[tid][-1].block + 10)

        got = balance_at(ledger, account, block)
        assert got == replay_balance(raw_events[tid], account, block)

        # conservation: live balances must equal net zero-account flow
        minted = sum(
            e.amount for e in raw_events[tid]
            if e.sender == ZERO_ACCOUNT and e.block <= block
        )
        burned = sum(
            e.amount for e in raw_events[tid]
            if e.recipient == ZERO_ACCOUNT and e.block <= block
        )
        assert sum(account_balances(ledger, block).values()) == minted - burned


# ---------------------------------------------------------------------------
# criterion 3: smooth solver vs brute-force grid on 200 instances


def test_solver_beats_grid_oracle_within_discretization_slack():
    rng = np.random.default_rng(11)
    step = 0.01
    for i in range(200):
        n = 2 + (i % 2)
        m, mu, cov, w0 = random_instance(rng, n)
        for strategy in Strategy:
            sol = solve(strategy, Frontier(w0, m))
            assert sol.converged, (i, strategy, sol.reason)
            assert float(sol.weights.sum()) == pytest.approx(1.0, abs=1e-8)
            assert sol.weights.min() >= -1e-8
            assert sol.weights.max() <= 0.9 + 1e-8

            ora = grid_oracle(strategy, w0, m, step=step)
            if strategy is Strategy.MIN_VAR:
                got, ref = -sol.sigma, -ora.sigma
                sigma_floor = ora.sigma
            elif strategy is Strategy.MAX_RET:
                got, ref = sol.mu, ora.mu
                sigma_floor = ora.sigma
            else:
                got, ref = sharpe(sol.mu, sol.sigma), sharpe(ora.mu, ora.sigma)
                sigma_floor = min(sol.sigma, ora.sigma)
            lip = lipschitz_bound(strategy, mu, cov, 0.0, sigma_floor)
            assert got >= ref - 2.0 * step * lip, (i, strategy, got, ref)


# ---------------------------------------------------------------------------
# criterion 4: two-asset books already sit on the min-variance point


def test_two_asset_books_have_zero_min_variance_distance():
    rng = np.random.default_rng(42)
    for _ in range(100):
        while True:
            mu = rng.normal(0.001, 0.01, 2)
            if abs(mu[0] - mu[1]) > 1e-4:
                break
        A = rng.normal(0.0, 0.02, (2, 2))
        cov = A @ A.T + np.eye(2) * 1e-6
        u = rng.uniform(0.1, 0.9)
        m = moments(["A", "B"], mu, cov)
        sol = solve(Strategy.MIN_VAR, Frontier([u, 1.0 - u], m))
        assert sol.converged
        assert sol.distance == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# criterion 5: the tangency projection ignores starting weights


def test_max_sharpe_is_invariant_to_starting_weights():
    rng = np.random.default_rng(7)
    for i in range(50):
        n = 2 + (i % 3)
        m, _, _, w0_a = random_instance(rng, n)
        while True:
            w0_b = rng.dirichlet(np.ones(n))
            if w0_b.max() <= 0.9:
                break
        sol_a = solve(Strategy.MAX_SR, Frontier(w0_a, m), rf_annual=0.05)
        sol_b = solve(Strategy.MAX_SR, Frontier(w0_b, m), rf_annual=0.05)
        assert sol_a.converged and sol_b.converged
        assert np.max(np.abs(sol_a.weights - sol_b.weights)) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 6: each projection dominates the observed book


def test_frontier_projections_dominate_the_observed_book():
    rng = np.random.default_rng(99)
    rf_annual = 0.05
    rf_daily = rf_annual / 365.0
    for i in range(100):
        n = 2 + (i % 4)
        m, mu, cov, w0 = random_instance(rng, n)
        mu0 = float(w0 @ mu)
        sigma0 = float(np.sqrt(w0 @ cov @ w0))

        sol = solve(Strategy.MIN_VAR, Frontier(w0, m))
        assert sol.converged
        assert sol.sigma <= sigma0 + 1e-8

        sol = solve(Strategy.MAX_RET, Frontier(w0, m))
        assert sol.converged
        assert sol.mu >= mu0 - 1e-8

        sol = solve(Strategy.MAX_SR, Frontier(w0, m), rf_annual=rf_annual)
        assert sol.converged
        assert sharpe(sol.mu, sol.sigma, rf_daily) >= (
            sharpe(mu0, sigma0, rf_daily) - 1e-8
        )


# ---------------------------------------------------------------------------
# criterion 7: turnover distance identities


def test_l1_distance_identities_and_bounds():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        d = l1_distance(a, b)
        min_form = 1.0 - float(np.minimum(a, b).sum())
        assert abs(d - min_form) <= 1e-12
        assert 0.0 <= d <= 1.0
    assert l1_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    # dyadic weights are exact in binary, so disjoint books give exactly 1
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m_ = int(rng.integers(1, 5))
        a = np.concatenate([_dyadic(rng, n), np.zeros(m_)])
        b = np.concatenate([np.zeros(n), _dyadic(rng, m_)])
        assert l1_distance(a, b) == 1.0


def _dyadic(rng, n):
    """A weight vector of multiples of 2^-16 summing to exactly 1.0."""
    cuts = np.sort(rng.integers(0, 2**16 + 1, n - 1)) if n > 1 else np.array([], int)
    parts = np.diff(np.concatenate([[0], cuts, [2**16]]))
    return parts.astype(float) / 2.0**16


# ---------------------------------------------------------------------------
# criterion 8: alpha and beta identities


def test_capm_identities():
    rng = np.random.default_rng(5)
    start = D(2021, 3, 1)
    days = 40
    grid = [start + dt.timedelta(days=k) for k in range(days)]

    def series(tid):
        closes = tuple(float(p) for p in 100.0 * np.exp(
            np.cumsum(rng.normal(0.0005, 0.02, days))
        ))
        return PriceSeries(tid, start, closes)

    from chainfrontier.marketdata import log_returns

    end = grid[-1]
    weth = log_returns(series("WETH"), end, window=30)
    wbtc = log_returns(series("WBTC"), end, window=30)
    market = market_index(weth, wbtc)

    # the market held as a portfolio has beta 1 and alpha exactly 0
    beta_m = asset_beta(market, market)
    r_m = market_forward_return(market, end - dt.timedelta(days=20), 20)
    assert abs(capm_alpha(r_m, beta_m, r_m)) <= 1e-12

    # beta is linear in portfolio weights
    assets = [log_returns(series(f"A{k}"), end, window=30) for k in range(3)]
    betas = np.array([asset_beta(a, market) for a in assets])
    for _ in range(20):
        w = rng.dirichlet(np.ones(3))
        blended = ReturnWindow(
            "PORT", end, sum(wi * a.returns for wi, a in zip(w, assets))
        )
        assert abs(asset_beta(blended, market) - float(w @ betas)) <= 1e-10

    # hand-checked example, exact at double precision
    assert abs(capm_alpha(0.05, 1.2, 0.03) - 0.014) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 9: power-decay parameter recovery


def _decay_bins(delta_inf, psi, gamma, noise, rng):
    bins = []
    for n in range(2, 51):
        mean = delta_inf * (1.0 - psi * n ** -gamma)
        if noise:
            mean += rng.normal(0.0, noise)
        bins.append(SizeBin(n=n, mean_d=mean, count=400))
    return bins


def test_power_decay_parameter_recovery():
    truth = (80.0, 1.5, 1.0)
    fit = fit_power_decay(_decay_bins(*truth, noise=0.0, rng=None))
    assert fit.converged
    for got, want in zip((fit.delta_inf, fit.psi, fit.gamma), truth):
        assert got == pytest.approx(want, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fit = fit_power_decay(_decay_bins(*truth, noise=0.5, rng=rng))
        ok = fit.converged and fit.r_squared >= 0.99
        for got, want in zip((fit.delta_inf, fit.psi, fit.gamma), truth):
            ok = ok and abs(got - want) <= 0.05 * abs(want)
        hits += ok
    assert hits >= 95, f"only {hits}/100 noisy fits recovered the parameters"


# ---------------------------------------------------------------------------
# criterion 10: concentration metrics vs oracles


def _gini_by_mean_abs_difference(values):
    v = np.asarray(values, dtype=float)
    diffs = np.abs(v[:, None] - v[None, :])
    return float(diffs.sum() / (2.0 * v.size * v.size * v.mean()))


def test_concentration_metrics_against_oracles():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        values = rng.lognormal(3.0, 1.5, n)
        assert abs(gini(values) - _gini_by_mean_abs_difference(values)) <= 1e-10

    for n in (1, 2, 7, 100):
        assert hhi([5.0] * n) == pytest.approx(1.0 / n, abs=1e-12)

    # scale invariance (the dust cutoff scales along with the values)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        values = rng.lognormal(3.0, 1.0, n)
        c = float(rng.uniform(0.1, 1000.0))
        assert gini(values * c) == pytest.approx(gini(values), abs=1e-12)
        assert hhi(values * c) == pytest.approx(hhi(values), abs=1e-12)
        assert top_share(values * c, 10.0, dust_threshold=0.0) == pytest.approx(
            top_share(values, 10.0, dust_threshold=0.0), abs=1e-12
        )


# ---------------------------------------------------------------------------
# criterion 11: full synthetic run, report health, worker independence


def test_end_to_end_run_reports_and_worker_byte_identity(tmp_path):
    cfg = PipelineConfig(workspace=tmp_path / "ws")
    t0 = time.monotonic()
    run_pipeline(cfg)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"single-threaded run took {elapsed:.0f}s"

    ws = cfg.workspace
    for name, table in REPORT_TABLES.items():
        rows = storage.read_table(ws / "report" / name, table)
        assert rows, f"{name} is empty"
        for row in rows:
            for key, cell in zip(table.header, row):
                if key in ("strategy", "scope", "snapshot_date", "top_shares"):
                    continue
                if cell is None or isinstance(cell, bool):
                    continue
                assert math.isfinite(float(cell)), (name, key, cell)

    # small books hug the frontier: mean distance at N=2 must sit strictly
    # below the mean at N>=5 for every strategy
    sums = {}
    for path in sorted((ws / "solutions").glob("*.csv")):
        for sol in storage.read_table(path, storage.SOLUTIONS):
            if sol.strategy == "baseline" or not sol.converged:
                continue
            key = (sol.strategy, "small" if sol.n_assets == 2 else
                   "large" if sol.n_assets >= 5 else None)
            if key[1] is None:
                continue
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + sol.distance, count + 1)
    for strategy in ("min_var", "max_ret", "max_sr"):
        s_total, s_count = sums[(strategy, "small")]
        l_total, l_count = sums[(strategy, "large")]
        assert s_count > 0 and l_count > 0
        assert s_total / s_count < l_total / l_count, strategy

    # a fresh run with 8 workers must reproduce every byte
    cfg8 = dataclasses.replace(cfg, workspace=tmp_path / "ws8", workers=8)
    run_pipeline(cfg8)
    files1 = {p.relative_to(ws): p for p in sorted(ws.rglob("*")) if p.is_file()}
    files8 = {
        p.relative_to(cfg8.workspace): p
        for p in sorted(cfg8.workspace.rglob("*"))
        if p.is_file()
    }
    assert files1.keys() == files8.keys()
    for rel, path in files1.items():
        assert path.read_bytes() == files8[rel].read_bytes(), rel


# ---------------------------------------------------------------------------
# criterion 12: tangency weights barely move with the risk-free rate


def test_max_sharpe_insensitive_to_risk_free_rate():
    rng = np.random.default_rng(77)
    default_rf = PipelineConfig().rf_annual
    for _ in range(50):
        s = float(rng.uniform(0.01, 0.05))
        rho = float(rng.uniform(0.0, 0.5))
        cov = s * s * np.array([[1.0, rho], [rho, 1.0]])
        mu = rng.uniform(0.0015, 0.003, 2)
        m = moments(["A", "B"], mu, cov)
        w0 = np.array([0.5, 0.5])
        sol_zero = solve(Strategy.MAX_SR, Frontier(w0, m), rf_annual=0.0)
        sol_default = solve(Strategy.MAX_SR, Frontier(w0, m), rf_annual=default_rf)
        assert sol_zero.converged and sol_default.converged
        assert l1_distance(sol_zero.weights, sol_default.weights) < 0.05


# ---------------------------------------------------------------------------
# criterion 13: the README's library example prints what the README shows


def test_readme_library_example_prints_its_output_block():
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    section = readme[readme.index("## Library usage") :]
    blocks = re.search(r"```python\n(.*?)```\n+```\n(.*?)```", section, re.S)
    code, shown = blocks.groups()
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == shown
