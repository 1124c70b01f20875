"""The partition bodies of the stages that crunch numbers.

Synth, optimize, metrics and report are the only stages that need NumPy
and the numeric layers. ``pipeline`` imports this module only when one of
their rows has a stale partition, and does so in the parent process before
any pool forks, so pool workers inherit NumPy instead of each importing it.
A no-op run, a snapshot repair and ``validate`` never load it.

The layers are called through their modules (``frontier.solve``, not a
bare ``solve``), so a wrapper installed on a module attribute, as the
bench's tracer installs one, sees every call.
"""

from __future__ import annotations

import datetime as dt
import logging
from pathlib import Path
from typing import Sequence

import numpy as np

from . import concentration, decayfit, frontier, marketdata, metrics, storage, synth
from .config import PipelineConfig
from .errors import InputError, UnidentifiableFitError
from .pipeline import (
    BLOCKMAP,
    EVENTS,
    META,
    PERF,
    PRICES,
    PROBES,
    REPORT,
    SNAPSHOTS,
    SOLUTIONS,
)
from .prices import PriceSeries, price_rows

log = logging.getLogger(__name__)

BASELINE = "baseline"
FRONTIER_STRATEGIES = (
    frontier.Strategy.MIN_VAR,
    frontier.Strategy.MAX_RET,
    frontier.Strategy.MAX_SR,
)


# ---------------------------------------------------------------------------
# synth stage


def _synth_config(cfg: PipelineConfig) -> synth.SynthConfig:
    return synth.SynthConfig(
        n_tokens=cfg.synth_tokens,
        n_accounts=cfg.synth_accounts,
        n_months=cfg.synth_months,
        seed=cfg.seed,
        start=cfg.synth_start,
        transfers_per_account_month=cfg.transfers_per_account_month,
        min_portfolio_size=cfg.synth_min_size,
        max_portfolio_size=cfg.synth_max_size,
    )


def synth_all(cfg: PipelineConfig) -> None:
    ws = cfg.workspace
    market = synth.generate_market(_synth_config(cfg))

    by_token: dict[str, list] = {tid: [] for tid in market.token_ids}
    for event in market.events:
        by_token[event.token_id].append(event)
    for tid, events in by_token.items():
        storage.write_table(ws / EVENTS / f"{tid}.csv", storage.EVENTS, events)

    storage.write_table(ws / META, storage.META, market.metas)
    storage.write_table(
        ws / PRICES,
        storage.PRICES,
        price_rows(market.prices, market.mcaps, market.volumes),
    )
    storage.write_table(ws / BLOCKMAP, storage.BLOCKMAP, market.block_map.anchors)

    # ground-truth probes drawn from a stream independent of generation
    rng = np.random.default_rng([cfg.seed, 9041])
    tokens = [tid for tid in market.token_ids if market.holders(tid)]
    probes: list[tuple[str, str, int, int]] = []
    if tokens:
        for _ in range(cfg.validation_samples):
            tid = tokens[int(rng.integers(0, len(tokens)))]
            accounts = market.holders(tid)
            account = accounts[int(rng.integers(0, len(accounts)))]
            block = int(rng.integers(0, market.max_block + 1))
            probes.append((tid, account, block, market.oracle(tid, account, block)))
    storage.write_table(ws / PROBES, storage.PROBES, probes)


# ---------------------------------------------------------------------------
# optimize and metrics stages: one partition per upstream month file


def _window_cache(
    prices: dict[str, PriceSeries], end: dt.date, window: int
) -> dict[str, marketdata.ReturnWindow]:
    return {tid: marketdata.log_returns(s, end, window) for tid, s in prices.items()}


def optimize_month(
    prices: dict[str, PriceSeries], cfg: PipelineConfig, month: str
) -> None:
    ws = cfg.workspace
    positions = storage.read_table(ws / SNAPSHOTS / f"{month}.csv", storage.POSITIONS)
    out_path = ws / SOLUTIONS / f"{month}.csv"
    if not positions:
        storage.write_table(out_path, storage.SOLUTIONS, [])
        return

    snapshot_day = positions[0].snapshot_date
    windows = _window_cache(prices, snapshot_day, cfg.lookback_days)

    by_account: dict[str, list[storage.PositionRow]] = {}
    for row in positions:
        by_account.setdefault(row.account, []).append(row)

    rows: list[tuple] = []
    for account in sorted(by_account):
        held = sorted(by_account[account], key=lambda r: r.token_id)
        if len(held) < 2:
            continue
        try:
            m = marketdata.estimate_moments(
                [windows[r.token_id] for r in held],
                shrink_lambda=cfg.mean_shrink_lambda,
                min_obs=cfg.min_obs,
            )
        except ValueError:
            continue
        values = {r.token_id: r.value_usd for r in held}
        eligible_value = sum(values[tid] for tid in m.eligible_ids)
        if len(m.eligible_ids) < 2 or eligible_value <= 0:
            continue
        w0 = np.array([values[tid] / eligible_value for tid in m.eligible_ids])
        total_value = sum(values.values())
        n_assets = len(m.eligible_ids)

        mu0 = float(w0 @ m.shrunk_means)
        sigma0 = float(np.sqrt(w0 @ m.cov @ w0))
        rows.append(
            (
                snapshot_day,
                account,
                BASELINE,
                storage.encode_weights(m.eligible_ids, w0),
                mu0,
                sigma0,
                True,
                0,
                0.0,
                n_assets,
                total_value,
                "",
            )
        )
        # the book's projections share one GMV solve and one critical-line walk
        book = frontier.Frontier(w0, m, cfg.w_max)
        for strategy in FRONTIER_STRATEGIES:
            sol = frontier.solve(strategy, book, rf_annual=cfg.rf_annual)
            rows.append(
                (
                    snapshot_day,
                    account,
                    strategy.value,
                    storage.encode_weights(m.eligible_ids, sol.weights),
                    sol.mu,
                    sol.sigma,
                    sol.converged,
                    sol.iterations,
                    sol.distance,
                    n_assets,
                    total_value,
                    sol.reason,
                )
            )
    storage.write_table(out_path, storage.SOLUTIONS, rows)


def metrics_month(
    prices: dict[str, PriceSeries], cfg: PipelineConfig, month: str
) -> None:
    for token in cfg.market_tokens:
        if token not in prices:
            raise InputError(f"market_tokens: {token!r} has no rows in {PRICES}")
    ws = cfg.workspace
    solutions = storage.read_table(ws / SOLUTIONS / f"{month}.csv", storage.SOLUTIONS)
    out_path = ws / PERF / f"{month}.csv"
    if not solutions:
        storage.write_table(out_path, storage.PERF, [])
        return

    snapshot_day = solutions[0].snapshot_date
    weth, wbtc = cfg.market_tokens
    lookback_market = marketdata.market_index(
        marketdata.log_returns(prices[weth], snapshot_day, cfg.lookback_days),
        marketdata.log_returns(prices[wbtc], snapshot_day, cfg.lookback_days),
    )
    forward_end = snapshot_day + dt.timedelta(days=cfg.forward_days)
    forward_market = marketdata.market_index(
        marketdata.log_returns(prices[weth], forward_end, cfg.forward_days),
        marketdata.log_returns(prices[wbtc], forward_end, cfg.forward_days),
    )
    market_fwd = marketdata.market_forward_return(
        forward_market, snapshot_day, cfg.forward_days
    )

    betas: dict[str, float] = {}

    def beta_of(token_id: str) -> float:
        if token_id not in betas:
            window = marketdata.log_returns(
                prices[token_id], snapshot_day, cfg.lookback_days
            )
            betas[token_id] = marketdata.asset_beta(window, lookback_market)
        return betas[token_id]

    records: list[metrics.PerfRecord] = []
    for sol in solutions:
        if not sol.converged:
            continue
        token_ids = sorted(sol.weights)
        w = np.array([sol.weights[tid] for tid in token_ids])
        p0 = np.array([prices[tid].close_on(snapshot_day) for tid in token_ids])
        p1 = np.array([prices[tid].close_on(forward_end) for tid in token_ids])
        fwd = metrics.forward_return(w, p0, p1)
        beta = float(sum(wi * beta_of(tid) for wi, tid in zip(w, token_ids)))
        records.append(
            metrics.PerfRecord(
                snapshot=snapshot_day,
                account=sol.account,
                strategy=sol.strategy,
                fwd_return=fwd,
                beta=beta,
                alpha=metrics.capm_alpha(fwd, beta, market_fwd),
                market_fwd_return=market_fwd,
            )
        )
    storage.write_table(out_path, storage.PERF, records)


# ---------------------------------------------------------------------------
# report stage


def _month_files(directory: Path) -> list[Path]:
    return sorted(Path(directory).glob("*.csv"))


def _distance_histogram(
    solutions: list[storage.SolutionRow], edges: Sequence[float]
) -> list[tuple]:
    rows: list[tuple] = []
    strategies = sorted({s.strategy for s in solutions if s.strategy != BASELINE})
    edges_arr = np.asarray(edges, dtype=float)
    for strategy in strategies:
        distances = [
            100.0 * s.distance
            for s in solutions
            if s.strategy == strategy and s.converged
        ]
        counts, _ = np.histogram(distances, bins=edges_arr)
        for lo, hi, count in zip(edges_arr, edges_arr[1:], counts):
            rows.append((strategy, float(lo), float(hi), int(count)))
    return rows


def _decay_fits(cfg: PipelineConfig, solutions: list[storage.SolutionRow]):
    fits = []
    strategies = sorted({s.strategy for s in solutions if s.strategy != BASELINE})
    for strategy in strategies:
        records = [
            (s.n_assets, s.distance)
            for s in solutions
            if s.strategy == strategy and s.converged
        ]
        try:
            bins = decayfit.bin_by_size(
                records,
                n_range=(cfg.size_bin_min, cfg.size_bin_max),
                min_count=cfg.min_bin_count,
            )
            fits.append(decayfit.fit_power_decay(bins, strategy=strategy))
        except (ValueError, UnidentifiableFitError) as exc:
            log.warning("decay fit skipped for %s: %s", strategy, exc)
    return fits


def _concentration_rows(cfg: PipelineConfig) -> list[concentration.ConcentrationRow]:
    ws = cfg.workspace
    rows: list[concentration.ConcentrationRow] = []
    for path in _month_files(ws / SNAPSHOTS):
        positions = storage.read_table(path, storage.POSITIONS)
        if not positions:
            continue
        snapshot_day = positions[0].snapshot_date
        totals: dict[str, float] = {}
        token_values: dict[str, list[float]] = {}
        for pos in positions:
            totals[pos.account] = totals.get(pos.account, 0.0) + pos.value_usd
            token_values.setdefault(pos.token_id, []).append(pos.value_usd)
        eco = concentration.concentration_row(
            "ecosystem",
            snapshot_day,
            list(totals.values()),
            k_pcts=cfg.top_k_pcts,
            dust_threshold=cfg.dust_threshold,
        )
        if eco is not None:
            rows.append(eco)
        for tid in sorted(token_values):
            values = token_values[tid]
            holders = sum(1 for v in values if v > cfg.dust_threshold)
            if holders < cfg.min_holders:
                continue
            row = concentration.concentration_row(
                tid,
                snapshot_day,
                values,
                k_pcts=cfg.top_k_pcts,
                dust_threshold=cfg.dust_threshold,
            )
            if row is not None:
                rows.append(row)
    return rows


def report_all(cfg: PipelineConfig) -> None:
    ws = cfg.workspace
    solutions: list[storage.SolutionRow] = []
    for path in _month_files(ws / SOLUTIONS):
        solutions.extend(storage.read_table(path, storage.SOLUTIONS))
    records: list[metrics.PerfRecord] = []
    for path in _month_files(ws / PERF):
        records.extend(
            metrics.PerfRecord(*row) for row in storage.read_table(path, storage.PERF)
        )

    report = metrics.aggregate(records, baseline=BASELINE)
    out = ws / REPORT
    storage.write_table(out / "summary.csv", storage.SUMMARY, report.summaries)
    storage.write_table(
        out / "excess_curve.csv", storage.EXCESS_CURVE, report.excess_curve
    )
    storage.write_table(
        out / "distance_hist.csv",
        storage.DISTANCE_HIST,
        _distance_histogram(solutions, cfg.distance_bin_edges),
    )
    storage.write_table(
        out / "decay_fit.csv", storage.DECAY_FIT, _decay_fits(cfg, solutions)
    )
    storage.write_table(
        out / "concentration.csv", storage.CONCENTRATION, _concentration_rows(cfg)
    )
