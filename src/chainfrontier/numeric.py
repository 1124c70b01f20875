"""The partition bodies of the stages that crunch numbers.

Synth, optimize and metrics are the only stages that need NumPy and the
numeric layers. ``pipeline`` imports this module only when one of their
rows has a stale partition, and does so before it forks, so the forked
children inherit NumPy instead of each importing it.
A no-op run, a snapshot repair, ``validate`` and the report, whose bodies
live in ``pipeline``, never load it.

Optimize estimates a month's moments in one ``marketdata.estimate_books``
call, skipping the books it refuses, then builds the month's books and
walks their critical lines together in one ``frontier.walk_books`` call;
each book's three ``frontier.solve`` calls then look up its own segments.

The layers are called through their modules (``frontier.solve``, not a
bare ``solve``), so a wrapper installed on a module attribute, as the
bench's tracer installs one, sees every call.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from . import frontier, marketdata, metrics, storage
from .config import PipelineConfig
from .errors import InputError
from .pipeline import (
    BASELINE,
    BLOCKMAP,
    EVENTS,
    META,
    PERF,
    PRICES,
    PROBES,
    SNAPSHOTS,
    SOLUTIONS,
)
from .prices import PriceSeries, price_rows


# ---------------------------------------------------------------------------
# synth stage


def synth_all(cfg: PipelineConfig) -> None:
    from . import synth  # here, so optimize and metrics calls never load it

    ws = cfg.workspace
    market = synth.generate_market(cfg)

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

    held_books = [
        (account, sorted(held, key=lambda r: r.token_id))
        for account, held in sorted(by_account.items())
        if len(held) >= 2
    ]
    # one batch of moments for the month
    estimates = marketdata.estimate_books(
        [[windows[r.token_id] for r in held] for _, held in held_books],
        shrink_lambda=cfg.mean_shrink_lambda,
        min_obs=cfg.min_obs,
    )
    books: list[tuple] = []
    for (account, held), m in zip(held_books, estimates):
        if isinstance(m, ValueError):
            continue
        values = {r.token_id: r.value_usd for r in held}
        eligible_value = sum(values[tid] for tid in m.eligible_ids)
        if len(m.eligible_ids) < 2 or eligible_value <= 0:
            continue
        w0 = np.array([values[tid] / eligible_value for tid in m.eligible_ids])
        total_value = sum(values.values())
        books.append((account, m, w0, total_value, frontier.Frontier(w0, m, cfg.w_max)))

    # one lockstep walk for the month; the baseline row reads the book's own
    # moments
    frontier.walk_books([book for *_, book in books])
    rows: list[tuple] = []
    for account, m, w0, total_value, book in books:
        n_assets = len(m.eligible_ids)
        rows.append(
            (
                snapshot_day,
                account,
                BASELINE,
                storage.encode_weights(m.eligible_ids, w0),
                book.anchor_mu,
                book.anchor_sigma,
                True,
                0,
                0.0,
                n_assets,
                total_value,
                "",
            )
        )
        for strategy in frontier.Strategy:
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
    forward_end = snapshot_day + dt.timedelta(days=cfg.forward_days)
    # the market index must move over the lookback, which every beta
    # regresses on, and cover every forward day
    try:
        lookback_market = marketdata.market_index(
            marketdata.log_returns(prices[weth], snapshot_day, cfg.lookback_days),
            marketdata.log_returns(prices[wbtc], snapshot_day, cfg.lookback_days),
        )
        if len(lookback_market) < 2 or np.var(lookback_market.returns) <= 0:
            raise ValueError("it has no variance over the lookback window")
        forward_market = marketdata.market_index(
            marketdata.log_returns(prices[weth], forward_end, cfg.forward_days),
            marketdata.log_returns(prices[wbtc], forward_end, cfg.forward_days),
        )
        market_fwd = marketdata.market_forward_return(
            forward_market, snapshot_day, cfg.forward_days
        )
    except ValueError as exc:
        raise InputError(
            f"{PRICES}: month {month}: market index of {weth} and {wbtc}: {exc}"
        ) from None

    # one simple return to the forward day and one beta per token that a
    # converged row holds, zero weights included
    books = [
        (sol, storage.decode_weights(sol.weights)) for sol in solutions if sol.converged
    ]
    relative: dict[str, float] = {}
    betas: dict[str, float] = {}
    for tid in sorted(set().union(*(weights for _, weights in books))):
        series = prices[tid]
        relative[tid] = series.close_on(forward_end) / series.close_on(snapshot_day) - 1.0
        window = marketdata.log_returns(series, snapshot_day, cfg.lookback_days)
        betas[tid] = marketdata.asset_beta(window, lookback_market)

    records: list[metrics.PerfRecord] = []
    for sol, weights in books:
        token_ids = sorted(weights)
        w = np.array([weights[tid] for tid in token_ids])
        rel = np.array([relative[tid] if weights[tid] > 0 else 0.0 for tid in token_ids])
        fwd = float(np.sum(w * rel))
        beta = float(sum(wi * betas[tid] for wi, tid in zip(w, token_ids)))
        records.append(
            metrics.PerfRecord(
                snapshot_date=snapshot_day,
                account=sol.account,
                strategy=sol.strategy,
                fwd_return=fwd,
                beta=beta,
                alpha=metrics.capm_alpha(fwd, beta, market_fwd),
                market_fwd_return=market_fwd,
            )
        )
    storage.write_table(out_path, storage.PERF, records)
