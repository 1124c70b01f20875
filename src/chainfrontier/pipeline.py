"""Stage orchestration over a partitioned workspace.

Six stages run in dependency order: synth writes raw inputs, ingest turns
event files into per-token ledgers and a screening report, snapshot
reconstructs monthly account portfolios, optimize projects each book onto
the frontier strategies, metrics realises forward performance, and report
collapses everything into five summary tables.

Every stage writes its outputs partition by partition (per token or per
snapshot month) through atomic renames, and a manifest records a content
hash of each stage's inputs and outputs. A rerun with unchanged inputs
skips completed partitions; deleting one partition file regenerates just
that partition. Synth's event files, ingest's ledgers and the month files
of snapshot, optimize and metrics that are no longer among a stage's
partitions are deleted, so a token-count or calendar change leaves the
same files as a fresh build.

The inputs that all of a stage's partitions share (filled prices, and for
snapshot the passed tokens' ledgers) are loaded once per stage, and only
when some partition is stale: once in-process at ``workers = 1``, or once
per pool worker otherwise. Each partition is a pure function of those
loaded inputs and its own on-disk files, so the worker count changes wall
time and nothing else.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import hashlib
import logging
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import storage
from .concentration import ConcentrationRow, concentration_row
from .config import PipelineConfig
from .decayfit import bin_by_size, fit_power_decay
from .errors import DependencyError, InputError, UnidentifiableFitError
from .frontier import ConstraintSet, Frontier, Strategy, solve
from .ingest import (
    FilterReport,
    FilterStage,
    TokenLedger,
    balance_at,
    build_ledger,
    filter_tokens,
    ledger_from_entries,
    parse_events,
)
from .marketdata import (
    PriceSeries,
    ReturnWindow,
    asset_beta,
    estimate_moments,
    forward_fill,
    log_returns,
    market_forward_return,
    market_index,
)
from .metrics import PerfRecord, aggregate, capm_alpha, forward_return
from .portfolio import Snapshot, monthly_snapshots, reconstruct_snapshot
from .synth import BENCHMARK_TOKENS, SynthConfig, generate_market

log = logging.getLogger(__name__)

PIPELINE_STAGES = ("synth", "ingest", "snapshot", "optimize", "metrics", "report")

BASELINE = "baseline"
FRONTIER_STRATEGIES = (Strategy.MIN_VAR, Strategy.MAX_RET, Strategy.MAX_SR)

# config fields each stage's results depend on; changing anything else
# (worker count, report knobs vs. solver knobs, ...) must not invalidate
# the stage's completed partitions
_STAGE_FIELDS = {
    "synth": (
        "seed",
        "synth_tokens",
        "synth_accounts",
        "synth_months",
        "synth_start",
        "transfers_per_account_month",
        "synth_min_size",
        "synth_max_size",
        "validation_samples",
    ),
    "ingest": ("min_price_days", "min_volume"),
    "snapshot": ("lookback_days", "forward_days"),
    "optimize": (
        "lookback_days",
        "min_obs",
        "mean_shrink_lambda",
        "w_max",
        "rf_annual",
    ),
    "metrics": ("lookback_days", "forward_days", "market_tokens"),
    "report": (
        "dust_threshold",
        "top_k_pcts",
        "min_holders",
        "distance_bin_edges",
        "size_bin_min",
        "size_bin_max",
        "min_bin_count",
    ),
}


# ---------------------------------------------------------------------------
# workspace layout


def input_dir(ws: Path) -> Path:
    return Path(ws) / "input"


def events_dir(ws: Path) -> Path:
    return input_dir(ws) / "events"


def meta_path(ws: Path) -> Path:
    return input_dir(ws) / "meta.csv"


def prices_path(ws: Path) -> Path:
    return input_dir(ws) / "prices.csv"


def blockmap_path(ws: Path) -> Path:
    return input_dir(ws) / "blockmap.csv"


def probes_path(ws: Path) -> Path:
    return input_dir(ws) / "probes.csv"


def ledgers_dir(ws: Path) -> Path:
    return Path(ws) / "ledgers"


def filters_path(ws: Path) -> Path:
    return Path(ws) / "filters.csv"


def snapshots_dir(ws: Path) -> Path:
    return Path(ws) / "snapshots"


def solutions_dir(ws: Path) -> Path:
    return Path(ws) / "solutions"


def perf_dir(ws: Path) -> Path:
    return Path(ws) / "perf"


def report_dir(ws: Path) -> Path:
    return Path(ws) / "report"


def manifest_path(ws: Path) -> Path:
    return Path(ws) / "manifest.json"


# ---------------------------------------------------------------------------
# content hashing and the partition driver


def _files_hash(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _tree_paths(*roots: Path) -> list[Path]:
    out: list[Path] = []
    for root in roots:
        root = Path(root)
        if root.is_file():
            out.append(root)
        elif root.is_dir():
            out.extend(p for p in sorted(root.rglob("*")) if p.is_file())
    return out


def _input_hash(cfg: PipelineConfig, stage: str, *roots: Path) -> str:
    digest = hashlib.sha256()
    for name in _STAGE_FIELDS[stage]:
        digest.update(f"{name}={getattr(cfg, name)!r};".encode())
    for path in _tree_paths(*roots):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class _Task:
    """One partition: a picklable callable plus the files it writes."""

    name: str
    out_paths: tuple[Path, ...]
    fn: Callable
    args: tuple


# a pool worker's loaded stage inputs, set by its initializer; they live as
# long as the worker, and the pool ends with the stage
_worker_inputs: tuple = ()


def _load_worker(load: Callable | None) -> None:
    global _worker_inputs
    _worker_inputs = () if load is None else (load(),)


def _run_in_worker(fn: Callable, args: tuple) -> None:
    fn(*_worker_inputs, *args)


def _run_tasks(
    ws: Path,
    stage: str,
    input_hash: str,
    tasks: Sequence[_Task],
    workers: int,
    load: Callable | None = None,
) -> list[str]:
    """Run the stale partitions of one stage and update the manifest.

    A partition is fresh when the stage's input hash matches the manifest
    and every output file still matches its recorded hash. When ``load``
    is given and some partition is stale, it runs once in-process, or once
    per pool worker, and its result is passed to every partition function
    ahead of the task's own arguments. Returns the names of partitions that
    were (re)computed.
    """
    manifest = storage.read_manifest(manifest_path(ws))
    entry = manifest.get(stage, {})
    prior = entry.get("partitions", {}) if entry.get("inputs") == input_hash else {}

    recorded: dict[str, str] = {}
    todo: list[_Task] = []
    for task in tasks:
        known = prior.get(task.name)
        if (
            known is not None
            and all(p.exists() for p in task.out_paths)
            and _files_hash(task.out_paths) == known
        ):
            recorded[task.name] = known
        else:
            todo.append(task)

    if todo:
        if workers > 1 and len(todo) > 1:
            # imported here so that a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # every worker pays for one load, so start no more than have work
            with ProcessPoolExecutor(
                max_workers=min(workers, len(todo)),
                initializer=_load_worker,
                initargs=(load,),
            ) as pool:
                futures = [
                    pool.submit(_run_in_worker, task.fn, task.args) for task in todo
                ]
                for future in futures:
                    future.result()
        else:
            inputs = () if load is None else (load(),)
            for task in todo:
                task.fn(*inputs, *task.args)
        for task in todo:
            recorded[task.name] = _files_hash(task.out_paths)

    manifest[stage] = {"inputs": input_hash, "partitions": recorded}
    storage.write_manifest(manifest_path(ws), manifest)
    return [task.name for task in todo]


def _month_files(directory: Path) -> list[Path]:
    return sorted(Path(directory).glob("*.csv"))


def _drop_stale(directory: Path, tasks: Sequence[_Task]) -> None:
    """Delete the CSV files in ``directory`` that no task writes.

    Downstream stages hash whole directories and take their months from the
    files on disk, so a token or month the config no longer holds must not
    outlive the change.
    """
    current = {path for task in tasks for path in task.out_paths}
    for path in Path(directory).glob("*.csv"):
        if path not in current:
            path.unlink()


def _require(path: Path, produced_by: str) -> Path:
    if not Path(path).exists():
        raise DependencyError(
            f"missing {path}; run the {produced_by!r} stage first"
        )
    return Path(path)


# ---------------------------------------------------------------------------
# synth stage


def _synth_config(cfg: PipelineConfig) -> SynthConfig:
    return SynthConfig(
        n_tokens=cfg.synth_tokens,
        n_accounts=cfg.synth_accounts,
        n_months=cfg.synth_months,
        seed=cfg.seed,
        start=cfg.synth_start,
        transfers_per_account_month=cfg.transfers_per_account_month,
        min_portfolio_size=cfg.synth_min_size,
        max_portfolio_size=cfg.synth_max_size,
    )


def _synth_outputs(ws: Path, cfg: PipelineConfig) -> tuple[Path, ...]:
    scfg = _synth_config(cfg)
    token_ids = BENCHMARK_TOKENS + tuple(
        f"TOK{i:03d}" for i in range(2, scfg.n_tokens)
    )
    return (
        meta_path(ws),
        prices_path(ws),
        blockmap_path(ws),
        probes_path(ws),
    ) + tuple(events_dir(ws) / f"{tid}.csv" for tid in token_ids)


def _synth_all(cfg: PipelineConfig) -> None:
    ws = cfg.workspace
    market = generate_market(_synth_config(cfg))

    by_token: dict[str, list] = {tid: [] for tid in market.token_ids}
    for event in market.events:
        by_token[event.token_id].append(event)
    for tid, events in by_token.items():
        storage.write_events(events_dir(ws) / f"{tid}.csv", events)

    storage.write_meta(meta_path(ws), market.metas)
    storage.write_prices(prices_path(ws), market.prices, market.mcaps, market.volumes)
    storage.write_block_map(blockmap_path(ws), market.block_map)

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
    storage.write_probes(probes_path(ws), probes)


def stage_synth(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    task = _Task("all", _synth_outputs(ws, cfg), _synth_all, (cfg,))
    _drop_stale(events_dir(ws), [task])
    return _run_tasks(ws, "synth", _input_hash(cfg, "synth"), [task], workers=1)


# ---------------------------------------------------------------------------
# ingest stage


def _token_decimals(ws: Path) -> dict[str, int]:
    return {m.token_id: m.decimals for m in storage.read_meta(meta_path(ws))}


def _ingest_token(cfg: PipelineConfig, token_id: str, decimals: int) -> None:
    ws = cfg.workspace
    records = storage.read_rows(events_dir(ws) / f"{token_id}.csv")
    events = parse_events(records)
    if events:
        ledger = build_ledger(events, decimals)
        entries = ledger.entries
    else:
        entries = ()
    storage.write_ledger_entries(ledgers_dir(ws) / f"{token_id}.csv", entries)


def _load_ledger(ws: Path, token_id: str, decimals: int) -> TokenLedger | None:
    entries = storage.read_ledger_entries(ledgers_dir(ws) / f"{token_id}.csv")
    return ledger_from_entries(entries, decimals) if entries else None


def _probe_check(ledger: TokenLedger | None, probes) -> str:
    for _, account, block, expected in probes:
        got = balance_at(ledger, account, block) if ledger else 0
        if got != expected:
            return (
                f"account {account} at block {block}: "
                f"ledger {got} != reference {expected}"
            )
    return ""


def _ingest_filters(cfg: PipelineConfig) -> None:
    ws = cfg.workspace
    metas = storage.read_meta(meta_path(ws))
    reports = filter_tokens(
        metas, min_price_days=cfg.min_price_days, min_volume=cfg.min_volume
    )
    probes_by_token: dict[str, list] = {}
    for probe in storage.read_probes(probes_path(ws)):
        probes_by_token.setdefault(probe[0], []).append(probe)

    decimals = {m.token_id: m.decimals for m in metas}
    final: list[FilterReport] = []
    for report in reports:
        tid = report.token_id
        if report.passed and probes_by_token.get(tid):
            ledger = _load_ledger(ws, tid, decimals[tid])
            detail = _probe_check(ledger, probes_by_token[tid])
            if detail:
                report = FilterReport(
                    tid, False, FilterStage.INCONSISTENT_BALANCE, detail
                )
        final.append(report)
    storage.write_filters(filters_path(ws), final)


def stage_ingest(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    _require(meta_path(ws), "synth")
    _require(events_dir(ws), "synth")
    _require(probes_path(ws), "synth")
    decimals = _token_decimals(ws)

    input_hash = _input_hash(cfg, "ingest", input_dir(ws))
    tasks = [
        _Task(
            tid,
            (ledgers_dir(ws) / f"{tid}.csv",),
            _ingest_token,
            (cfg, tid, decimals[tid]),
        )
        for tid in sorted(decimals)
    ]
    _drop_stale(ledgers_dir(ws), tasks)
    ran = _run_tasks(ws, "ingest", input_hash, tasks, cfg.workers)

    # the screening report depends on every ledger, so it runs serially
    # after the token partitions under the same input hash
    filters_task = _Task("filters", (filters_path(ws),), _ingest_filters, (cfg,))
    ran += _run_tasks(ws, "ingest.filters", input_hash, [filters_task], workers=1)
    return ran


# ---------------------------------------------------------------------------
# snapshot stage


def _passed_tokens(ws: Path) -> list[str]:
    return [r.token_id for r in storage.read_filters(filters_path(ws)) if r.passed]


def _filled_prices(
    ws: Path, series: dict[str, PriceSeries] | None = None
) -> dict[str, PriceSeries]:
    """Every token's closes, forward-filled through the last priced day.

    ``series`` is an already parsed ``prices.csv``; it is read when absent.
    """
    if series is None:
        series = storage.read_prices(prices_path(ws))
    last = max(s.end for s in series.values())
    return {tid: forward_fill(s, through=last) for tid, s in series.items()}


def snapshot_calendar(
    cfg: PipelineConfig, series: dict[str, PriceSeries] | None = None
) -> list[Snapshot]:
    """First-of-month snapshots with a full lookback and forward window.

    ``series`` is an already parsed ``prices.csv``; it is read when absent.
    """
    ws = cfg.workspace
    if series is None:
        series = storage.read_prices(_require(prices_path(ws), "synth"))
    block_map = storage.read_block_map(_require(blockmap_path(ws), "synth"))
    first_day = min(s.start for s in series.values())
    last_day = max(s.end for s in series.values())
    start = first_day + dt.timedelta(days=cfg.lookback_days)
    end = last_day - dt.timedelta(days=cfg.forward_days)
    if end < start:
        raise InputError(
            "price history too short for the configured lookback and forward windows"
        )
    return monthly_snapshots(start, end, block_map)


@dataclasses.dataclass(frozen=True)
class _Holdings:
    """What every snapshot month reads: the passed tokens' ledgers, the
    accounts they touch and the filled prices."""

    ledgers: dict[str, TokenLedger]
    accounts: list[str]
    prices: dict[str, PriceSeries]


def _load_holdings(
    cfg: PipelineConfig, series: dict[str, PriceSeries] | None
) -> _Holdings:
    ws = cfg.workspace
    # prices first: parsing them is the larger transient, so it should not
    # overlap the ledgers
    prices = _filled_prices(ws, series)
    decimals = _token_decimals(ws)
    ledgers: dict[str, TokenLedger] = {}
    for tid in _passed_tokens(ws):
        ledger = _load_ledger(ws, tid, decimals[tid])
        if ledger is not None:
            ledgers[tid] = ledger
    accounts = sorted({a for lg in ledgers.values() for a in lg.accounts})
    return _Holdings(ledgers, accounts, prices)


def _snapshot_month(
    holdings: _Holdings, cfg: PipelineConfig, snapshot: Snapshot
) -> None:
    ws = cfg.workspace
    rows = []
    for account in holdings.accounts:
        portfolio = reconstruct_snapshot(
            holdings.ledgers, holdings.prices, account, snapshot
        )
        if portfolio is None:
            continue
        for pos in portfolio.positions:
            rows.append(
                (
                    snapshot.timestamp,
                    snapshot.block,
                    account,
                    pos.token_id,
                    pos.base_units,
                    pos.quantity,
                    pos.value,
                )
            )
    storage.write_positions(
        snapshots_dir(ws) / f"{snapshot.month}.csv", rows
    )


def stage_snapshot(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    _require(filters_path(ws), "ingest")
    _require(ledgers_dir(ws), "ingest")
    series = storage.read_prices(_require(prices_path(ws), "synth"))
    calendar = snapshot_calendar(cfg, series)
    # in-process, the load reuses the calendar's parse of prices.csv; pool
    # workers parse their own, so the forked pool inherits no copy of it
    load = functools.partial(_load_holdings, cfg, series if cfg.workers == 1 else None)
    del series
    # everything the calendar and _load_holdings read, token decimals included
    input_hash = _input_hash(
        cfg,
        "snapshot",
        ledgers_dir(ws),
        filters_path(ws),
        meta_path(ws),
        prices_path(ws),
        blockmap_path(ws),
    )
    tasks = [
        _Task(
            snap.month,
            (snapshots_dir(ws) / f"{snap.month}.csv",),
            _snapshot_month,
            (cfg, snap),
        )
        for snap in calendar
    ]
    _drop_stale(snapshots_dir(ws), tasks)
    return _run_tasks(ws, "snapshot", input_hash, tasks, cfg.workers, load)


# ---------------------------------------------------------------------------
# optimize stage


def _window_cache(
    prices: dict[str, PriceSeries], end: dt.date, window: int
) -> dict[str, ReturnWindow]:
    return {tid: log_returns(s, end, window) for tid, s in prices.items()}


def _optimize_month(
    prices: dict[str, PriceSeries], cfg: PipelineConfig, month: str
) -> None:
    ws = cfg.workspace
    positions = storage.read_positions(snapshots_dir(ws) / f"{month}.csv")
    out_path = solutions_dir(ws) / f"{month}.csv"
    if not positions:
        storage.write_solutions(out_path, [])
        return

    snapshot_day = positions[0]["snapshot_date"]
    windows = _window_cache(prices, snapshot_day, cfg.lookback_days)

    by_account: dict[str, list[dict]] = {}
    for row in positions:
        by_account.setdefault(row["account"], []).append(row)

    constraints = ConstraintSet(w_max=cfg.w_max)
    rows: list[tuple] = []
    for account in sorted(by_account):
        held = sorted(by_account[account], key=lambda r: r["token_id"])
        if len(held) < 2:
            continue
        try:
            m = estimate_moments(
                [windows[r["token_id"]] for r in held],
                shrink_lambda=cfg.mean_shrink_lambda,
                min_obs=cfg.min_obs,
            )
        except ValueError:
            continue
        values = {r["token_id"]: r["value_usd"] for r in held}
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
        book = Frontier(w0, m, constraints)
        for strategy in FRONTIER_STRATEGIES:
            sol = solve(strategy, w0, m, constraints, rf_annual=cfg.rf_annual, frontier=book)
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
    storage.write_solutions(out_path, rows)


def stage_optimize(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    months = _month_files(_require(snapshots_dir(ws), "snapshot"))
    if not months:
        raise DependencyError(
            f"no snapshot partitions in {snapshots_dir(ws)}; run the 'snapshot' stage first"
        )
    input_hash = _input_hash(cfg, "optimize", snapshots_dir(ws), prices_path(ws))
    tasks = [
        _Task(
            path.stem,
            (solutions_dir(ws) / path.name,),
            _optimize_month,
            (cfg, path.stem),
        )
        for path in months
    ]
    _drop_stale(solutions_dir(ws), tasks)
    load = functools.partial(_filled_prices, ws)
    return _run_tasks(ws, "optimize", input_hash, tasks, cfg.workers, load)


# ---------------------------------------------------------------------------
# metrics stage


def _metrics_month(
    prices: dict[str, PriceSeries], cfg: PipelineConfig, month: str
) -> None:
    ws = cfg.workspace
    solutions = storage.read_solutions(solutions_dir(ws) / f"{month}.csv")
    out_path = perf_dir(ws) / f"{month}.csv"
    if not solutions:
        storage.write_perf(out_path, [])
        return

    snapshot_day = solutions[0]["snapshot_date"]
    weth, wbtc = cfg.market_tokens
    lookback_market = market_index(
        log_returns(prices[weth], snapshot_day, cfg.lookback_days),
        log_returns(prices[wbtc], snapshot_day, cfg.lookback_days),
    )
    forward_end = snapshot_day + dt.timedelta(days=cfg.forward_days)
    forward_market = market_index(
        log_returns(prices[weth], forward_end, cfg.forward_days),
        log_returns(prices[wbtc], forward_end, cfg.forward_days),
    )
    market_fwd = market_forward_return(forward_market, snapshot_day, cfg.forward_days)

    betas: dict[str, float] = {}

    def beta_of(token_id: str) -> float:
        if token_id not in betas:
            window = log_returns(prices[token_id], snapshot_day, cfg.lookback_days)
            betas[token_id] = asset_beta(window, lookback_market)
        return betas[token_id]

    records: list[PerfRecord] = []
    for sol in solutions:
        if not sol["converged"]:
            continue
        token_ids = sorted(sol["weights"])
        w = np.array([sol["weights"][tid] for tid in token_ids])
        p0 = np.array([prices[tid].close_on(snapshot_day) for tid in token_ids])
        p1 = np.array([prices[tid].close_on(forward_end) for tid in token_ids])
        fwd = forward_return(w, p0, p1)
        beta = float(sum(wi * beta_of(tid) for wi, tid in zip(w, token_ids)))
        records.append(
            PerfRecord(
                snapshot=snapshot_day,
                account=sol["account"],
                strategy=sol["strategy"],
                fwd_return=fwd,
                beta=beta,
                alpha=capm_alpha(fwd, beta, market_fwd),
                market_fwd_return=market_fwd,
            )
        )
    storage.write_perf(out_path, records)


def stage_metrics(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    months = _month_files(_require(solutions_dir(ws), "optimize"))
    if not months:
        raise DependencyError(
            f"no solution partitions in {solutions_dir(ws)}; run the 'optimize' stage first"
        )
    input_hash = _input_hash(cfg, "metrics", solutions_dir(ws), prices_path(ws))
    tasks = [
        _Task(
            path.stem,
            (perf_dir(ws) / path.name,),
            _metrics_month,
            (cfg, path.stem),
        )
        for path in months
    ]
    _drop_stale(perf_dir(ws), tasks)
    load = functools.partial(_filled_prices, ws)
    return _run_tasks(ws, "metrics", input_hash, tasks, cfg.workers, load)


# ---------------------------------------------------------------------------
# report stage


def _distance_histogram(
    solutions: list[dict], edges: Sequence[float]
) -> list[tuple]:
    rows: list[tuple] = []
    strategies = sorted(
        {s["strategy"] for s in solutions if s["strategy"] != BASELINE}
    )
    edges_arr = np.asarray(edges, dtype=float)
    for strategy in strategies:
        distances = [
            100.0 * s["distance"]
            for s in solutions
            if s["strategy"] == strategy and s["converged"]
        ]
        counts, _ = np.histogram(distances, bins=edges_arr)
        for lo, hi, count in zip(edges_arr, edges_arr[1:], counts):
            rows.append((strategy, float(lo), float(hi), int(count)))
    return rows


def _decay_fits(cfg: PipelineConfig, solutions: list[dict]):
    fits = []
    strategies = sorted(
        {s["strategy"] for s in solutions if s["strategy"] != BASELINE}
    )
    for strategy in strategies:
        records = [
            (s["n_assets"], s["distance"])
            for s in solutions
            if s["strategy"] == strategy and s["converged"]
        ]
        try:
            bins = bin_by_size(
                records,
                n_range=(cfg.size_bin_min, cfg.size_bin_max),
                min_count=cfg.min_bin_count,
            )
            fits.append(fit_power_decay(bins, strategy=strategy))
        except (ValueError, UnidentifiableFitError) as exc:
            log.warning("decay fit skipped for %s: %s", strategy, exc)
    return fits


def _concentration_rows(cfg: PipelineConfig) -> list[ConcentrationRow]:
    ws = cfg.workspace
    rows: list[ConcentrationRow] = []
    for path in _month_files(snapshots_dir(ws)):
        positions = storage.read_positions(path)
        if not positions:
            continue
        snapshot_day = positions[0]["snapshot_date"]
        totals: dict[str, float] = {}
        token_values: dict[str, list[float]] = {}
        for pos in positions:
            totals[pos["account"]] = totals.get(pos["account"], 0.0) + pos["value_usd"]
            token_values.setdefault(pos["token_id"], []).append(pos["value_usd"])
        eco = concentration_row(
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
            row = concentration_row(
                tid,
                snapshot_day,
                values,
                k_pcts=cfg.top_k_pcts,
                dust_threshold=cfg.dust_threshold,
            )
            if row is not None:
                rows.append(row)
    return rows


def _report_all(cfg: PipelineConfig) -> None:
    ws = cfg.workspace
    solutions: list[dict] = []
    for path in _month_files(solutions_dir(ws)):
        solutions.extend(storage.read_solutions(path))
    records: list[PerfRecord] = []
    for path in _month_files(perf_dir(ws)):
        records.extend(storage.read_perf(path))

    report = aggregate(records, baseline=BASELINE)
    out = report_dir(ws)
    storage.write_summary(out / "summary.csv", report)
    storage.write_excess_curve(out / "excess_curve.csv", report)
    storage.write_csv(
        out / "distance_hist.csv",
        storage.HISTOGRAM_HEADER,
        _distance_histogram(solutions, cfg.distance_bin_edges),
    )
    storage.write_decay_table(out / "decay_fit.csv", _decay_fits(cfg, solutions))
    storage.write_concentration(out / "concentration.csv", _concentration_rows(cfg))


REPORT_FILES = (
    "summary.csv",
    "excess_curve.csv",
    "distance_hist.csv",
    "decay_fit.csv",
    "concentration.csv",
)


def stage_report(cfg: PipelineConfig) -> list[str]:
    ws = cfg.workspace
    months = _month_files(_require(perf_dir(ws), "metrics"))
    if not months:
        raise DependencyError(
            f"no performance partitions in {perf_dir(ws)}; run the 'metrics' stage first"
        )
    input_hash = _input_hash(
        cfg, "report", perf_dir(ws), solutions_dir(ws), snapshots_dir(ws)
    )
    task = _Task(
        "bundle",
        tuple(report_dir(ws) / name for name in REPORT_FILES),
        _report_all,
        (cfg,),
    )
    return _run_tasks(ws, "report", input_hash, [task], workers=1)


# ---------------------------------------------------------------------------
# validate


def validate_workspace(cfg: PipelineConfig) -> dict[str, int]:
    """Check rebuilt ledgers against ground-truth probes and conservation.

    Every probe must match ``balance_at`` exactly, and at each probed
    block the sum of all account balances must equal mints minus burns up
    to that block (recomputed from the raw event files, a separate route
    from the ledger index). Raises InputError on any violation.
    """
    ws = cfg.workspace
    _require(ledgers_dir(ws), "ingest")
    probes = storage.read_probes(_require(probes_path(ws), "synth"))
    decimals = _token_decimals(ws)

    ledgers: dict[str, TokenLedger] = {}
    mint_flows: dict[str, list[tuple[int, int]]] = {}
    failures: list[str] = []
    checked = 0
    for token_id, account, block, expected in probes:
        if token_id not in ledgers:
            ledgers[token_id] = _load_ledger(ws, token_id, decimals[token_id])
            flows: list[tuple[int, int]] = []
            for rec in storage.read_rows(events_dir(ws) / f"{token_id}.csv"):
                amount = int(rec["amount"])
                if rec["event_kind"] == "deposit":
                    flows.append((int(rec["block"]), amount))
                elif rec["event_kind"] == "withdrawal":
                    flows.append((int(rec["block"]), -amount))
            mint_flows[token_id] = sorted(flows)
        ledger = ledgers[token_id]
        got = balance_at(ledger, account, block) if ledger else 0
        if got != expected:
            failures.append(
                f"{token_id}: {account} at {block}: ledger {got} != reference {expected}"
            )
            continue
        net_minted = sum(a for b, a in mint_flows[token_id] if b <= block)
        total = (
            sum(balance_at(ledger, a, block) for a in ledger.accounts)
            if ledger
            else 0
        )
        if total != net_minted:
            failures.append(
                f"{token_id}: balances at {block} sum to {total}, mint flow {net_minted}"
            )
            continue
        checked += 1

    if failures:
        head = "; ".join(failures[:5])
        raise InputError(f"validation failed on {len(failures)} probes: {head}")
    return {"probes": checked, "tokens": len(ledgers)}


# ---------------------------------------------------------------------------
# driver


_STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "snapshot": stage_snapshot,
    "optimize": stage_optimize,
    "metrics": stage_metrics,
    "report": stage_report,
}


def run_pipeline(cfg: PipelineConfig, stages: Sequence[str] | None = None) -> dict:
    """Run the selected stages in dependency order.

    Returns a map of stage name to the partitions it recomputed (empty
    list means the stage was already up to date).
    """
    selected = list(stages) if stages is not None else list(PIPELINE_STAGES)
    unknown = [s for s in selected if s not in _STAGE_FUNCS]
    if unknown:
        raise InputError(f"unknown stages: {', '.join(unknown)}")
    ordered = [s for s in PIPELINE_STAGES if s in selected]
    ran: dict[str, list[str]] = {}
    for stage in ordered:
        ran[stage] = _STAGE_FUNCS[stage](cfg)
        log.info("stage %s: %d partitions computed", stage, len(ran[stage]))
    return ran
