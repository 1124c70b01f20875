"""Stage orchestration over a partitioned workspace.

Six stages run in dependency order: synth writes raw inputs, ingest
screens the tokens, checks each passed token's ledger against the
ground-truth probes and records the first and last priced day, from which
snapshot lists its months, snapshot reconstructs monthly account portfolios,
optimize projects each book onto the frontier strategies, metrics realises
forward performance, and report collapses everything into five summary
tables. A token's ledger is never written: whoever reads it builds it from
the token's event file.

One table, ``STAGES``, wires them, one row per stage. Each row names the
config keys its results depend on, the workspace files or directories all
of its partitions read, the globs of the files it writes, and a plan that
lists its partitions (one, one per snapshot month, or one per group of
report tables), each with its own reads, writes, arguments and config
keys, plus an optional once-per-stage load. Everything the cache does
follows from the rows:

- a partition's input hash covers the row's config keys, the shared reads,
  and its own config keys, reads and arguments, so an edit reaches exactly
  the partitions that read it;
- a partition is recomputed when its input hash or the hash of its output
  files differs from ``manifest.json``, which records both per partition;
- a file matching a row's write globs that no partition writes any more
  (a token or month the config dropped) is deleted, so such a rerun leaves
  the same workspace as a fresh build;
- a missing read names the stage whose row writes it.

Each file is read for hashing at most once per run, and a partition's
writes replace the digests of what it rewrote. ``manifest.json`` is read
once per run and rewritten only after a row whose entry changed.

This module, and the ingest, snapshot and report bodies in it, are plain
Python. The bodies of synth, optimize and metrics live in ``numeric``,
which loads NumPy; it is imported only when one of their rows has a stale
partition, and then in this process before it forks, so forked
children inherit it. The report has three partitions, one per input
family: ``performance`` reads the perf months and imports ``metrics``,
``distance`` reads the solution months and fits the decay curves in plain
Python, and ``concentration`` reads the snapshot months and imports
``concentration``; the two imports load NumPy. A no-op run, a repair that
stops at snapshot, ``validate`` and an edit of a distance key
(``distance_bin_edges``, ``size_bin_min``, ``size_bin_max``,
``min_bin_count``) therefore never import NumPy.

The load runs only when some partition is stale, once and in this
process. A row with a load and more than one stale partition shares them
between this process and up to ``workers - 1`` forked children, which
inherit the loaded inputs (see ``_run_tasks``); the report's partitions
run in this process whatever the worker count. The
prices and the event files behind the ledgers are parsed at most once per
run: the run keeps the series and the ledgers in a table keyed by file and
content digest until the last selected row that declares the file has
run. No plan parses a raw input, so a no-op run parses only the price span
and the block map, for the snapshot calendar. Each partition is a pure
function of the loaded inputs and its own files, so the worker count
changes wall time and nothing else.
"""

from __future__ import annotations

import bisect
import dataclasses
import datetime as dt
import fnmatch
import functools
import hashlib
import logging
import os
import posixpath
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from . import storage
from .config import PipelineConfig, synth_token_ids
from .errors import DependencyError, InputError, LedgerOrderError
from .ingest import (
    ZERO_ACCOUNT,
    FilterReport,
    FilterStage,
    TokenLedger,
    TransferEvent,
    account_balances,
    balance_at,
    build_ledger,
    filter_tokens,
)
from .portfolio import BlockTimeMap, Snapshot, monthly_snapshots, reconstruct_snapshot
from .prices import PriceSeries, price_series

log = logging.getLogger(__name__)

T = TypeVar("T")

# workspace layout, relative to the workspace root
EVENTS = "input/events"
META = "input/meta.csv"
PRICES = "input/prices.csv"
BLOCKMAP = "input/blockmap.csv"
PROBES = "input/probes.csv"
FILTERS = "filters.csv"
PRICE_SPAN = "price_span.csv"
SNAPSHOTS = "snapshots"
SOLUTIONS = "solutions"
PERF = "perf"
REPORT = "report"
MANIFEST = "manifest.json"

# the strategy of a solution row that holds the observed book
BASELINE = "baseline"


# ---------------------------------------------------------------------------
# the stage table's row types


@dataclasses.dataclass(frozen=True)
class Part:
    """One partition: the files it alone reads and writes (relative to the
    workspace), the arguments its stage's body takes after ``cfg``, and the
    config fields that its results alone depend on, beyond its row's."""

    name: str
    writes: tuple[str, ...]
    reads: tuple[str, ...] = ()
    args: tuple = ()
    keys: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    ``keys`` are the config fields the results depend on; changing any
    other field (worker count, another stage's knobs) must not invalidate
    the row's partitions. ``shared`` are the files or directories every
    partition reads; they are hashed once per run of the row. ``index`` is
    what ``plan`` reads beyond ``shared`` to list the partitions; it is
    not hashed, since each partition's own reads and arguments carry what
    it takes from there. ``writes`` are globs of every file the row
    writes. ``plan(cfg)`` returns the partitions and an optional load,
    whose result goes to every call of ``body`` ahead of ``cfg`` and the
    partition's arguments. A file that a load parsed stays parsed until
    the last selected row that declares it in ``shared`` or ``index`` has
    run. A stage that crunches numbers names its body in
    ``numeric`` instead; see ``_body``. A partition's own ``keys`` add to
    the row's, so a key that only one partition reads (a report table's
    knob) invalidates that partition alone. Rows run in table order.
    """

    name: str
    keys: tuple[str, ...]
    shared: tuple[str, ...]
    index: tuple[str, ...]
    writes: tuple[str, ...]
    plan: Callable[[PipelineConfig], tuple[list[Part], Callable | None]]
    body: Callable | str


# ---------------------------------------------------------------------------
# content hashing and the partition driver


def _file_digest(path: Path, digests: dict[Path, str]) -> str:
    """The content hash of one file; ``digests`` holds the run's file
    digests, so each file is read once."""
    if path not in digests:
        digests[path] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests[path]


def _digest(ws: Path, rels: Sequence[str], digests: dict[Path, str]) -> str:
    """Hash of the relative paths and contents of every file under ``rels``."""
    out = hashlib.sha256()
    for rel in rels:
        root = ws / rel
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for path in files:
            digest = _file_digest(path, digests)
            out.update(f"{path.relative_to(ws).as_posix()}={digest};".encode())
    return out.hexdigest()


class _Parsed:
    """The shared inputs parsed in one run, keyed by file and content digest.

    The digest is the one the run records for hashing, so a key costs no
    extra read of the file, and a file that an earlier row of the run
    rewrote misses rather than returning its old contents.
    """

    def __init__(self, digests: dict[Path, str]) -> None:
        self.digests = digests
        self.entries: dict[tuple[Path, str], object] = {}

    def get(self, path: Path, parse: Callable[[Path], T]) -> T:
        key = (path, _file_digest(path, self.digests))
        if key not in self.entries:
            self.entries[key] = parse(path)
        return self.entries[key]

    def keep_under(self, ws: Path, rels: set[str]) -> None:
        """Drop every entry whose file lies under none of ``rels``."""
        keep = {ws / rel for rel in rels}
        for key in list(self.entries):
            if not keep.intersection((key[0], *key[0].parents)):
                del self.entries[key]


# the running pipeline's parsed inputs; run_pipeline sets it for the length
# of one run, and every load runs inside one
_parsed: _Parsed | None = None


def _hash_keys(digest, cfg: PipelineConfig, keys: Sequence[str]) -> None:
    for key in keys:
        digest.update(f"{key}={getattr(cfg, key)!r};".encode())


def _producer(rel: str) -> str:
    """The stage whose row writes ``rel``, a file or a directory of files."""
    for row in STAGES:
        for pattern in row.writes:
            if fnmatch.fnmatchcase(rel, pattern) or posixpath.dirname(pattern) == rel:
                return row.name
    raise KeyError(f"no stage writes {rel}")


def _require(ws: Path, rel: str) -> Path:
    path = Path(ws) / rel
    if not (path.is_file() or (path.is_dir() and any(path.iterdir()))):
        raise DependencyError(
            f"missing {path}; run the {_producer(rel)!r} stage first"
        )
    return path


def _drop_stale(
    ws: Path, row: Stage, parts: Sequence[Part], digests: dict[Path, str]
) -> None:
    """Delete the files matching the row's write globs that no part writes.

    Downstream stages hash whole directories and take their months from the
    files on disk, so a token or month the config no longer holds must not
    outlive the change.
    """
    current = {ws / rel for part in parts for rel in part.writes}
    for pattern in row.writes:
        for path in ws.glob(pattern):
            if path not in current:
                path.unlink()
                digests.pop(path, None)


def _fork(fn: Callable, inputs: tuple, arglists: Sequence[tuple]) -> tuple[int, int]:
    """Fork a child that calls ``fn`` per argument tuple; return its pid
    and the pipe that brings back its exception."""
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:  # the child: it never returns into the caller's stack
        for args in arglists:
            fn(*inputs, *args)
        status = 0
    except BaseException as exc:
        try:  # one that does not pickle and load back comes as its repr
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(RuntimeError(repr(exc)))
        os.write(write, payload)
    finally:
        os._exit(status)


def _run_tasks(
    fn: Callable, arglists: Sequence[tuple], workers: int, load: Callable | None
) -> None:
    """Call ``fn`` once per argument tuple.

    When ``load`` is given, it runs once, in this process, and its result
    is passed to every call ahead of the arguments. With a load, more than
    one call and ``workers > 1``, n = min(workers, calls): this process
    forks n - 1 children, which inherit the loaded inputs, child k makes
    calls k, k + n, ... and this process calls 0, n, 2n, ... itself. It
    then reaps every child, even when its own calls raised, and raises the
    first error: its own, else the children's in fork order.
    """
    inputs = () if load is None else (load(),)
    n = min(workers, len(arglists)) if load is not None else 1
    children: list[tuple[int, int]] = []
    errors: list[BaseException] = []
    try:
        for k in range(1, n):
            children.append(_fork(fn, inputs, arglists[k::n]))
        for args in arglists[::n]:
            fn(*inputs, *args)
    finally:
        for pid, read in children:
            import pickle  # only a forking run loads it
            with open(read, "rb") as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if payload:
                errors.append(pickle.loads(payload))
            elif status:
                errors.append(RuntimeError(f"worker {pid} exited with status {status}"))
    if errors:
        raise errors[0]


def _body(row: Stage) -> Callable:
    """The row's partition function.

    A name is looked up in ``numeric``, which is imported here, in this
    process and before ``_run_tasks`` can fork, so that forked children
    inherit NumPy rather than each importing it, and a run with nothing
    numeric to do never imports it.
    """
    if isinstance(row.body, str):
        from . import numeric

        return getattr(numeric, row.body)
    return row.body


def _run_stage(
    cfg: PipelineConfig, row: Stage, digests: dict[Path, str], manifest: dict
) -> list[str]:
    """Run the stale partitions of one row and record them in ``manifest``.

    ``manifest.json`` is rewritten only when the row's entry changed.
    Returns the names of the partitions that were (re)computed.
    """
    ws = Path(cfg.workspace)
    for rel in row.index + row.shared:
        _require(ws, rel)
    parts, load = row.plan(cfg)
    for part in parts:
        for rel in part.reads:
            _require(ws, rel)
    _drop_stale(ws, row, parts, digests)

    shared = hashlib.sha256()
    _hash_keys(shared, cfg, row.keys)
    shared.update(_digest(ws, row.shared, digests).encode())

    prior = manifest.get(row.name, {})
    recorded: dict[str, dict] = {}
    todo: list[tuple[Part, str]] = []
    for part in parts:
        digest = shared.copy()
        _hash_keys(digest, cfg, part.keys)
        digest.update(_digest(ws, part.reads, digests).encode())
        digest.update(repr(part.args).encode())
        inputs = digest.hexdigest()
        # an entry that is not an object of both hashes counts as absent
        known = prior.get(part.name)
        if (
            isinstance(known, dict)
            and known.get("inputs") == inputs
            and all((ws / rel).exists() for rel in part.writes)
            and _digest(ws, part.writes, digests) == known.get("outputs")
        ):
            recorded[part.name] = known
        else:
            todo.append((part, inputs))

    if todo:
        _run_tasks(_body(row), [(cfg, *part.args) for part, _ in todo], cfg.workers, load)
        for part, inputs in todo:
            for rel in part.writes:
                digests.pop(ws / rel, None)
            outputs = _digest(ws, part.writes, digests)
            recorded[part.name] = {"inputs": inputs, "outputs": outputs}

    if manifest.get(row.name) != recorded:
        manifest[row.name] = recorded
        storage.write_manifest(ws / MANIFEST, manifest)
    return [part.name for part, _ in todo]


# ---------------------------------------------------------------------------
# synth stage


def _synth_plan(cfg: PipelineConfig) -> tuple[list[Part], None]:
    writes = (META, PRICES, BLOCKMAP, PROBES) + tuple(
        f"{EVENTS}/{tid}.csv" for tid in synth_token_ids(cfg.synth_tokens)
    )
    return [Part("all", writes)], None


# ---------------------------------------------------------------------------
# ingest stage


def _token_decimals(ws: Path) -> dict[str, int]:
    metas = storage.read_table(Path(ws) / META, storage.META)
    return {m.token_id: m.decimals for m in metas}


def _parse_events(
    path: Path, token_id: str, decimals: int
) -> tuple[list[TransferEvent], TokenLedger]:
    """One token's raw events and the ledger they build.

    An event file whose first row names another token, or whose events
    mix tokens, run out of (block, log_index) order or overdraw an
    account, is an InputError naming the file.
    """
    events = storage.read_table(path, storage.EVENTS)
    if events and events[0].token_id != token_id:
        raise InputError(
            f"{path}, line 2: token {events[0].token_id!r}, expected {token_id!r}"
        )
    try:
        return events, build_ledger(events, decimals)
    except (ValueError, LedgerOrderError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_ledger(ws: Path, token_id: str, decimals: int) -> TokenLedger:
    # ``decimals`` comes from meta.csv, which only synth writes, so every
    # reader in a run passes the same value for a file
    path = _require(ws, f"{EVENTS}/{token_id}.csv")
    return _parsed.get(path, lambda p: _parse_events(p, token_id, decimals)[1])


def _parse_prices(path: Path) -> dict[str, PriceSeries]:
    rows = storage.read_table(path, storage.PRICES)
    try:
        return price_series(rows)
    except ValueError as exc:  # no rows, a repeated day or a bad close
        raise InputError(f"{path}: {exc}") from None


def _load_prices(ws: Path) -> dict[str, PriceSeries]:
    """Every token's gap-free closes from ``prices.csv``."""
    return _parsed.get(_require(ws, PRICES), _parse_prices)


def _probe_check(ledger: TokenLedger, probes) -> str:
    for _, account, block, expected in probes:
        got = balance_at(ledger, account, block)
        if got != expected:
            return (
                f"account {account} at block {block}: "
                f"ledger {got} != reference {expected}"
            )
    return ""


def _filters_plan(cfg: PipelineConfig) -> tuple[list[Part], None]:
    return [Part("filters", (FILTERS, PRICE_SPAN))], None


def _ingest_filters(cfg: PipelineConfig) -> None:
    """Screen every token, probe-check the ledger of each that passes, and
    record the first and last priced day for the snapshot calendar.

    Every token's ledger is built and every price parsed, so a malformed
    event file or ``prices.csv`` fails here whether or not its token
    passes the screen.
    """
    ws = cfg.workspace
    metas = storage.read_table(ws / META, storage.META)
    ledgers = {m.token_id: _load_ledger(ws, m.token_id, m.decimals) for m in metas}
    prices = _load_prices(ws)
    reports = filter_tokens(
        metas, min_price_days=cfg.min_price_days, min_volume=cfg.min_volume
    )
    probes_by_token: dict[str, list] = {}
    for probe in storage.read_table(ws / PROBES, storage.PROBES):
        probes_by_token.setdefault(probe[0], []).append(probe)

    final: list[FilterReport] = []
    for report in reports:
        tid = report.token_id
        if report.passed and probes_by_token.get(tid):
            detail = _probe_check(ledgers[tid], probes_by_token[tid])
            if detail:
                report = FilterReport(
                    tid, False, FilterStage.INCONSISTENT_BALANCE, detail
                )
        final.append(report)
    storage.write_table(ws / FILTERS, storage.FILTERS, final)
    span = (min(s.start for s in prices.values()), max(s.end for s in prices.values()))
    storage.write_table(ws / PRICE_SPAN, storage.PRICE_SPAN, [span])


# ---------------------------------------------------------------------------
# snapshot stage


def _passed_tokens(ws: Path) -> list[str]:
    reports = storage.read_table(Path(ws) / FILTERS, storage.FILTERS)
    return [r.token_id for r in reports if r.passed]


def snapshot_calendar(cfg: PipelineConfig) -> list[Snapshot]:
    """First-of-month snapshots with a full lookback and forward window,
    between the first and last priced day that ingest recorded."""
    ws = cfg.workspace
    span_path = _require(ws, PRICE_SPAN)
    spans = storage.read_table(span_path, storage.PRICE_SPAN)
    if len(spans) != 1:
        raise InputError(f"{span_path}: expected one row, got {len(spans)}")
    [(first_day, last_day)] = spans
    path = _require(ws, BLOCKMAP)
    anchors = storage.read_table(path, storage.BLOCKMAP)
    start = first_day + dt.timedelta(days=cfg.lookback_days)
    end = last_day - dt.timedelta(days=cfg.forward_days)
    if end < start:
        raise InputError(
            "price history too short for the configured lookback and forward windows"
        )
    try:
        return monthly_snapshots(start, end, BlockTimeMap(tuple(anchors)))
    except ValueError as exc:  # no anchors, anchors out of order, or none early enough
        raise InputError(f"{path}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class _Holdings:
    """What every snapshot month reads: the passed tokens' ledgers, the
    accounts they touch and the prices."""

    ledgers: dict[str, TokenLedger]
    accounts: list[str]
    prices: dict[str, PriceSeries]


def _load_holdings(cfg: PipelineConfig) -> _Holdings:
    ws = cfg.workspace
    prices = _load_prices(ws)
    decimals = _token_decimals(ws)
    ledgers = {tid: _load_ledger(ws, tid, decimals[tid]) for tid in _passed_tokens(ws)}
    accounts = sorted({a for lg in ledgers.values() for a in lg.accounts})
    return _Holdings(ledgers, accounts, prices)


def _snapshot_plan(cfg: PipelineConfig) -> tuple[list[Part], Callable]:
    parts = [
        Part(snap.month, (f"{SNAPSHOTS}/{snap.month}.csv",), args=(snap,))
        for snap in snapshot_calendar(cfg)
    ]
    return parts, functools.partial(_load_holdings, cfg)


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
    path = ws / SNAPSHOTS / f"{snapshot.month}.csv"
    storage.write_table(path, storage.POSITIONS, rows)


# ---------------------------------------------------------------------------
# optimize and metrics stages: one partition per upstream month file


def _per_month(src: str, dst: str) -> Callable:
    """A plan with one partition per ``src`` month file, writing the same
    month under ``dst``, that loads the prices."""

    def plan(cfg: PipelineConfig) -> tuple[list[Part], Callable]:
        ws = Path(cfg.workspace)
        months = sorted(p.stem for p in (ws / src).glob("*.csv"))
        parts = [
            Part(m, (f"{dst}/{m}.csv",), (f"{src}/{m}.csv",), (m,)) for m in months
        ]
        return parts, functools.partial(_load_prices, ws)

    return plan


# ---------------------------------------------------------------------------
# report stage: one partition per input family, run in this process; each
# body returns the rows of its partition's tables, in their declared order


def _month_rows(directory: Path, table: storage.Table) -> list:
    """The rows of every month file in ``directory``, month by month."""
    paths = sorted(directory.glob("*.csv"))
    return [row for path in paths for row in storage.read_table(path, table)]


def _report_performance(cfg: PipelineConfig) -> tuple[list, list]:
    from . import metrics  # loads NumPy

    rows = _month_rows(cfg.workspace / PERF, storage.PERF)
    records = [metrics.PerfRecord(*row) for row in rows]
    report = metrics.aggregate(records, baseline=BASELINE)
    return report.summaries, report.excess_curve


def _bin_counts(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    """How many ``values`` fall in each bin between consecutive ``edges``.

    A bin holds its left edge, and the last bin its right edge too; values
    outside the edges count nowhere. ``np.histogram`` with explicit edges
    counts the same way, by searching the sorted values for each edge.
    """
    ordered = sorted(values)
    below = [bisect.bisect_left(ordered, e) for e in edges[:-1]]
    below.append(bisect.bisect_right(ordered, edges[-1]))
    return [hi - lo for lo, hi in zip(below, below[1:])]


def _report_distance(cfg: PipelineConfig) -> tuple[list, list]:
    """The distance histogram and the decay fit of each frontier strategy,
    both over its converged rows. Plain Python: no NumPy is loaded."""
    from . import decayfit

    converged: dict[str, list[storage.SolutionRow]] = {}
    for s in _month_rows(cfg.workspace / SOLUTIONS, storage.SOLUTIONS):
        if s.strategy != BASELINE:
            # a strategy with no converged row still gets its histogram rows
            rows = converged.setdefault(s.strategy, [])
            if s.converged:
                rows.append(s)
    edges = cfg.distance_bin_edges
    hist: list[tuple] = []
    fits = []
    for strategy in sorted(converged):
        rows = converged[strategy]
        counts = _bin_counts([100.0 * s.distance for s in rows], edges)
        for lo, hi, count in zip(edges, edges[1:], counts):
            hist.append((strategy, float(lo), float(hi), count))
        try:
            bins = decayfit.bin_by_size(
                [(s.n_assets, s.distance) for s in rows],
                n_range=(cfg.size_bin_min, cfg.size_bin_max),
                min_count=cfg.min_bin_count,
            )
            fits.append(decayfit.fit_power_decay(bins, strategy=strategy))
        except ValueError as exc:  # no full size bin, or an unidentifiable fit
            log.warning("decay fit skipped for %s: %s", strategy, exc)
    return hist, fits


def _report_concentration(cfg: PipelineConfig) -> tuple[list]:
    from . import concentration  # loads NumPy

    rows: list = []
    for path in sorted((cfg.workspace / SNAPSHOTS).glob("*.csv")):
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
    return (rows,)


@dataclasses.dataclass(frozen=True)
class _Report:
    """One report partition: the upstream directory it reads, the config
    keys it alone reads, its tables under ``report/`` (file name to schema,
    in the order ``body(cfg)`` returns their rows) and that body."""

    reads: str
    keys: tuple[str, ...]
    tables: Mapping[str, storage.Table]
    body: Callable[[PipelineConfig], tuple]


# every report table is named here, and nowhere else in the program
_REPORTS = {
    "performance": _Report(
        PERF,
        (),
        {"summary.csv": storage.SUMMARY, "excess_curve.csv": storage.EXCESS_CURVE},
        _report_performance,
    ),
    "distance": _Report(
        SOLUTIONS,
        ("distance_bin_edges", "size_bin_min", "size_bin_max", "min_bin_count"),
        {
            "distance_hist.csv": storage.DISTANCE_HIST,
            "decay_fit.csv": storage.DECAY_FIT,
        },
        _report_distance,
    ),
    "concentration": _Report(
        SNAPSHOTS,
        ("dust_threshold", "top_k_pcts", "min_holders"),
        {"concentration.csv": storage.CONCENTRATION},
        _report_concentration,
    ),
}
REPORT_FILES = tuple(file for report in _REPORTS.values() for file in report.tables)
_REPORT_WRITES = tuple(f"{REPORT}/{file}" for file in REPORT_FILES)


def _report_plan(cfg: PipelineConfig) -> tuple[list[Part], None]:
    parts = []
    for name, report in _REPORTS.items():
        writes = tuple(f"{REPORT}/{file}" for file in report.tables)
        parts.append(Part(name, writes, (report.reads,), (name,), report.keys))
    return parts, None


def _report_part(cfg: PipelineConfig, name: str) -> None:
    report = _REPORTS[name]
    tables = zip(report.tables.items(), report.body(cfg), strict=True)
    for (file, schema), rows in tables:
        storage.write_table(cfg.workspace / REPORT / file, schema, rows)


# ---------------------------------------------------------------------------
# the stage table


STAGES = (
    Stage(
        "synth",
        keys=(
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
        shared=(),
        index=(),
        writes=(META, PRICES, BLOCKMAP, PROBES, f"{EVENTS}/*.csv"),
        plan=_synth_plan,
        body="synth_all",
    ),
    Stage(
        "ingest",
        keys=("min_price_days", "min_volume"),
        shared=(META, PROBES, EVENTS, PRICES),
        index=(),
        writes=(FILTERS, PRICE_SPAN),
        plan=_filters_plan,
        body=_ingest_filters,
    ),
    Stage(
        "snapshot",
        keys=("lookback_days", "forward_days"),
        shared=(EVENTS, FILTERS, META, PRICES, PRICE_SPAN, BLOCKMAP),
        index=(),
        writes=(f"{SNAPSHOTS}/*.csv",),
        plan=_snapshot_plan,
        body=_snapshot_month,
    ),
    Stage(
        "optimize",
        keys=("lookback_days", "min_obs", "mean_shrink_lambda", "w_max", "rf_annual"),
        shared=(PRICES,),
        index=(SNAPSHOTS,),
        writes=(f"{SOLUTIONS}/*.csv",),
        plan=_per_month(SNAPSHOTS, SOLUTIONS),
        body="optimize_month",
    ),
    Stage(
        "metrics",
        keys=("lookback_days", "forward_days", "market_tokens"),
        shared=(PRICES,),
        index=(SOLUTIONS,),
        writes=(f"{PERF}/*.csv",),
        plan=_per_month(SOLUTIONS, PERF),
        body="metrics_month",
    ),
    Stage(
        "report",
        keys=(),
        shared=(),
        index=(),
        writes=_REPORT_WRITES,
        plan=_report_plan,
        body=_report_part,
    ),
)

PIPELINE_STAGES = tuple(row.name for row in STAGES)


# ---------------------------------------------------------------------------
# validate


def _mint_flows(events: Sequence[TransferEvent]) -> list[tuple[int, int]]:
    """(block, signed amount) of each mint and burn, sorted by block."""
    flows: list[tuple[int, int]] = []
    for e in events:
        if e.sender == ZERO_ACCOUNT:
            flows.append((e.block, e.amount))
        elif e.recipient == ZERO_ACCOUNT:
            flows.append((e.block, -e.amount))
    return sorted(flows)


def validate_workspace(cfg: PipelineConfig) -> dict[str, int]:
    """Check the ledgers rebuilt from the raw event files against
    ground-truth probes and conservation.

    Every probe must match ``balance_at`` exactly, and at each probed
    block the sum of all account balances must equal mints minus burns up
    to that block (summed from the same parse of the events, a separate
    route from the ledger index). Raises InputError on any violation.
    """
    ws = cfg.workspace
    probes_path = _require(ws, PROBES)
    probes = storage.read_table(probes_path, storage.PROBES)
    decimals = _token_decimals(ws)

    ledgers: dict[str, TokenLedger] = {}
    mint_flows: dict[str, list[tuple[int, int]]] = {}
    failures: list[str] = []
    checked = 0
    for token_id, account, block, expected in probes:
        if token_id not in ledgers:
            if token_id not in decimals:
                raise InputError(
                    f"{probes_path}: token {token_id!r} has no row in {ws / META}"
                )
            path = _require(ws, f"{EVENTS}/{token_id}.csv")
            events, ledgers[token_id] = _parse_events(path, token_id, decimals[token_id])
            mint_flows[token_id] = _mint_flows(events)
        ledger = ledgers[token_id]
        got = balance_at(ledger, account, block)
        if got != expected:
            failures.append(
                f"{token_id}: {account} at {block}: ledger {got} != reference {expected}"
            )
            continue
        net_minted = sum(a for b, a in mint_flows[token_id] if b <= block)
        total = sum(account_balances(ledger, block).values())
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


def run_pipeline(cfg: PipelineConfig, stages: Sequence[str] | None = None) -> dict:
    """Run the selected stages in dependency order.

    Returns a map of stage name to the partitions it recomputed (empty
    list means the stage was already up to date).
    """
    selected = list(stages) if stages is not None else list(PIPELINE_STAGES)
    unknown = [s for s in selected if s not in PIPELINE_STAGES]
    if unknown:
        raise InputError(f"unknown stages: {', '.join(unknown)}")
    global _parsed
    ws = Path(cfg.workspace)
    digests: dict[Path, str] = {}
    manifest = storage.read_manifest(ws / MANIFEST)
    rows = [row for row in STAGES if row.name in selected]
    ran: dict[str, list[str]] = {}
    _parsed = _Parsed(digests)
    try:
        for i, row in enumerate(rows):
            ran[row.name] = _run_stage(cfg, row, digests, manifest)
            log.info("stage %s: %d partitions computed", row.name, len(ran[row.name]))
            # drop what no later selected row declares: the ledgers after
            # snapshot, the prices after metrics
            _parsed.keep_under(
                ws, {rel for later in rows[i + 1 :] for rel in later.index + later.shared}
            )
    finally:
        _parsed = None
    return ran
