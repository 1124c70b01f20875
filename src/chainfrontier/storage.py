"""File formats for pipeline artifacts.

Everything on disk is either CSV (one schema per artifact kind) or JSON
(the stage manifest). Writes go through a temp file in the target
directory followed by an atomic rename, so a crashed stage never leaves a
half-written partition behind. Floats are serialized with ``repr``, which
round-trips exactly and is stable across runs, making reruns
byte-comparable.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InputError
from .ingest import (
    ZERO_ACCOUNT,
    FilterReport,
    FilterStage,
    LedgerEntry,
    TokenMeta,
    TransferEvent,
)
from .portfolio import BlockTimeMap
from .prices import PriceSeries

if TYPE_CHECKING:
    # their modules load NumPy: the writers use these types only as
    # annotations, and read_perf imports PerfRecord when it is called
    from .concentration import ConcentrationRow
    from .decayfit import DecayFit
    from .metrics import AggregateReport, PerfRecord


def fmt(value) -> str:
    """Serialize one CSV cell; None becomes the empty string."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def _opt_float(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _opt_int(cell: str) -> int | None:
    return int(cell) if cell != "" else None


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    atomic_write_text(path, buf.getvalue())


def read_rows(path: Path) -> list[dict[str, str]]:
    path = Path(path)
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_manifest(path: Path, manifest: Mapping) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path) -> dict:
    path = Path(path)
    if not path.exists():
        return {}
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# events

EVENT_HEADER = ("token_id", "block", "log_index", "event_kind", "from", "to", "amount")


def event_row(e: TransferEvent) -> tuple:
    if e.sender == ZERO_ACCOUNT:
        return (e.token_id, e.block, e.log_index, "deposit", "", e.recipient, e.amount)
    if e.recipient == ZERO_ACCOUNT:
        return (e.token_id, e.block, e.log_index, "withdrawal", e.sender, "", e.amount)
    return (e.token_id, e.block, e.log_index, "transfer", e.sender, e.recipient, e.amount)


def write_events(path: Path, events: Iterable[TransferEvent]) -> None:
    write_csv(path, EVENT_HEADER, (event_row(e) for e in events))


# ---------------------------------------------------------------------------
# ledgers

LEDGER_HEADER = ("token_id", "account", "block", "log_index", "delta")


def write_ledger_entries(path: Path, entries: Iterable[LedgerEntry]) -> None:
    write_csv(
        path,
        LEDGER_HEADER,
        ((e.token_id, e.account, e.block, e.log_index, e.delta) for e in entries),
    )


def read_ledger_entries(path: Path) -> list[LedgerEntry]:
    return [
        LedgerEntry(
            token_id=r["token_id"],
            account=r["account"],
            block=int(r["block"]),
            log_index=int(r["log_index"]),
            delta=int(r["delta"]),
        )
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# token metadata

META_HEADER = (
    "token_id",
    "decimals",
    "price_history_days",
    "total_volume",
    "market_cap",
    "fdv",
    "erc20_compliant",
    "reference_mcap",
)


def write_meta(path: Path, metas: Iterable[TokenMeta]) -> None:
    write_csv(
        path,
        META_HEADER,
        (
            (
                m.token_id,
                m.decimals,
                m.price_history_days,
                m.total_volume,
                m.market_cap,
                m.fdv,
                m.erc20_compliant,
                m.reference_mcap,
            )
            for m in metas
        ),
    )


def read_meta(path: Path) -> list[TokenMeta]:
    return [
        TokenMeta(
            token_id=r["token_id"],
            decimals=int(r["decimals"]),
            price_history_days=_opt_int(r["price_history_days"]),
            total_volume=_opt_float(r["total_volume"]),
            market_cap=_opt_float(r["market_cap"]),
            fdv=_opt_float(r["fdv"]),
            erc20_compliant=r["erc20_compliant"] == "true",
            reference_mcap=_opt_float(r["reference_mcap"]),
        )
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# prices

PRICE_HEADER = ("token_id", "date", "close_usd", "market_cap_usd", "volume_usd")


def write_prices(
    path: Path,
    prices: Mapping[str, PriceSeries],
    mcaps: Mapping[str, Sequence[float]],
    volumes: Mapping[str, Sequence[float]],
) -> None:
    def rows():
        for tid in sorted(prices):
            series = prices[tid]
            for i, close in enumerate(series.closes):
                if close is None:
                    continue
                day = series.start + dt.timedelta(days=i)
                yield (tid, day, close, mcaps[tid][i], volumes[tid][i])

    write_csv(path, PRICE_HEADER, rows())


def read_prices(path: Path) -> dict[str, PriceSeries]:
    """Load each token's daily closes as a gapped price series."""
    observations: dict[str, dict[dt.date, float]] = {}
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        header = tuple(next(rows, ()))
        if header != PRICE_HEADER:
            raise InputError(f"{path}: expected columns {PRICE_HEADER}, got {header}")
        for tid, day, close, *_ in rows:
            observations.setdefault(tid, {})[dt.date.fromisoformat(day)] = float(close)
    return {
        tid: PriceSeries.from_observations(tid, obs)
        for tid, obs in observations.items()
    }


# ---------------------------------------------------------------------------
# block map

BLOCKMAP_HEADER = ("block", "date")


def write_block_map(path: Path, block_map: BlockTimeMap) -> None:
    write_csv(path, BLOCKMAP_HEADER, block_map.anchors)


def read_block_map(path: Path) -> BlockTimeMap:
    anchors = tuple(
        (int(r["block"]), dt.date.fromisoformat(r["date"])) for r in read_rows(path)
    )
    return BlockTimeMap(anchors=anchors)


# ---------------------------------------------------------------------------
# ground-truth probes

PROBE_HEADER = ("token_id", "account", "block", "balance")


def write_probes(path: Path, probes: Iterable[tuple[str, str, int, int]]) -> None:
    write_csv(path, PROBE_HEADER, probes)


def read_probes(path: Path) -> list[tuple[str, str, int, int]]:
    return [
        (r["token_id"], r["account"], int(r["block"]), int(r["balance"]))
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# filter reports

FILTER_HEADER = ("token_id", "passed", "rejected_stage", "detail")


def write_filters(path: Path, reports: Iterable[FilterReport]) -> None:
    write_csv(
        path,
        FILTER_HEADER,
        (
            (
                r.token_id,
                r.passed,
                r.rejected_stage.value if r.rejected_stage else None,
                r.detail,
            )
            for r in reports
        ),
    )


def read_filters(path: Path) -> list[FilterReport]:
    return [
        FilterReport(
            token_id=r["token_id"],
            passed=r["passed"] == "true",
            rejected_stage=(
                FilterStage(r["rejected_stage"]) if r["rejected_stage"] else None
            ),
            detail=r["detail"],
        )
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# snapshot positions

POSITION_HEADER = (
    "snapshot_date",
    "block",
    "account",
    "token_id",
    "base_units",
    "quantity",
    "value_usd",
)


def write_positions(path: Path, rows: Iterable[tuple]) -> None:
    write_csv(path, POSITION_HEADER, rows)


def read_positions(path: Path) -> list[dict]:
    return [
        {
            "snapshot_date": dt.date.fromisoformat(r["snapshot_date"]),
            "block": int(r["block"]),
            "account": r["account"],
            "token_id": r["token_id"],
            "base_units": int(r["base_units"]),
            "quantity": float(r["quantity"]),
            "value_usd": float(r["value_usd"]),
        }
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# frontier solutions

SOLUTION_HEADER = (
    "snapshot_date",
    "account",
    "strategy",
    "weights",
    "mu",
    "sigma",
    "converged",
    "iterations",
    "distance",
    "n_assets",
    "total_value_usd",
    "reason",
)


def encode_weights(token_ids: Sequence[str], weights: Sequence[float]) -> str:
    return ";".join(f"{tid}:{repr(float(w))}" for tid, w in zip(token_ids, weights))


def decode_weights(cell: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not cell:
        return out
    for part in cell.split(";"):
        tid, raw = part.rsplit(":", 1)
        out[tid] = float(raw)
    return out


def write_solutions(path: Path, rows: Iterable[tuple]) -> None:
    write_csv(path, SOLUTION_HEADER, rows)


def read_solutions(path: Path) -> list[dict]:
    return [
        {
            "snapshot_date": dt.date.fromisoformat(r["snapshot_date"]),
            "account": r["account"],
            "strategy": r["strategy"],
            "weights": decode_weights(r["weights"]),
            "mu": float(r["mu"]),
            "sigma": float(r["sigma"]),
            "converged": r["converged"] == "true",
            "iterations": int(r["iterations"]),
            "distance": float(r["distance"]),
            "n_assets": int(r["n_assets"]),
            "total_value_usd": float(r["total_value_usd"]),
            "reason": r["reason"],
        }
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# realised performance

PERF_HEADER = (
    "snapshot_date",
    "account",
    "strategy",
    "fwd_return",
    "beta",
    "alpha",
    "market_fwd_return",
)


def write_perf(path: Path, records: Iterable[PerfRecord]) -> None:
    write_csv(
        path,
        PERF_HEADER,
        (
            (
                p.snapshot,
                p.account,
                p.strategy,
                p.fwd_return,
                p.beta,
                p.alpha,
                p.market_fwd_return,
            )
            for p in records
        ),
    )


def read_perf(path: Path) -> list[PerfRecord]:
    from .metrics import PerfRecord

    return [
        PerfRecord(
            snapshot=dt.date.fromisoformat(r["snapshot_date"]),
            account=r["account"],
            strategy=r["strategy"],
            fwd_return=float(r["fwd_return"]),
            beta=float(r["beta"]),
            alpha=float(r["alpha"]),
            market_fwd_return=float(r["market_fwd_return"]),
        )
        for r in read_rows(path)
    ]


# ---------------------------------------------------------------------------
# report tables

SUMMARY_HEADER = (
    "strategy",
    "median_return",
    "hit_rate",
    "median_alpha",
    "frac_positive_alpha",
    "n_records",
)

HISTOGRAM_HEADER = ("strategy", "bin_lo_pct", "bin_hi_pct", "count")

DECAY_HEADER = (
    "strategy",
    "delta_inf",
    "psi",
    "gamma",
    "r_squared",
    "mae",
    "n_bins",
    "converged",
)

CONCENTRATION_HEADER = (
    "snapshot_date",
    "scope",
    "gini",
    "hhi",
    "top_shares",
    "n_holders",
)

EXCESS_HEADER = ("snapshot_date", "strategy", "cumulative_excess")


def write_summary(path: Path, report: AggregateReport) -> None:
    write_csv(
        path,
        SUMMARY_HEADER,
        (
            (
                s.strategy,
                s.median_return,
                s.hit_rate,
                s.median_alpha,
                s.frac_positive_alpha,
                s.n_records,
            )
            for s in report.summaries
        ),
    )


def write_excess_curve(path: Path, report: AggregateReport) -> None:
    write_csv(
        path,
        EXCESS_HEADER,
        (
            (p.snapshot, p.strategy, p.cumulative_excess)
            for p in report.excess_curve
        ),
    )


def write_decay_table(path: Path, fits: Iterable[DecayFit]) -> None:
    write_csv(
        path,
        DECAY_HEADER,
        (
            (
                f.strategy,
                f.delta_inf,
                f.psi,
                f.gamma,
                f.r_squared,
                f.mae,
                f.n_bins,
                f.converged,
            )
            for f in fits
        ),
    )


def encode_top_shares(shares: Sequence[tuple[float, float]]) -> str:
    return ";".join(f"{repr(k)}:{repr(s)}" for k, s in shares)


def write_concentration(path: Path, rows: Iterable[ConcentrationRow]) -> None:
    write_csv(
        path,
        CONCENTRATION_HEADER,
        (
            (
                r.snapshot,
                r.scope,
                r.gini,
                r.hhi,
                encode_top_shares(r.top_shares),
                r.n_holders,
            )
            for r in rows
        ),
    )
