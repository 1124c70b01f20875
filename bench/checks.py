"""Output checks and deterministic counts, read back from workspace files.

Everything here parses the program's CSV outputs with the standard
library alone, so the checks do not share code with the program they
check. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import math
import re
from pathlib import Path

STRATEGIES = ("min_var", "max_ret", "max_sr")
REPORT_TABLES = (
    "summary.csv",
    "excess_curve.csv",
    "distance_hist.csv",
    "decay_fit.csv",
    "concentration.csv",
)
WEIGHT_TOL = 1e-8


class CheckFailed(AssertionError):
    """The program's outputs are wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def digest(ws: Path) -> str:
    """Hash of every file's relative path and bytes under the workspace."""
    h = hashlib.sha256()
    for path in sorted(p for p in ws.rglob("*") if p.is_file()):
        h.update(path.relative_to(ws).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def workspace_bytes(ws: Path) -> int:
    return sum(p.stat().st_size for p in ws.rglob("*") if p.is_file())


def expected_months(ws: Path, lookback_days: int, forward_days: int) -> list[str]:
    """First-of-month snapshot names the price history allows.

    A snapshot needs ``lookback_days`` of history before it and
    ``forward_days`` after it, counted from the first and last priced day.
    """
    days = [dt.date.fromisoformat(r["date"]) for r in _rows(ws / "input" / "prices.csv")]
    first = min(days) + dt.timedelta(days=lookback_days)
    last = max(days) - dt.timedelta(days=forward_days)
    year, month = first.year, first.month
    if first.day > 1:
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    out = []
    while dt.date(year, month, 1) <= last:
        out.append(f"{year:04d}-{month:02d}")
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return out


def _finite_cells(path: Path) -> None:
    for lineno, row in enumerate(_rows(path), start=2):
        for key, cell in row.items():
            for piece in re.split(r"[;:]", cell or ""):
                try:
                    value = float(piece)
                except ValueError:
                    continue
                require(
                    math.isfinite(value),
                    f"{path.name} line {lineno} column {key}: {cell!r} is not finite",
                )


def check_workspace(ws: Path, cfg: dict) -> dict:
    """Check one fully built workspace and return its deterministic counts.

    ``cfg`` maps config keys to parsed values (``w_max``, ``lookback_days``,
    ``forward_days``). Counts per strategy: frontier rows, converged rows,
    iteration sums and unconverged reasons; per workspace: books (accounts
    with at least two positions in a snapshot), books with a baseline row,
    dropped books and partitions.
    """
    months = expected_months(ws, cfg["lookback_days"], cfg["forward_days"])
    require(bool(months), f"{ws.name}: the price history allows no snapshot")
    for sub in ("snapshots", "solutions", "perf"):
        got = sorted(p.stem for p in (ws / sub).glob("*.csv"))
        require(
            got == months,
            f"{ws.name}/{sub}: partitions {got} do not match the snapshot calendar {months}",
        )

    per = {
        s: {"rows": 0, "converged": 0, "iterations": 0, "unconverged_reasons": {}}
        for s in STRATEGIES
    }
    books = kept = 0
    w_max = cfg["w_max"]
    for month in months:
        held: dict[str, int] = {}
        for row in _rows(ws / "snapshots" / f"{month}.csv"):
            held[row["account"]] = held.get(row["account"], 0) + 1
        baseline = set()
        for row in _rows(ws / "solutions" / f"{month}.csv"):
            strategy = row["strategy"]
            if strategy == "baseline":
                baseline.add(row["account"])
                continue
            require(strategy in per, f"{month}: unknown strategy {strategy!r}")
            counts = per[strategy]
            counts["rows"] += 1
            counts["iterations"] += int(row["iterations"])
            if row["converged"] != "true":
                reasons = counts["unconverged_reasons"]
                reasons[row["reason"]] = reasons.get(row["reason"], 0) + 1
                continue
            counts["converged"] += 1
            weights = [float(part.rsplit(":", 1)[1]) for part in row["weights"].split(";")]
            where = f"{month} {row['account']} {strategy}"
            require(
                abs(math.fsum(weights) - 1.0) <= WEIGHT_TOL,
                f"{where}: weights sum to {math.fsum(weights)!r}",
            )
            require(
                all(-WEIGHT_TOL <= w <= w_max + WEIGHT_TOL for w in weights),
                f"{where}: a weight lies outside [0, {w_max}]",
            )
        multi = {a for a, n in held.items() if n >= 2}
        require(
            baseline <= multi,
            f"{month}: baseline rows for accounts without two positions",
        )
        books += len(multi)
        kept += len(multi & baseline)

    for name in REPORT_TABLES:
        path = ws / "report" / name
        require(path.is_file(), f"missing report table {name}")
        _finite_cells(path)

    for counts in per.values():
        counts["unconverged_reasons"] = dict(sorted(counts["unconverged_reasons"].items()))
    return {
        "partitions": len(months),
        "books": books,
        "kept_books": kept,
        "dropped_books": books - kept,
        "strategies": per,
    }


def ratios(all_counts: list[dict]) -> dict[str, float]:
    """Converged share of frontier rows and kept share of books, pooled."""
    rows = sum(c["strategies"][s]["rows"] for c in all_counts for s in STRATEGIES)
    converged = sum(
        c["strategies"][s]["converged"] for c in all_counts for s in STRATEGIES
    )
    books = sum(c["books"] for c in all_counts)
    kept = sum(c["kept_books"] for c in all_counts)
    require(rows > 0 and books > 0, "no frontier rows or books to score")
    return {"converged_ratio": converged / rows, "kept_ratio": kept / books}
