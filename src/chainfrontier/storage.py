"""File formats for pipeline artifacts.

Everything on disk is either CSV or JSON (the stage manifest). Each CSV
schema is one ``Table``: its header, one cell parser per column, the
record a row is read into and the cells a record is written as. Two
functions do all CSV reading and writing: ``read_table(path, table)``
parses a file positionally into records, and ``write_table(path, table,
records)`` writes them. A wrong header, a row with the wrong number of
cells or a cell that does not parse is an ``InputError`` naming the file
and the line.

A table whose record type lives in a module that loads NumPy (perf and
the report tables) reads back as tuples of parsed cells, so that this
module stays plain Python; the report stage builds its perf records from
them. Raw events read back as ``TransferEvent``s, so the event format
lives here alone, and a row that is no valid event is an ``InputError``
naming the file and the line, like a bad cell.

Writes go through a temp file in the target directory followed by an
atomic rename, so a crashed stage never leaves a half-written partition
behind. Floats are serialized with ``repr``, which round-trips exactly and
is stable across runs, making reruns byte-comparable; a boolean, a filter
stage or a list of top shares is written in the form its parser reads.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import os
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError
from .ingest import (
    ZERO_ACCOUNT,
    FilterReport,
    FilterStage,
    TokenMeta,
    TransferEvent,
)


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``rows`` under ``header``. The csv module writes None as the
    empty cell, a float by ``repr`` and any other cell, a date included, by
    ``str``; it would write a bool as ``True``, so ``write_table`` formats
    such columns first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_manifest(path: Path, manifest: Mapping) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path) -> dict:
    """The stage manifest, one object per stage; ``{}`` when there is none.
    Text that is not JSON, or not an object of objects, is an InputError."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict) or not all(
        isinstance(entry, dict) for entry in manifest.values()
    ):
        raise InputError(f"{path}: expected a JSON object of objects")
    return manifest


# ---------------------------------------------------------------------------
# the column-spec table


def _cells(*cells):
    return cells


class Table:
    """One CSV schema.

    ``columns`` pairs each header name with the parser of its cells; a
    ``str`` column keeps the cell as written. ``record`` builds a row's
    record from its parsed cells, in column order, and rejects the row by
    raising ``ValueError``; by default the record is the tuple of cells.
    ``cells`` turns a record into its cells, in column order, for writing;
    by default a tuple record is its own cells and any other record is read
    by the header's names. A column whose parser has a formatter in
    ``_FORMATS`` is written through it.
    """

    def __init__(
        self,
        columns: Sequence[tuple[str, Callable[[str], Any]]],
        record: Callable[..., Any] = _cells,
        cells: Callable[[Any], Sequence] | None = None,
    ) -> None:
        self.header = tuple(name for name, _ in columns)
        self.parsers = tuple(parse for _, parse in columns)
        self.record = record
        self.cells = cells
        self.formats = tuple(
            (i, _FORMATS[parse]) for i, parse in enumerate(self.parsers) if parse in _FORMATS
        )


def read_table(path: Path, table: Table) -> list:
    """Parse one CSV file of ``table``'s schema into a list of records."""
    path = Path(path)
    width = len(table.header)
    convert = [(i, parse) for i, parse in enumerate(table.parsers) if parse is not str]
    build = table.record
    records = []
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = tuple(next(rows, ()))
            if header != table.header:
                raise InputError(
                    f"{path}, line 1: expected columns {table.header}, got {header}"
                )
            for row in rows:
                if len(row) != width:
                    raise InputError(
                        f"{path}, line {rows.line_num}: "
                        f"{len(row)} cells, expected {width}"
                    )
                try:
                    for i, parse in convert:
                        row[i] = parse(row[i])
                except ValueError as exc:
                    raise InputError(
                        f"{path}, line {rows.line_num}, "
                        f"column {table.header[i]}: {exc}"
                    ) from None
                try:
                    records.append(build(*row))
                except ValueError as exc:
                    raise InputError(f"{path}, line {rows.line_num}: {exc}") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}, line {rows.line_num}: {exc}") from None
    return records


def write_table(path: Path, table: Table, records: Iterable) -> None:
    """Write ``records`` as one CSV file of ``table``'s schema. The first
    record decides whether the records are tuples or are read by name."""
    rows = iter(records)
    first = next(rows, None)
    cells = table.cells
    if first is not None:
        rows = itertools.chain((first,), rows)
        if cells is None and not isinstance(first, tuple):
            cells = attrgetter(*table.header)
    if cells is not None:
        rows = map(cells, rows)
    if table.formats:
        rows = (_format(table.formats, row) for row in rows)
    write_csv(path, table.header, rows)


def _format(formats: tuple, cells: Sequence) -> list:
    cells = list(cells)
    for i, fmt in formats:
        cells[i] = fmt(cells[i])
    return cells


# ---------------------------------------------------------------------------
# cell parsers and formatters


_date = dt.date.fromisoformat


def _bool(cell: str) -> bool:
    if cell == "true":
        return True
    if cell == "false":
        return False
    raise ValueError(f"expected true or false, got {cell!r}")


def _opt_int(cell: str) -> int | None:
    return int(cell) if cell != "" else None


def _opt_float(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _opt_stage(cell: str) -> FilterStage | None:
    return FilterStage(cell) if cell != "" else None


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


def encode_top_shares(shares: Sequence[tuple[float, float]]) -> str:
    return ";".join(f"{repr(k)}:{repr(s)}" for k, s in shares)


def _decode_top_shares(cell: str) -> tuple[tuple[float, float], ...]:
    if not cell:
        return ()
    return tuple(
        (float(k), float(s)) for k, s in (part.split(":") for part in cell.split(";"))
    )


# the formatter of each parser whose values ``write_csv`` would not write
# in the form that the parser reads
_FORMATS: dict[Callable, Callable] = {
    _bool: lambda flag: "true" if flag else "false",
    _opt_stage: lambda stage: stage.value if stage is not None else None,
    _decode_top_shares: encode_top_shares,
}


def event_row(e: TransferEvent) -> tuple:
    if e.sender == ZERO_ACCOUNT:
        return (e.token_id, e.block, e.log_index, "deposit", "", e.recipient, e.amount)
    if e.recipient == ZERO_ACCOUNT:
        return (e.token_id, e.block, e.log_index, "withdrawal", e.sender, "", e.amount)
    return (e.token_id, e.block, e.log_index, "transfer", e.sender, e.recipient, e.amount)


def _event(
    token_id: str,
    block: int,
    log_index: int,
    kind: str,
    sender: str,
    recipient: str,
    amount: int,
) -> TransferEvent:
    """The inverse of ``event_row``: a deposit becomes a mint from the zero
    account and a withdrawal a burn to it. Either side may name a deposit's
    or a withdrawal's account."""
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    if block < 0 or log_index < 0:
        raise ValueError("negative block or log_index")
    if not token_id:
        raise ValueError("empty token_id")
    if kind == "transfer":
        if not (sender and recipient):
            raise ValueError("a transfer needs both from and to")
    elif kind == "deposit":
        sender, recipient = ZERO_ACCOUNT, recipient or sender
        if not recipient:
            raise ValueError("a deposit needs an account")
    elif kind == "withdrawal":
        sender, recipient = sender or recipient, ZERO_ACCOUNT
        if not sender:
            raise ValueError("a withdrawal needs an account")
    else:
        raise ValueError(f"unknown event_kind {kind!r}")
    return TransferEvent(token_id, block, log_index, sender, recipient, amount)


# ---------------------------------------------------------------------------
# the schemas

EVENTS = Table(
    (
        ("token_id", str),
        ("block", int),
        ("log_index", int),
        ("event_kind", str),
        ("from", str),
        ("to", str),
        ("amount", int),
    ),
    record=_event,
    cells=event_row,
)

META = Table(
    (
        ("token_id", str),
        ("decimals", int),
        ("price_history_days", _opt_int),
        ("total_volume", _opt_float),
        ("market_cap", _opt_float),
        ("fdv", _opt_float),
        ("erc20_compliant", _bool),
        ("reference_mcap", _opt_float),
    ),
    record=TokenMeta,
)

# one row per token and priced day; prices.price_series groups them
PRICES = Table(
    (
        ("token_id", str),
        ("date", _date),
        ("close_usd", float),
        ("market_cap_usd", float),
        ("volume_usd", float),
    )
)

# the first and last priced day of prices.csv, one row; ingest writes it
# for the snapshot calendar
PRICE_SPAN = Table((("first_day", _date), ("last_day", _date)))

# BlockTimeMap anchors
BLOCKMAP = Table((("block", int), ("date", _date)))

# ground-truth balances: (token_id, account, block, balance)
PROBES = Table(
    (("token_id", str), ("account", str), ("block", int), ("balance", int))
)

FILTERS = Table(
    (
        ("token_id", str),
        ("passed", _bool),
        ("rejected_stage", _opt_stage),
        ("detail", str),
    ),
    record=FilterReport,
)


class PositionRow(NamedTuple):
    """One held token of one account at a snapshot."""

    snapshot_date: dt.date
    block: int
    account: str
    token_id: str
    base_units: int
    quantity: float
    value_usd: float


POSITIONS = Table(
    (
        ("snapshot_date", _date),
        ("block", int),
        ("account", str),
        ("token_id", str),
        ("base_units", int),
        ("quantity", float),
        ("value_usd", float),
    ),
    record=PositionRow,
)


class SolutionRow(NamedTuple):
    """One solver row. ``weights`` is the cell as ``encode_weights`` writes
    it; it is read back encoded, since only the metrics stage reads a
    weight, and that stage decodes it with ``decode_weights``."""

    snapshot_date: dt.date
    account: str
    strategy: str
    weights: str
    mu: float
    sigma: float
    converged: bool
    iterations: int
    distance: float
    n_assets: int
    total_value_usd: float
    reason: str


SOLUTIONS = Table(
    (
        ("snapshot_date", _date),
        ("account", str),
        ("strategy", str),
        ("weights", str),
        ("mu", float),
        ("sigma", float),
        ("converged", _bool),
        ("iterations", int),
        ("distance", float),
        ("n_assets", int),
        ("total_value_usd", float),
        ("reason", str),
    ),
    record=SolutionRow,
)

# written from metrics.PerfRecord, read back as its fields in order
PERF = Table(
    (
        ("snapshot_date", _date),
        ("account", str),
        ("strategy", str),
        ("fwd_return", float),
        ("beta", float),
        ("alpha", float),
        ("market_fwd_return", float),
    )
)

# the report tables, written from metrics, decayfit and concentration
# records and read back as tuples

SUMMARY = Table(
    (
        ("strategy", str),
        ("median_return", float),
        ("hit_rate", _opt_float),
        ("median_alpha", float),
        ("frac_positive_alpha", float),
        ("n_records", int),
    )
)

EXCESS_CURVE = Table(
    (("snapshot_date", _date), ("strategy", str), ("cumulative_excess", float))
)

DISTANCE_HIST = Table(
    (("strategy", str), ("bin_lo_pct", float), ("bin_hi_pct", float), ("count", int))
)

DECAY_FIT = Table(
    (
        ("strategy", str),
        ("delta_inf", float),
        ("psi", float),
        ("gamma", float),
        ("r_squared", float),
        ("mae", float),
        ("n_bins", int),
        ("converged", _bool),
    )
)

CONCENTRATION = Table(
    (
        ("snapshot_date", _date),
        ("scope", str),
        ("gini", float),
        ("hhi", float),
        ("top_shares", _decode_top_shares),
        ("n_holders", int),
    )
)
