"""Event-sourced token ledgers.

Rebuilds exact per-account balance histories from ordered transfer-event
streams and screens tokens for inclusion before any statistics run. All
amounts are integers in base units; nothing here touches floats, so
reconstruction is exact by construction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import LedgerOrderError

# Reserved identifier for the mint/burn counterparty. Transfers from it are
# mints (deposits), transfers to it are burns (withdrawals).
ZERO_ACCOUNT = "0x0"


class TransferEvent(NamedTuple):
    """One token movement, normalized to sender/recipient form.

    ``amount`` is a non-negative int in base units. ``block`` and
    ``log_index`` order events within a token. ``storage.EVENTS`` reads
    and writes them.
    """

    token_id: str
    block: int
    log_index: int
    sender: str
    recipient: str
    amount: int


@dataclass(frozen=True)
class LedgerEntry:
    """A signed balance change for one account.

    Every transfer between two live accounts yields a debit entry
    (negative delta) followed by a credit entry (positive delta); mints
    and burns yield only the credit or only the debit.
    """

    token_id: str
    account: str
    block: int
    log_index: int
    delta: int


class FilterStage(Enum):
    """Screening stages, in the order they are applied."""

    NON_COMPLIANT = "non_compliant"
    INSUFFICIENT_PRICING = "insufficient_pricing"
    NEGLIGIBLE_VOLUME = "negligible_volume"
    INVALID_SUPPLY = "invalid_supply"
    INCONSISTENT_BALANCE = "inconsistent_balance"


@dataclass(frozen=True)
class TokenMeta:
    """Descriptive token fields used by the screening stages.

    ``None`` means the field is unknown upstream; each filter treats
    unknowns conservatively (see ``filter_tokens``).
    """

    token_id: str
    decimals: int
    price_history_days: int | None = None
    total_volume: float | None = None
    market_cap: float | None = None
    fdv: float | None = None
    erc20_compliant: bool = True
    reference_mcap: float | None = None


@dataclass(frozen=True)
class FilterReport:
    token_id: str
    passed: bool
    rejected_stage: FilterStage | None = None
    detail: str = ""


@dataclass(frozen=True)
class TokenLedger:
    """Full reconstructed entry stream for one token plus a query index.

    ``entries`` keep event order: sorted by (block, log_index), debit
    before credit within an event. A mint keeps only its credit and a burn
    only its debit, so the deltas sum to the net minted supply.
    """

    token_id: str
    decimals: int
    entries: tuple[LedgerEntry, ...]
    # per account: parallel (blocks, cumulative balances), one point per
    # block that touched the account, used for O(log n) balance queries
    _index: dict[str, tuple[list[int], list[int]]] = field(
        repr=False, compare=False, default_factory=dict
    )

    @property
    def accounts(self) -> tuple[str, ...]:
        return tuple(sorted(self._index))

    @property
    def max_block(self) -> int:
        return self.entries[-1].block if self.entries else 0


def build_ledger(events: Sequence[TransferEvent], decimals: int) -> TokenLedger:
    """Expand an ordered single-token event stream into ledger entries.

    Each transfer produces a debit for the sender and a credit for the
    recipient; mints skip the debit, burns skip the credit. Events must be
    strictly ordered by (block, log_index); mixing tokens or handing over
    unsorted input is an error rather than something we silently repair.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")

    entries: list[LedgerEntry] = []
    token_id: str | None = None
    prev_key: tuple[int, int] | None = None
    index: dict[str, tuple[list[int], list[int]]] = {}

    for ev in events:
        if token_id is None:
            token_id = ev.token_id
        elif ev.token_id != token_id:
            raise ValueError(
                f"mixed token stream: {ev.token_id!r} in ledger for {token_id!r}"
            )
        key = (ev.block, ev.log_index)
        if prev_key is not None and key <= prev_key:
            raise LedgerOrderError(
                f"events not sorted by (block, log_index): {key} after {prev_key}"
            )
        prev_key = key
        if ev.amount < 0:
            raise ValueError("negative amount reached the ledger builder")

        from_zero = ev.sender == ZERO_ACCOUNT
        to_zero = ev.recipient == ZERO_ACCOUNT
        if from_zero and to_zero:
            continue  # degenerate zero-to-zero event moves nothing
        if not from_zero:
            entries.append(
                LedgerEntry(token_id, ev.sender, ev.block, ev.log_index, -ev.amount)
            )
            _index_add(index, ev.sender, ev.block, -ev.amount)
        if not to_zero:
            entries.append(
                LedgerEntry(token_id, ev.recipient, ev.block, ev.log_index, ev.amount)
            )
            _index_add(index, ev.recipient, ev.block, ev.amount)

    return TokenLedger(
        token_id=token_id if token_id is not None else "",
        decimals=decimals,
        entries=tuple(entries),
        _index=index,
    )


def _index_add(
    index: dict[str, tuple[list[int], list[int]]], account: str, block: int, delta: int
) -> None:
    blocks, cums = index.setdefault(account, ([], []))
    total = (cums[-1] if cums else 0) + delta
    if blocks and blocks[-1] == block:
        cums[-1] = total
    else:
        blocks.append(block)
        cums.append(total)


def balance_at(ledger: TokenLedger, account: str, block: int) -> int:
    """Exact balance of ``account`` after all entries with block <= ``block``.

    Pure integer arithmetic; accounts the ledger never saw, and blocks
    before an account's first entry, are zero.
    """
    pair = ledger._index.get(account)
    if pair is None:
        return 0
    blocks, cums = pair
    i = bisect.bisect_right(blocks, block)
    return cums[i - 1] if i else 0


def replay_balance(
    entries: Iterable[LedgerEntry], account: str, block: int
) -> int:
    """Naive linear-scan balance, kept as an independent cross-check
    for the indexed ``balance_at`` path."""
    total = 0
    for e in entries:
        if e.block <= block and e.account == account:
            total += e.delta
    return total


def account_balances(ledger: TokenLedger, block: int | None = None) -> dict[str, int]:
    """All account balances at ``block`` (default: ledger head)."""
    if block is None:
        block = ledger.max_block
    out: dict[str, int] = {}
    for account in ledger._index:
        bal = balance_at(ledger, account, block)
        if bal:
            out[account] = bal
    return out


def filter_tokens(
    metas: Iterable[TokenMeta],
    min_price_days: int = 15,
    min_volume: float = 1.0,
) -> list[FilterReport]:
    """Screen tokens, recording the first failing stage per token.

    Stage order is fixed: compliance, pricing depth, cumulative volume,
    supply plausibility. Balance consistency is the ingest stage's probe
    check (``pipeline._probe_check``), run afterwards on each passed
    token's ledger. Unknown volume or pricing depth fails its stage;
    unknown market cap or FDV passes the supply check because there is
    nothing to compare.
    """
    reports: list[FilterReport] = []
    for meta in metas:
        reports.append(_screen_one(meta, min_price_days, min_volume))
    return reports


def _screen_one(
    meta: TokenMeta, min_price_days: int, min_volume: float
) -> FilterReport:
    if not meta.erc20_compliant:
        return FilterReport(
            meta.token_id, False, FilterStage.NON_COMPLIANT, "not ERC-20 compliant"
        )
    days = meta.price_history_days or 0
    if days < min_price_days:
        return FilterReport(
            meta.token_id,
            False,
            FilterStage.INSUFFICIENT_PRICING,
            f"{days} days of prices < {min_price_days}",
        )
    volume = meta.total_volume or 0.0
    if volume < min_volume:
        return FilterReport(
            meta.token_id,
            False,
            FilterStage.NEGLIGIBLE_VOLUME,
            f"cumulative volume {volume} < {min_volume}",
        )
    if meta.reference_mcap is not None:
        for label, value in (("market cap", meta.market_cap), ("fdv", meta.fdv)):
            if value is not None and value > meta.reference_mcap:
                return FilterReport(
                    meta.token_id,
                    False,
                    FilterStage.INVALID_SUPPLY,
                    f"{label} {value} exceeds reference {meta.reference_mcap}",
                )
    return FilterReport(meta.token_id, True)
