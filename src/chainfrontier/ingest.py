"""Event-sourced token ledgers.

Replays ordered transfer-event streams into exact per-account balance
histories, rejecting any event that would overdraw an account, and
screens tokens for inclusion before any statistics run. All amounts are
integers in base units; nothing here touches floats, so reconstruction is
exact by construction.
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
    """One token's ledger: each account's balance history.

    ``history`` maps every account the events touched to parallel lists
    ``(blocks, balances)``, one point per block that moved the account,
    holding its balance after that block's last event. No balance is ever
    negative.
    """

    token_id: str
    decimals: int
    history: dict[str, tuple[list[int], list[int]]] = field(repr=False)

    @property
    def accounts(self) -> tuple[str, ...]:
        return tuple(sorted(self.history))


def build_ledger(events: Sequence[TransferEvent], decimals: int) -> TokenLedger:
    """Replay an ordered single-token event stream into balance histories.

    Each transfer debits the sender and then credits the recipient; a mint
    skips the debit and a burn the credit. Events must be strictly ordered
    by (block, log_index), and no event may take an account below zero:
    mixed tokens, unsorted input, a negative amount and an overdraft are
    errors rather than something we silently repair.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")

    token_id: str | None = None
    prev_key: tuple[int, int] | None = None
    history: dict[str, tuple[list[int], list[int]]] = {}

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

        # the zero account mints and burns; it keeps no balance
        for account, delta in ((ev.sender, -ev.amount), (ev.recipient, ev.amount)):
            if account == ZERO_ACCOUNT:
                continue
            blocks, balances = history.setdefault(account, ([], []))
            balance = (balances[-1] if balances else 0) + delta
            if balance < 0:
                raise ValueError(f"event {key} overdraws {account!r} by {-balance}")
            if blocks and blocks[-1] == ev.block:
                balances[-1] = balance
            else:
                blocks.append(ev.block)
                balances.append(balance)

    return TokenLedger(
        token_id=token_id if token_id is not None else "",
        decimals=decimals,
        history=history,
    )


def balance_at(ledger: TokenLedger, account: str, block: int) -> int:
    """Exact balance of ``account`` after every event with block <= ``block``.

    Pure integer arithmetic; accounts the ledger never saw, and blocks
    before an account's first event, are zero.
    """
    pair = ledger.history.get(account)
    if pair is None:
        return 0
    blocks, balances = pair
    i = bisect.bisect_right(blocks, block)
    return balances[i - 1] if i else 0


def account_balances(ledger: TokenLedger, block: int) -> dict[str, int]:
    """Every nonzero account balance at ``block``."""
    out: dict[str, int] = {}
    for account in ledger.history:
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
