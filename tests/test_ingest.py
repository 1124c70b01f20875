"""Ledger reconstruction tests.

The golden stream below is the worked three-transfer example: after a
500 X mint to alice, transfers alice->bob 100, bob->carol 50 and
alice->carol 30 must leave each account's balance history as written out
in the test, and alice with exactly 370 X.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfrontier import storage
from chainfrontier.errors import InputError, LedgerOrderError
from chainfrontier.ingest import (
    ZERO_ACCOUNT,
    FilterStage,
    TokenMeta,
    TransferEvent,
    account_balances,
    balance_at,
    build_ledger,
    filter_tokens,
)
from helpers import net_minted, random_stream
from oracles import replay_balance


# ---------------------------------------------------------------------------
# raw event files: storage.EVENTS reads them as TransferEvents
# ---------------------------------------------------------------------------


def _row(**kw):
    base = {
        "token_id": "X",
        "block": "1",
        "log_index": "0",
        "event_kind": "transfer",
        "from": "alice",
        "to": "bob",
        "amount": "100",
    }
    base.update(kw)
    return base


def _events_file(tmp_path, *rows):
    """An events file holding ``rows``, one line each after the header."""
    path = tmp_path / "events.csv"
    header = storage.EVENTS.header
    storage.write_csv(path, header, ([row[name] for name in header] for row in rows))
    return path


def _read(tmp_path, *rows):
    return storage.read_table(_events_file(tmp_path, *rows), storage.EVENTS)


def test_parse_transfer_row(tmp_path):
    (ev,) = _read(tmp_path, _row())
    assert ev == TransferEvent("X", 1, 0, "alice", "bob", 100)


def test_parse_deposit_becomes_mint(tmp_path):
    (ev,) = _read(tmp_path, _row(event_kind="deposit", **{"from": "", "to": "alice"}))
    assert ev.sender == ZERO_ACCOUNT
    assert ev.recipient == "alice"


def test_parse_withdrawal_becomes_burn(tmp_path):
    (ev,) = _read(
        tmp_path, _row(event_kind="withdrawal", **{"from": "alice", "to": ""})
    )
    assert ev.sender == "alice"
    assert ev.recipient == ZERO_ACCOUNT


def test_parse_preserves_input_order(tmp_path):
    rows = [
        _row(token_id="X", block="5", log_index="1"),
        _row(token_id="Y", block="2", log_index="0"),
        _row(token_id="X", block="5", log_index="2"),
    ]
    events = _read(tmp_path, *rows)
    assert [(e.token_id, e.block, e.log_index) for e in events] == [
        ("X", 5, 1),
        ("Y", 2, 0),
        ("X", 5, 2),
    ]


@pytest.mark.parametrize(
    "bad",
    [
        {"amount": ""},
        {"amount": "12.5"},
        {"block": "abc"},
        {"event_kind": "airdrop"},
        {"token_id": ""},
        {"from": "", "to": ""},  # transfer needs both ends
        {"block": "-3"},
        {"log_index": "-1"},
        {"event_kind": "deposit", "from": "", "to": ""},  # no account
        {"event_kind": "withdrawal", "from": "", "to": ""},
    ],
)
def test_parse_malformed_raises_with_position(tmp_path, bad):
    path = _events_file(tmp_path, _row(), _row(**bad))
    with pytest.raises(InputError) as exc:
        storage.read_table(path, storage.EVENTS)
    # the header is line 1, so the second record is on line 3
    assert str(exc.value).startswith(f"{path}, line 3")


def test_parse_negative_amount_is_an_input_error(tmp_path):
    path = _events_file(tmp_path, _row(), _row(amount="-5"), _row(block="7"))
    with pytest.raises(InputError) as exc:
        storage.read_table(path, storage.EVENTS)
    assert str(exc.value) == f"{path}, line 3: negative amount -5"


def test_parse_amount_handles_arbitrary_precision(tmp_path):
    big = str(2**200)
    (ev,) = _read(tmp_path, _row(amount=big))
    assert ev.amount == 2**200


# ---------------------------------------------------------------------------
# build_ledger: golden stream
# ---------------------------------------------------------------------------


def golden_events() -> list[TransferEvent]:
    return [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 500),
        TransferEvent("X", 2, 0, "alice", "bob", 100),
        TransferEvent("X", 3, 0, "bob", "carol", 50),
        TransferEvent("X", 4, 0, "alice", "carol", 30),
    ]


def test_golden_ledger_histories_and_balances():
    ledger = build_ledger(golden_events(), decimals=0)
    # one (block, balance) point per block that moved the account
    assert ledger.history == {
        "alice": ([1, 2, 4], [500, 400, 370]),
        "bob": ([2, 3], [100, 50]),
        "carol": ([3, 4], [50, 80]),
    }
    assert ledger.accounts == ("alice", "bob", "carol")
    assert balance_at(ledger, "alice", 4) == 370
    assert balance_at(ledger, "bob", 4) == 50
    assert balance_at(ledger, "carol", 4) == 80
    # intermediate states
    assert balance_at(ledger, "alice", 1) == 500
    assert balance_at(ledger, "alice", 2) == 400
    assert balance_at(ledger, "carol", 2) == 0
    assert balance_at(ledger, "nobody", 4) == 0
    assert balance_at(ledger, "alice", 0) == 0


def test_burn_produces_debit_only():
    events = [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 100),
        TransferEvent("X", 2, 0, "alice", ZERO_ACCOUNT, 40),
    ]
    ledger = build_ledger(events, decimals=0)
    # the zero account keeps no balance
    assert ledger.history == {"alice": ([1, 2], [100, 60])}
    assert balance_at(ledger, "alice", 2) == 60


def test_self_transfer_keeps_balance():
    events = [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 100),
        TransferEvent("X", 2, 0, "alice", "alice", 100),
    ]
    ledger = build_ledger(events, decimals=0)
    assert balance_at(ledger, "alice", 2) == 100
    # the paired debit and credit land on one point of block 2
    assert ledger.history == {"alice": ([1, 2], [100, 100])}


def test_unsorted_stream_raises():
    events = [
        TransferEvent("X", 2, 0, ZERO_ACCOUNT, "alice", 100),
        TransferEvent("X", 1, 0, "alice", "bob", 10),
    ]
    with pytest.raises(LedgerOrderError):
        build_ledger(events, decimals=0)
    # duplicate (block, log_index) is also rejected
    events = [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 100),
        TransferEvent("X", 1, 0, "alice", "bob", 10),
    ]
    with pytest.raises(LedgerOrderError):
        build_ledger(events, decimals=0)


def test_mixed_token_stream_raises():
    events = [
        TransferEvent("X", 1, 0, ZERO_ACCOUNT, "alice", 100),
        TransferEvent("Y", 2, 0, "alice", "bob", 10),
    ]
    with pytest.raises(ValueError, match="mixed token"):
        build_ledger(events, decimals=0)


# ---------------------------------------------------------------------------
# balance_at vs naive replay, conservation
# ---------------------------------------------------------------------------


def test_indexed_balance_matches_replay_on_random_streams():
    rng = random.Random(1234)
    for trial in range(20):
        events = random_stream(rng, f"T{trial}", n_events=300)
        ledger = build_ledger(events, decimals=0)
        head = events[-1].block
        for _ in range(50):
            account = f"acct{rng.randrange(8):03d}"
            block = rng.randint(0, head + 2)
            assert balance_at(ledger, account, block) == replay_balance(
                events, account, block
            )


def test_conservation_on_random_streams():
    rng = random.Random(99)
    for trial in range(10):
        events = random_stream(rng, f"T{trial}", n_events=500)
        ledger = build_ledger(events, decimals=0)
        totals = account_balances(ledger, events[-1].block)
        assert sum(totals.values()) == net_minted(events)
        assert all(v > 0 for v in totals.values())


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120))
def test_conservation_property(seed, n):
    events = random_stream(random.Random(seed), "T", n_events=n)
    ledger = build_ledger(events, decimals=0)
    head = events[-1].block
    assert sum(account_balances(ledger, head).values()) == net_minted(events)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), pick=st.integers(0))
def test_overdraft_is_rejected_at_its_event(seed, n, pick):
    """Every generated stream builds; raising one debit past the sender's
    running balance makes that event, and no earlier one, an error."""
    events = random_stream(random.Random(seed), "T", n_events=n)
    build_ledger(events, decimals=0)
    debits = [k for k, e in enumerate(events) if e.sender != ZERO_ACCOUNT]
    assume(debits)
    k = debits[pick % len(debits)]
    e = events[k]
    # the sender's balance just before event k, in event order
    before = events[:k]
    running = sum(d.amount for d in before if d.recipient == e.sender) - sum(
        d.amount for d in before if d.sender == e.sender
    )
    events[k] = e._replace(amount=running + 1)
    message = f"event ({e.block}, {e.log_index}) overdraws {e.sender!r} by 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_ledger(events, decimals=0)


# ---------------------------------------------------------------------------
# filter_tokens
# ---------------------------------------------------------------------------


def _meta(**kw) -> TokenMeta:
    base = dict(
        token_id="X",
        decimals=18,
        price_history_days=100,
        total_volume=1e6,
        market_cap=1e9,
        fdv=2e9,
        erc20_compliant=True,
        reference_mcap=1e12,
    )
    base.update(kw)
    return TokenMeta(**base)


def test_filter_passes_clean_token():
    (report,) = filter_tokens([_meta()])
    assert report.passed and report.rejected_stage is None


@pytest.mark.parametrize(
    "kw, stage",
    [
        (dict(erc20_compliant=False), FilterStage.NON_COMPLIANT),
        (dict(price_history_days=14), FilterStage.INSUFFICIENT_PRICING),
        (dict(price_history_days=None), FilterStage.INSUFFICIENT_PRICING),
        (dict(total_volume=0.5), FilterStage.NEGLIGIBLE_VOLUME),
        (dict(total_volume=None), FilterStage.NEGLIGIBLE_VOLUME),
        (dict(market_cap=2e12), FilterStage.INVALID_SUPPLY),
        (dict(fdv=5e12), FilterStage.INVALID_SUPPLY),
    ],
)
def test_filter_rejects_at_expected_stage(kw, stage):
    (report,) = filter_tokens([_meta(**kw)])
    assert not report.passed
    assert report.rejected_stage is stage


def test_filter_reports_first_failing_stage_only():
    # fails compliance and volume; compliance comes first in the pipeline
    (report,) = filter_tokens([_meta(erc20_compliant=False, total_volume=0.0)])
    assert report.rejected_stage is FilterStage.NON_COMPLIANT


def test_filter_boundary_values():
    (report,) = filter_tokens([_meta(price_history_days=15)])
    assert report.passed  # 15 days is enough
    (report,) = filter_tokens([_meta(total_volume=1.0)])
    assert report.passed  # exactly $1 of volume passes
    (report,) = filter_tokens([_meta(market_cap=1e12)])
    assert report.passed  # equal to reference cap is allowed


def test_filter_unknown_mcap_passes_supply_check():
    (report,) = filter_tokens([_meta(market_cap=None, fdv=None)])
    assert report.passed
