"""Tests for the synthetic market generator."""

import math

import numpy as np
import pytest

from chainfrontier import synth
from chainfrontier.config import PipelineConfig
from chainfrontier.ingest import ZERO_ACCOUNT, balance_at, build_ledger
from chainfrontier.synth import generate_market, simulate_log_returns

from helpers import net_minted
from oracles import events_for, replay_balance


def small_config(**overrides) -> PipelineConfig:
    defaults = dict(
        synth_tokens=6, synth_accounts=12, synth_months=3, seed=7, synth_max_size=4
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# ---------------------------------------------------------------------------
# price paths


def test_simulate_log_returns_moments():
    rng = np.random.default_rng(19)
    n = 10_000
    drifts = np.array([0.001, -0.0005])
    vols = np.array([0.02, 0.04])
    loadings = np.array([0.6, 0.8])
    r = simulate_log_returns(rng, n, drifts, vols, loadings)
    assert r.shape == (n, 2)
    for i in range(2):
        se_mean = vols[i] / np.sqrt(n)
        assert abs(r[:, i].mean() - drifts[i]) < 3 * se_mean
        se_sd = vols[i] / np.sqrt(2 * n)
        assert abs(r[:, i].std(ddof=1) - vols[i]) < 3 * se_sd
    corr = np.corrcoef(r.T)[0, 1]
    assert corr == pytest.approx(0.6 * 0.8, abs=0.05)


def test_simulate_log_returns_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="equal-length"):
        simulate_log_returns(rng, 10, [0.0], [0.1, 0.1], [0.5, 0.5])
    with pytest.raises(ValueError, match="loadings"):
        simulate_log_returns(rng, 10, [0.0], [0.1], [1.0])


def test_flat_model_gives_constant_prices(monkeypatch):
    monkeypatch.setattr(synth, "DRIFT_RANGE", (0.0, 0.0))
    monkeypatch.setattr(synth, "VOL_RANGE", (0.0, 0.0))
    market = generate_market(small_config())
    for series in market.prices.values():
        closes = set(series.closes)
        assert len(closes) == 1


def test_price_series_cover_snapshots_and_tail():
    cfg = small_config()
    market = generate_market(cfg)
    for series in market.prices.values():
        assert series.start == cfg.synth_start
        assert series.end >= market.snapshot_end
        assert (series.end - market.snapshot_end).days >= synth.TAIL_DAYS
        assert all(c is not None and c > 0 for c in series.closes)


# ---------------------------------------------------------------------------
# events and ground truth


def test_fixed_seed_reproduces_market():
    a = generate_market(small_config())
    b = generate_market(small_config())
    assert a.events == b.events
    assert a.metas == b.metas
    assert a.prices == b.prices
    assert a.volumes == b.volumes


def test_different_seeds_differ():
    a = generate_market(small_config(seed=1))
    b = generate_market(small_config(seed=2))
    assert a.events != b.events


def test_zero_transfer_rate_leaves_only_mints():
    market = generate_market(small_config(transfers_per_account_month=0.0))
    assert all(e.sender == ZERO_ACCOUNT for e in market.events)
    # every balance equals its single mint
    for e in market.events:
        assert market.oracle(e.token_id, e.recipient, e.block) == e.amount
        last_block = market.block_map.anchors[-1][0]
        assert market.oracle(e.token_id, e.recipient, last_block) == e.amount


def test_events_build_clean_ledgers():
    market = generate_market(small_config(transfers_per_account_month=6.0))
    saw_transfer = False
    for tid in market.token_ids:
        events = events_for(market, tid)
        if not events:
            continue
        ledger = build_ledger(events, decimals=6)
        saw_transfer |= any(
            e.sender != ZERO_ACCOUNT and e.recipient != ZERO_ACCOUNT for e in events
        )
        head = events[-1].block
        balances = {a: balance_at(ledger, a, head) for a in ledger.accounts}
        assert balances == {a: replay_balance(events, a, head) for a in balances}
        assert all(v >= 0 for v in balances.values())
        assert sum(balances.values()) == net_minted(events)
    assert saw_transfer


def test_oracle_matches_ledger_reconstruction():
    market = generate_market(small_config(transfers_per_account_month=8.0))
    rng = np.random.default_rng(3)
    max_block = market.block_map.anchors[-1][0]
    for tid in market.token_ids:
        events = events_for(market, tid)
        if not events:
            continue
        ledger = build_ledger(events, decimals=6)
        for account in ledger.accounts:
            for _ in range(5):
                block = int(rng.integers(0, max_block + 1))
                assert balance_at(ledger, account, block) == market.oracle(
                    tid, account, block
                )


def test_mcaps_and_volumes_match_the_events():
    """A market cap is the close times the minted supply, and a day's volume
    a base draw in [1e3, 1e6) plus the USD notional transferred that day;
    both are recomputed here from the emitted events."""
    market = generate_market(small_config(transfers_per_account_month=8.0))
    decimals = {m.token_id: m.decimals for m in market.metas}
    minted = dict.fromkeys(market.token_ids, 0)
    for e in market.events:
        if e.sender == ZERO_ACCOUNT:
            minted[e.token_id] += e.amount
    notional = {tid: [0.0] * len(s.closes) for tid, s in market.prices.items()}
    for e in market.events:
        if e.sender == ZERO_ACCOUNT or e.recipient == ZERO_ACCOUNT:
            continue
        day = e.block // synth.BLOCKS_PER_DAY
        close = market.prices[e.token_id].closes[day]
        notional[e.token_id][day] += e.amount / 10 ** decimals[e.token_id] * close
    assert any(any(days) for days in notional.values())

    for tid in market.token_ids:
        closes = market.prices[tid].closes
        qty = minted[tid] / 10 ** decimals[tid]
        assert market.mcaps[tid] == tuple(c * qty for c in closes)
        assert len(market.volumes[tid]) == len(closes)
        for volume, moved in zip(market.volumes[tid], notional[tid]):
            slack = 2 * math.ulp(volume)
            assert 1e3 - slack <= volume - moved < 1e6 + slack


def test_portfolio_sizes_respect_bounds():
    cfg = small_config(synth_min_size=2, synth_max_size=4)
    market = generate_market(cfg)
    held: dict[str, set[str]] = {}
    for e in market.events:
        if e.sender == ZERO_ACCOUNT:
            held.setdefault(e.recipient, set()).add(e.token_id)
    assert len(held) == cfg.synth_accounts
    assert all(2 <= len(tokens) <= 4 for tokens in held.values())


def test_block_map_points_at_day_ends():
    cfg = small_config()
    market = generate_market(cfg)
    bpd = synth.BLOCKS_PER_DAY
    assert market.block_map.block_for(cfg.synth_start) == bpd - 1
    day5 = cfg.synth_start.replace(day=6)
    assert market.block_map.block_for(day5) == 6 * bpd - 1


def test_metadata_passes_screens():
    from chainfrontier.ingest import filter_tokens

    market = generate_market(small_config())
    reports = filter_tokens(market.metas)
    assert all(r.passed for r in reports)
