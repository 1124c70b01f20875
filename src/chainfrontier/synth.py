"""Synthetic market generator with exact ground truth.

Builds a small token universe with correlated geometric-Brownian price
paths, per-account holdings, and an integer transfer stream that never
overdraws. While emitting events the generator keeps its own running
balance history, which later serves as an oracle that is independent of
the ledger reconstruction under test. Everything is a pure function of
the seed.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, synth_token_ids
from .ingest import ZERO_ACCOUNT, TokenMeta, TransferEvent
from .portfolio import BlockTimeMap, _add_months, _first_of_next_month
from .prices import PriceSeries

__all__ = ["SynthMarket", "generate_market", "simulate_log_returns"]


# the price model's per-token ranges: drift is a mean daily log return,
# volatility its daily standard deviation, and the factor loading sets
# cross-token correlation through a one-factor structure (which keeps the
# implied correlation matrix PSD by construction)
DRIFT_RANGE = (-0.002, 0.003)
VOL_RANGE = (0.01, 0.05)
FACTOR_LOADING_RANGE = (0.2, 0.9)
# priced days before the first snapshot (at least) and after the last one
LEAD_DAYS = 70
TAIL_DAYS = 25
BLOCKS_PER_DAY = 7200


def simulate_log_returns(
    rng: np.random.Generator,
    n_steps: int,
    drifts,
    vols,
    loadings,
) -> np.ndarray:
    """Correlated daily log returns, one column per token.

    Column i has mean ``drifts[i]`` and standard deviation ``vols[i]``;
    the cross-correlation of columns i and j is loadings[i]*loadings[j].
    """
    mu = np.asarray(drifts, dtype=float)
    sigma = np.asarray(vols, dtype=float)
    lam = np.asarray(loadings, dtype=float)
    if not (mu.shape == sigma.shape == lam.shape) or mu.ndim != 1:
        raise ValueError("drifts, vols and loadings must be equal-length vectors")
    if np.any(sigma < 0):
        raise ValueError("volatility must be non-negative")
    if np.any(lam < 0) or np.any(lam >= 1):
        raise ValueError("factor loadings must lie in [0, 1)")
    n = mu.size
    corr = np.outer(lam, lam)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    shocks = rng.standard_normal((n_steps, n)) @ chol.T
    return mu + sigma * shocks


@dataclass(frozen=True)
class SynthMarket:
    """One generated market: prices, events, metadata, and ground truth.

    ``events`` are in global block order (per-token order follows).
    ``volumes`` and ``mcaps`` parallel each token's price series by day.
    ``snapshot_end`` opens the last month the generator guaranteed full
    lookback and forward coverage for.
    """

    token_ids: tuple[str, ...]
    metas: tuple[TokenMeta, ...]
    prices: dict[str, PriceSeries]
    volumes: dict[str, tuple[float, ...]]
    mcaps: dict[str, tuple[float, ...]]
    events: tuple[TransferEvent, ...]
    block_map: BlockTimeMap
    snapshot_end: dt.date
    _history: dict[tuple[str, str], tuple[list[int], list[int]]] = field(
        repr=False, compare=False, default_factory=dict
    )

    def oracle(self, token_id: str, account: str, block: int) -> int:
        """Ground-truth balance from generation-time running totals."""
        hist = self._history.get((token_id, account))
        if hist is None:
            return 0
        blocks, balances = hist
        i = bisect.bisect_right(blocks, block)
        return balances[i - 1] if i else 0

    def holders(self, token_id: str) -> tuple[str, ...]:
        """Accounts that ever touched the token, sorted."""
        return tuple(sorted(a for t, a in self._history if t == token_id))

    @property
    def max_block(self) -> int:
        return self.block_map.anchors[-1][0]


class _Emitter:
    """Accumulates events plus the ground truth: each (token, account)'s
    balance after every block that changed it, the last one current."""

    def __init__(self) -> None:
        self.events: list[TransferEvent] = []
        self.history: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        self._log_indexes: dict[tuple[str, int], int] = {}

    def _record(self, token: str, account: str, block: int, delta: int) -> None:
        blocks, values = self.history.setdefault((token, account), ([], []))
        bal = (values[-1] if values else 0) + delta
        if bal < 0:
            raise AssertionError("generator produced an overdraft")
        if blocks and blocks[-1] == block:
            values[-1] = bal
        else:
            blocks.append(block)
            values.append(bal)

    def emit(self, token: str, block: int, sender: str, recipient: str, amount: int) -> None:
        li_key = (token, block)
        log_index = self._log_indexes.get(li_key, 0)
        self._log_indexes[li_key] = log_index + 1
        self.events.append(
            TransferEvent(
                token_id=token,
                block=block,
                log_index=log_index,
                sender=sender,
                recipient=recipient,
                amount=amount,
            )
        )
        if sender != ZERO_ACCOUNT:
            self._record(token, sender, block, -amount)
        if recipient != ZERO_ACCOUNT:
            self._record(token, recipient, block, amount)

    def balance(self, token: str, account: str) -> int:
        hist = self.history.get((token, account))
        return hist[1][-1] if hist else 0


def generate_market(cfg: PipelineConfig) -> SynthMarket:
    """Generate one deterministic market from ``cfg.seed`` and the
    ``synth_*`` fields and ``transfers_per_account_month`` of ``cfg``."""
    rng = np.random.default_rng(cfg.seed)
    token_ids = synth_token_ids(cfg.synth_tokens)

    snapshot_start = _first_of_next_month(
        cfg.synth_start + dt.timedelta(days=LEAD_DAYS)
    )
    snapshot_end = _add_months(snapshot_start, cfg.synth_months - 1)
    price_end = snapshot_end + dt.timedelta(days=TAIL_DAYS)
    n_days = (price_end - cfg.synth_start).days + 1

    # --- price model -------------------------------------------------------
    drifts = rng.uniform(*DRIFT_RANGE, size=cfg.synth_tokens)
    vols = rng.uniform(*VOL_RANGE, size=cfg.synth_tokens)
    loadings = rng.uniform(*FACTOR_LOADING_RANGE, size=cfg.synth_tokens)
    p0 = np.empty(cfg.synth_tokens)
    p0[0] = 1800.0 * rng.uniform(0.9, 1.1)
    p0[1] = 28000.0 * rng.uniform(0.9, 1.1)
    p0[2:] = rng.uniform(0.5, 200.0, size=cfg.synth_tokens - 2)

    log_returns = simulate_log_returns(rng, n_days - 1, drifts, vols, loadings)
    closes = np.vstack([p0, p0 * np.exp(np.cumsum(log_returns, axis=0))])

    decimals = {tid: int(rng.choice((6, 8, 18))) for tid in token_ids}

    # --- holdings and mints ------------------------------------------------
    accounts = tuple(f"0x{i:040x}" for i in range(1, cfg.synth_accounts + 1))
    sizes = rng.integers(
        cfg.synth_min_size, cfg.synth_max_size + 1, size=cfg.synth_accounts
    )
    holder_lists: dict[str, list[str]] = {tid: [] for tid in token_ids}
    # only day-zero mints create tokens, so supply is constant: the mints'
    # sum as emitted, which times the price gives the market-cap path
    minted = {tid: 0 for tid in token_ids}
    emitter = _Emitter()
    bpd = BLOCKS_PER_DAY
    for account, size in zip(accounts, sizes):
        chosen = rng.choice(cfg.synth_tokens, size=int(size), replace=False)
        # one mint per held token, landed somewhere in day zero
        for idx in sorted(int(i) for i in chosen):
            tid = token_ids[idx]
            holder_lists[tid].append(account)
            target_usd = 10.0 ** rng.uniform(1.0, 5.0)
            qty = int(target_usd / p0[idx] * 10 ** decimals[tid]) + 1
            block = int(rng.integers(0, bpd))
            emitter.emit(tid, block, ZERO_ACCOUNT, account, qty)
            minted[tid] += qty

    # --- transfer stream ---------------------------------------------------
    n_transfers = round(
        cfg.transfers_per_account_month * cfg.synth_accounts * cfg.synth_months
    )
    active = [tid for tid in token_ids if len(holder_lists[tid]) >= 2]
    column = {tid: col for col, tid in enumerate(token_ids)}
    # USD notional transferred per (day, token), added as each transfer is
    # emitted, so in block and log-index order
    notional = np.zeros((n_days, cfg.synth_tokens))
    if n_transfers and active:
        blocks = np.sort(rng.integers(bpd, n_days * bpd, size=n_transfers))
        token_picks = rng.integers(0, len(active), size=n_transfers)
        for block, pick in zip(blocks, token_picks):
            tid = active[int(pick)]
            holders = holder_lists[tid]
            sender = holders[int(rng.integers(0, len(holders)))]
            bal = emitter.balance(tid, sender)
            if bal < 3:
                # fall back to the deepest pocket so activity never overdraws
                sender = max(holders, key=lambda a: (emitter.balance(tid, a), a))
                bal = emitter.balance(tid, sender)
                if bal < 3:
                    continue
            others = [a for a in holders if a != sender]
            recipient = others[int(rng.integers(0, len(others)))]
            # balances exceed int64 at 18 decimals, so scale a unit draw
            amount = min(1 + int(rng.random() * float(bal // 3)), bal // 3)
            emitter.emit(tid, int(block), sender, recipient, amount)
            day, col = int(block) // bpd, column[tid]
            notional[day, col] += amount / 10 ** decimals[tid] * closes[day, col]

    # events were emitted in block order per token; sort globally for output
    events = tuple(
        sorted(emitter.events, key=lambda e: (e.block, e.token_id, e.log_index))
    )

    # --- series, volumes, metadata ----------------------------------------
    prices: dict[str, PriceSeries] = {}
    volumes: dict[str, tuple[float, ...]] = {}
    mcaps: dict[str, tuple[float, ...]] = {}
    vol_paths = rng.uniform(1e3, 1e6, size=(n_days, cfg.synth_tokens)) + notional
    for col, tid in enumerate(token_ids):
        series_closes = tuple(float(c) for c in closes[:, col])
        prices[tid] = PriceSeries(tid, cfg.synth_start, series_closes)
        volumes[tid] = tuple(float(v) for v in vol_paths[:, col])
        qty = minted[tid] / 10 ** decimals[tid]
        mcaps[tid] = tuple(float(c * qty) for c in series_closes)

    reference = 2.0 * max(max(path) for path in mcaps.values())
    metas = tuple(
        TokenMeta(
            token_id=tid,
            decimals=decimals[tid],
            price_history_days=n_days,
            total_volume=float(sum(volumes[tid])),
            market_cap=mcaps[tid][-1],
            fdv=mcaps[tid][-1],
            erc20_compliant=True,
            reference_mcap=reference,
        )
        for tid in token_ids
    )

    # anchor each day at its last block so snapshots see the full day
    block_map = BlockTimeMap(
        anchors=tuple(
            ((k + 1) * bpd - 1, cfg.synth_start + dt.timedelta(days=k))
            for k in range(n_days)
        )
    )

    return SynthMarket(
        token_ids=token_ids,
        metas=metas,
        prices=prices,
        volumes=volumes,
        mcaps=mcaps,
        events=events,
        block_map=block_map,
        snapshot_end=snapshot_end,
        _history=emitter.history,
    )
