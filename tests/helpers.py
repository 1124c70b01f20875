"""Shared test utilities: random event streams and small builders."""

from __future__ import annotations

import math
import random

import numpy as np

from chainfrontier import storage
from chainfrontier.frontier import Strategy
from chainfrontier.ingest import ZERO_ACCOUNT, TransferEvent
from chainfrontier.marketdata import MomentEstimates


def moments(ids, means, cov) -> MomentEstimates:
    """MomentEstimates with everything eligible, for solver tests."""
    means = np.asarray(means, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return MomentEstimates(
        asset_ids=tuple(ids),
        eligible=np.ones(len(ids), dtype=bool),
        eligible_ids=tuple(ids),
        raw_means=means,
        shrunk_means=means,
        cross_mean=float(means.mean()),
        cov=cov,
        lw_intensity=0.0,
        n_obs=60,
    )


def lipschitz_bound(strategy, mu, cov, rf_daily, sigma_floor) -> float:
    """Objective change per unit of weight perturbation, for grid slack.

    The grid oracle sits at most a couple of steps from the true optimum,
    so the solver may beat it by no more than the objective's local slope
    times that displacement.
    """
    lam_max = float(np.linalg.eigvalsh(cov)[-1])
    l_mu = float(mu.max() - mu.min())
    l_sigma = math.sqrt(2.0 * max(lam_max, 0.0))
    if strategy is Strategy.MIN_VAR:
        return l_sigma
    if strategy is Strategy.MAX_RET:
        return l_mu
    return (l_mu + l_sigma * 2.0) / max(sigma_floor, 1e-9)


# each report file's table, in pipeline.REPORT_FILES order
REPORT_TABLES = {
    "summary.csv": storage.SUMMARY,
    "excess_curve.csv": storage.EXCESS_CURVE,
    "distance_hist.csv": storage.DISTANCE_HIST,
    "decay_fit.csv": storage.DECAY_FIT,
    "concentration.csv": storage.CONCENTRATION,
}


def net_minted(events) -> int:
    """Mints minus burns of an event stream: what its balances must sum to."""
    minted = sum(e.amount for e in events if e.sender == ZERO_ACCOUNT)
    burned = sum(e.amount for e in events if e.recipient == ZERO_ACCOUNT)
    return minted - burned


def random_stream(
    rng: random.Random,
    token_id: str,
    n_events: int,
    n_accounts: int = 8,
    start_block: int = 0,
) -> list[TransferEvent]:
    """Generate a sorted, never-overdrawing event stream for one token.

    Mixes mints, burns, transfers and the occasional self-transfer while
    tracking running balances so every event is executable.
    """
    accounts = [f"acct{i:03d}" for i in range(n_accounts)]
    balances = {a: 0 for a in accounts}
    events: list[TransferEvent] = []
    block = start_block
    log_index = 0

    while len(events) < n_events:
        if rng.random() < 0.3:
            block += rng.randint(1, 5)
            log_index = 0
        funded = [a for a in accounts if balances[a] > 0]
        roll = rng.random()
        if roll < 0.2 or not funded:
            # mint
            to = rng.choice(accounts)
            amount = rng.randint(1, 10**6)
            events.append(
                TransferEvent(token_id, block, log_index, ZERO_ACCOUNT, to, amount)
            )
            balances[to] += amount
        elif roll < 0.3:
            # burn part of a funded balance
            src = rng.choice(funded)
            amount = rng.randint(0, balances[src])
            events.append(
                TransferEvent(token_id, block, log_index, src, ZERO_ACCOUNT, amount)
            )
            balances[src] -= amount
        else:
            src = rng.choice(funded)
            dst = rng.choice(accounts)  # self-transfers allowed
            amount = rng.randint(0, balances[src])
            events.append(
                TransferEvent(token_id, block, log_index, src, dst, amount)
            )
            balances[src] -= amount
            balances[dst] += amount
        log_index += 1

    return events
