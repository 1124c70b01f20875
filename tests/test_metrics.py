"""Tests for distance and performance metrics, and for the perf rows that
the metrics stage writes."""

import datetime as dt
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainfrontier import storage
from chainfrontier.config import PipelineConfig
from chainfrontier.marketdata import asset_beta, log_returns, market_index
from chainfrontier.metrics import (
    AggregateReport,
    PerfRecord,
    aggregate,
    capm_alpha,
)
from chainfrontier.pipeline import PERF, PIPELINE_STAGES, PRICES, SOLUTIONS, run_pipeline
from chainfrontier.prices import price_series
from oracles import forward_return, l1_distance


# ---------------------------------------------------------------------------
# l1 distance


def test_l1_distance_worked_example():
    # 0.5 * (|0.5-0.9| + |0.5-0.1|) = 0.5 * 0.8
    assert l1_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.4, abs=1e-12)


def test_l1_distance_identical_books():
    assert l1_distance([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_l1_distance_disjoint_books():
    assert l1_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_l1_distance_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        l1_distance([1.0], [0.5, 0.5])


def test_l1_distance_rejects_bad_weights():
    with pytest.raises(ValueError, match="negative"):
        l1_distance([1.2, -0.2], [0.5, 0.5])
    with pytest.raises(ValueError, match="sums"):
        l1_distance([0.5, 0.5], [0.6, 0.6])


def _simplex(n):
    return (
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        .filter(lambda xs: sum(xs) > 1e-6)
        .map(lambda xs: [x / sum(xs) for x in xs])
    )


@given(_simplex(4), _simplex(4), _simplex(4))
def test_l1_distance_is_a_metric(a, b, c):
    d_ab = l1_distance(a, b)
    assert 0.0 <= d_ab <= 1.0 + 1e-9
    assert d_ab == pytest.approx(l1_distance(b, a), abs=1e-12)
    assert d_ab <= l1_distance(a, c) + l1_distance(c, b) + 1e-9


# ---------------------------------------------------------------------------
# forward return


def test_forward_return_offsetting_moves():
    r = forward_return([0.5, 0.5], [10.0, 20.0], [11.0, 18.0])
    assert r == pytest.approx(0.5 * 0.1 + 0.5 * (-0.1), abs=1e-12)


def test_forward_return_single_asset_doubles():
    assert forward_return([1.0, 0.0], [5.0, 3.0], [10.0, 3.0]) == pytest.approx(1.0)


def test_forward_return_ignores_prices_of_unheld_assets():
    r = forward_return([1.0, 0.0], [5.0, np.nan], [6.0, np.nan])
    assert r == pytest.approx(0.2)


def test_forward_return_missing_held_price():
    with pytest.raises(ValueError, match="start price"):
        forward_return([0.5, 0.5], [10.0, np.nan], [11.0, 18.0])
    with pytest.raises(ValueError, match="end price"):
        forward_return([0.5, 0.5], [10.0, 20.0], [11.0, np.nan])
    with pytest.raises(ValueError, match="start price"):
        forward_return([0.5, 0.5], [10.0, 0.0], [11.0, 18.0])


def test_forward_return_shape_mismatch():
    with pytest.raises(ValueError, match="align"):
        forward_return([1.0], [5.0, 3.0], [6.0, 3.0])


# ---------------------------------------------------------------------------
# the metrics stage


@pytest.fixture(scope="module")
def through_metrics(tmp_path_factory):
    """A small workspace built through the metrics stage."""
    cfg = PipelineConfig(
        workspace=tmp_path_factory.mktemp("metrics") / "ws",
        seed=11,
        synth_tokens=8,
        synth_accounts=15,
        synth_months=3,
        synth_max_size=6,
    )
    run_pipeline(cfg, PIPELINE_STAGES[: PIPELINE_STAGES.index("metrics") + 1])
    return cfg


def test_perf_rows_match_the_forward_return_and_beta_references(through_metrics):
    # every converged solution row has one perf row, whose return is the
    # reference buy-and-hold return over the row's closes on the snapshot
    # and forward days, and whose beta is the weighted sum of each token's
    # beta over the lookback window
    cfg = through_metrics
    ws = cfg.workspace
    prices = price_series(storage.read_table(ws / PRICES, storage.PRICES))
    checked = 0
    for path in sorted((ws / SOLUTIONS).glob("*.csv")):
        records = [
            PerfRecord(*row) for row in storage.read_table(ws / PERF / path.name, storage.PERF)
        ]
        perf = {(r.account, r.strategy): r for r in records}
        converged = [s for s in storage.read_table(path, storage.SOLUTIONS) if s.converged]
        assert len(perf) == len(records) == len(converged)
        for sol in converged:
            day = sol.snapshot_date
            end = day + dt.timedelta(days=cfg.forward_days)
            market = market_index(
                *(log_returns(prices[t], day, cfg.lookback_days) for t in cfg.market_tokens)
            )
            weights = storage.decode_weights(sol.weights)
            tids = sorted(weights)
            w = [weights[t] for t in tids]
            p0 = [prices[t].close_on(day) for t in tids]
            p1 = [prices[t].close_on(end) for t in tids]
            betas = [
                asset_beta(log_returns(prices[t], day, cfg.lookback_days), market)
                for t in tids
            ]
            row = perf[sol.account, sol.strategy]
            assert row.snapshot_date == day
            assert row.fwd_return == forward_return(w, p0, p1)
            assert row.beta == sum(wi * b for wi, b in zip(w, betas))
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# CAPM alpha


def test_capm_alpha_worked_example():
    assert capm_alpha(0.05, 1.2, 0.03) == pytest.approx(0.014, abs=1e-12)


def test_capm_alpha_zero_beta_passes_return_through():
    assert capm_alpha(0.07, 0.0, 0.03) == pytest.approx(0.07)


def test_capm_alpha_flat_market():
    assert capm_alpha(0.02, 1.5, 0.0) == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# aggregation


def _rec(snap, account, strategy, ret, alpha=0.0, market=0.0, beta=1.0):
    return PerfRecord(
        snapshot_date=snap,
        account=account,
        strategy=strategy,
        fwd_return=ret,
        beta=beta,
        alpha=alpha,
        market_fwd_return=market,
    )


SNAP1 = dt.date(2024, 1, 1)
SNAP2 = dt.date(2024, 2, 1)


def test_aggregate_empty_input():
    assert aggregate([]) == AggregateReport((), ())


def test_aggregate_hit_rate_counts_strict_wins():
    recs = [
        _rec(SNAP1, "a", "min_var", 0.01),
        _rec(SNAP1, "b", "min_var", 0.02),
        _rec(SNAP1, "c", "min_var", 0.03),
        _rec(SNAP1, "a", "baseline", 0.00),
        _rec(SNAP1, "b", "baseline", 0.00),
        _rec(SNAP1, "c", "baseline", 0.05),
    ]
    report = aggregate(recs)
    by_name = {s.strategy: s for s in report.summaries}
    assert by_name["min_var"].hit_rate == pytest.approx(2 / 3)
    assert by_name["baseline"].hit_rate is None


def test_hit_rate_ignores_rounding_ties():
    # a return one ulp above the baseline is the same book up to rounding;
    # one 1e-6 above is a real win
    base = 0.0123
    recs = [
        _rec(SNAP1, "a", "min_var", math.nextafter(base, 1.0)),
        _rec(SNAP1, "b", "min_var", base + 1e-6),
        _rec(SNAP1, "a", "baseline", base),
        _rec(SNAP1, "b", "baseline", base),
    ]
    by_name = {s.strategy: s for s in aggregate(recs).summaries}
    assert by_name["min_var"].hit_rate == pytest.approx(0.5)


def test_aggregate_median_of_snapshot_medians():
    # snapshot medians 0.02 and 0.10; the report takes their median, not
    # the pooled median over all six records
    recs = [
        _rec(SNAP1, "a", "s", 0.01),
        _rec(SNAP1, "b", "s", 0.02),
        _rec(SNAP1, "c", "s", 0.03),
        _rec(SNAP2, "a", "s", 0.09),
        _rec(SNAP2, "b", "s", 0.10),
        _rec(SNAP2, "c", "s", 0.11),
    ]
    report = aggregate(recs)
    (summary,) = report.summaries
    assert summary.median_return == pytest.approx(0.06)
    assert summary.n_records == 6


def test_aggregate_cumulative_excess_curve():
    recs = [
        _rec(SNAP1, "a", "s", 0.05, market=0.02),
        _rec(SNAP2, "a", "s", 0.01, market=0.03),
    ]
    report = aggregate(recs)
    points = [p for p in report.excess_curve if p.strategy == "s"]
    assert [p.snapshot_date for p in points] == [SNAP1, SNAP2]
    assert points[0].cumulative_excess == pytest.approx(0.03)
    assert points[1].cumulative_excess == pytest.approx(0.01)


def test_aggregate_alpha_summaries():
    recs = [
        _rec(SNAP1, "a", "s", 0.01, alpha=0.02),
        _rec(SNAP1, "b", "s", 0.02, alpha=-0.01),
        _rec(SNAP2, "a", "s", 0.03, alpha=0.01),
        _rec(SNAP2, "b", "s", 0.04, alpha=0.03),
    ]
    report = aggregate(recs)
    (summary,) = report.summaries
    # per-snapshot alpha medians 0.005 and 0.02
    assert summary.median_alpha == pytest.approx(0.0125)
    assert summary.frac_positive_alpha == pytest.approx((0.5 + 1.0) / 2)


def test_aggregate_missing_baseline_warns(caplog):
    recs = [_rec(SNAP1, "a", "min_var", 0.01)]
    with caplog.at_level(logging.WARNING):
        report = aggregate(recs)
    (summary,) = report.summaries
    assert summary.hit_rate is None
    assert any("baseline" in message for message in caplog.messages)


def test_aggregate_hit_rate_matches_accounts_not_positions():
    # account d has no baseline record and must not affect the hit rate
    recs = [
        _rec(SNAP1, "a", "s", 0.02),
        _rec(SNAP1, "d", "s", -0.50),
        _rec(SNAP1, "a", "baseline", 0.01),
    ]
    report = aggregate(recs)
    by_name = {s.strategy: s for s in report.summaries}
    assert by_name["s"].hit_rate == pytest.approx(1.0)


def test_aggregate_orders_strategies_and_snapshots():
    recs = [
        _rec(SNAP2, "a", "zeta", 0.01),
        _rec(SNAP1, "a", "alpha", 0.02),
        _rec(SNAP1, "a", "zeta", 0.03),
    ]
    report = aggregate(recs)
    assert [s.strategy for s in report.summaries] == ["alpha", "zeta"]
    zeta_points = [p.snapshot_date for p in report.excess_curve if p.strategy == "zeta"]
    assert zeta_points == sorted(zeta_points)


def test_aggregate_median_return_is_finite():
    recs = [_rec(SNAP1, "a", "s", 0.01, market=0.005)]
    report = aggregate(recs)
    assert all(math.isfinite(s.median_return) for s in report.summaries)
