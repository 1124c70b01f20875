"""The benchmark's workloads: why each exists and which layer it isolates.

Every workload is a config for the synthetic market plus a kind:

* ``build`` workloads time a cold ``run`` of the five build stages on fresh
  synth inputs, then run the rerun cycle once on the result;
* the ``rerun`` workload builds its workspaces during set-up and times only
  the rerun cycle: a no-op run, a repair after one snapshot partition is
  deleted, two report-only config changes, and ``validate``.

The shapes are scaled so that one run of each workload fits well inside a
minute on a 2-core machine while keeping the property stated for it; the
traced run (``--trace 1``) prints the shares that confirm the property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the program's stages in dependency order, and the ones a cold build runs
# after synth
STAGES = ("synth", "ingest", "snapshot", "optimize", "metrics", "report")
BUILD_STAGES = STAGES[1:]

# report-only key that the rerun cycle changes and changes back
REPORT_KEY = "min_bin_count"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "build" or "rerun"
    why: str  # one line, also in BENCHMARK.json
    isolates: str
    config: dict[str, str]
    smoke: dict[str, str] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-heavy",
            kind="build",
            why="many accounts over few months, so the frontier solver dominates a cold build",
            isolates=(
                "frontier: three SLSQP projections per book make frontier.solve "
                "most of the build, while the per-month CSV parsing stays small. "
                "A frontier-kernel change shows here; it is also the "
                "single-threaded (workers = 1) baseline."
            ),
            config={
                "synth_tokens": "12",
                "synth_accounts": "50",
                "synth_months": "4",
                "workers": "1",
            },
            smoke={"synth_tokens": "8", "synth_accounts": "12", "synth_months": "2"},
        ),
        Workload(
            name="history-heavy",
            kind="build",
            why="long ledgers over many months and small books, so re-parsing ledgers and prices dominates",
            isolates=(
                "storage and ingest: every snapshot month re-reads every ledger "
                "and prices.csv, so storage.read_* spans are most of the build and "
                "frontier.solve a small share. Load-once changes and the "
                "process-pool path (workers = 2) show here; a frontier change "
                "should barely move it."
            ),
            config={
                "synth_accounts": "15",
                "synth_months": "6",
                "synth_max_size": "3",
                "transfers_per_account_month": "130",
                "min_holders": "5",
                "min_bin_count": "5",
                "workers": "2",
            },
            smoke={
                "synth_tokens": "6",
                "synth_accounts": "8",
                "synth_months": "2",
                "transfers_per_account_month": "20",
            },
        ),
        Workload(
            name="rerun",
            kind="rerun",
            why="incremental reruns of a built workspace: no-op, repair, report-only change, validate",
            isolates=(
                "hashing, manifest handling, report aggregation, validate and "
                "the CLI's import cost. Outputs are read from the cache rather "
                "than written, and no frontier solve runs in the timed cycle."
            ),
            config={
                "synth_tokens": "16",
                "synth_accounts": "24",
                "synth_months": "5",
                "min_holders": "5",
                "min_bin_count": "5",
                "workers": "1",
            },
            smoke={"synth_tokens": "8", "synth_accounts": "12", "synth_months": "2"},
        ),
    )
}


def config_text(values: dict[str, str]) -> str:
    """Render config keys in the program's ``key = value`` form."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())
