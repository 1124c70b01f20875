"""Spans around the program's public functions, and the per-layer metrics.

The tracer wraps every public function of each layer module and rebinds
the wrapper wherever a caller looks the name up: ``pipeline.solve`` is the
same object as ``frontier.solve``, so both bindings are replaced, and
``frontier.minimize`` (SciPy's SLSQP entry point) is wrapped where
``frontier`` calls it. A span is ``[name, start, end, parent, attrs]``;
spans stay in memory and are written out when the run ends.

A few per-element helpers are left unwrapped because one span costs about
as much as the call itself; their time counts as the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

from checks import STRATEGIES
from workloads import BUILD_STAGES, STAGES

LAYERS = (
    "pipeline",
    "storage",
    "synth",
    "ingest",
    "portfolio",
    "marketdata",
    "frontier",
    "metrics",
    "decayfit",
    "concentration",
)

# per cell, per balance query or per asset: too small to trace
UNTRACED = {
    "storage": {"fmt", "event_row", "encode_weights", "decode_weights", "encode_top_shares"},
    "ingest": {"balance_at"},
    "frontier": {"sharpe"},
}

READERS = (
    "read_prices",
    "read_ledger_entries",
    "read_rows",
    "read_positions",
    "read_solutions",
    "read_perf",
    "read_meta",
    "read_filters",
)

# functions reported as ``<layer>.<fn>.calls`` and ``<layer>.<fn>.s``
COUNTED = (
    ("ingest", ("parse_events", "build_ledger", "ledger_from_entries", "filter_tokens")),
    ("portfolio", ("reconstruct_snapshot",)),
    ("marketdata", ("forward_fill", "log_returns", "estimate_moments", "asset_beta")),
    ("frontier", ("minimize", "project_capped_simplex")),
    ("decayfit", ("fit_power_decay",)),
    ("concentration", ("concentration_row",)),
)


class Tracer:
    """Records nested spans from wrapped functions and explicit blocks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, solve: bool = False):
        def traced(*args, **kwargs):
            label = f"{name}.{args[0].value}" if solve else name
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if solve:
                self.spans[idx][4] = {
                    "iterations": result.iterations,
                    "converged": result.converged,
                }
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' public functions for the duration of the block."""
        modules = {m: importlib.import_module(f"chainfrontier.{m}") for m in LAYERS + ("cli",)}
        try:
            for layer in LAYERS:
                module = modules[layer]
                targets = {
                    fname: fn
                    for fname, fn in vars(module).items()
                    if inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not fname.startswith("_")
                    and fname not in UNTRACED.get(layer, ())
                }
                if layer == "frontier":
                    targets["minimize"] = module.minimize
                for fname, fn in targets.items():
                    name = f"{layer}.{fname}"
                    wrapped = self.wrap(name, fn, solve=name == "frontier.solve")
                    for caller in modules.values():
                        for attr, value in list(vars(caller).items()):
                            if value is fn:
                                self._undo.append((caller, attr, value))
                                setattr(caller, attr, wrapped)
            yield self
        finally:
            while self._undo:
                caller, attr, value = self._undo.pop()
                setattr(caller, attr, value)

    def export(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **({"attrs": a} if a else {})}
            for n, s, e, p, a in self.spans
        ]


def _storage_kind(name: str) -> str | None:
    if name.startswith("storage.read_"):
        return "parse"
    if name.startswith("storage.write_"):
        return "serialize"
    return None


def per_layer(spans: list[list]) -> dict[str, float]:
    """Derive every span-based per-layer metric from one pass's spans."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start

    for stage in STAGES + ("validate",):
        out[f"pipeline.stage.{stage}.s"] = 0.0
    for stage in BUILD_STAGES:
        for part in ("parse_s", "serialize_s", "compute_s"):
            out[f"pipeline.stage.{stage}.{part}"] = 0.0
    for stage in STAGES:
        out[f"pipeline.noop.{stage}.s"] = 0.0
    for reader in READERS:
        out[f"storage.{reader}.calls"] = 0
        out[f"storage.{reader}.s"] = 0.0
    out["storage.write.calls"] = 0
    out["storage.write.s"] = 0.0
    out["synth.generate_market.s"] = 0.0
    for layer, fns in COUNTED:
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = 0
            out[f"{layer}.{fn}.s"] = 0.0
    for s in STRATEGIES:
        out[f"frontier.solve.{s}.calls"] = 0
        out[f"frontier.solve.{s}.s"] = 0.0
        out[f"frontier.iterations.{s}"] = 0
        out[f"frontier.unconverged.{s}"] = 0
    for key in ("metrics.forward_return.calls", "metrics.capm_alpha.calls"):
        out[key] = 0
    out["metrics.aggregate.s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0

    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", dur - children[idx])
        if name.startswith(("pipeline.stage.", "pipeline.noop.")):
            add(f"{name}.s", dur)
            continue
        if f"{name}.calls" in out:
            add(f"{name}.calls", 1)
        if f"{name}.s" in out:
            add(f"{name}.s", dur)
        if attrs is not None:
            strategy = name.rsplit(".", 1)[1]
            add(f"frontier.iterations.{strategy}", attrs["iterations"])
            add(f"frontier.unconverged.{strategy}", 0 if attrs["converged"] else 1)

        kind = _storage_kind(name)
        if kind is None:
            continue
        # only the outermost storage call counts toward a stage's split
        stage, nested, up = None, False, parent
        while up >= 0 and not nested:
            up_name = spans[up][0]
            nested = up_name.startswith("storage.")
            if stage is None and up_name.startswith("pipeline.stage."):
                stage = up_name.split(".")[2]
            up = spans[up][3]
        if nested:
            continue
        if kind == "serialize":
            add("storage.write.calls", 1)
            add("storage.write.s", dur)
        if stage in BUILD_STAGES:
            add(f"pipeline.stage.{stage}.{kind}_s", dur)

    for stage in BUILD_STAGES:
        out[f"pipeline.stage.{stage}.compute_s"] = (
            out[f"pipeline.stage.{stage}.s"]
            - out[f"pipeline.stage.{stage}.parse_s"]
            - out[f"pipeline.stage.{stage}.serialize_s"]
        )
    return out


def per_layer_names() -> list[str]:
    """Every per-layer metric ``--trace 1`` prints, in BENCHMARK.json order."""
    names = list(per_layer([]))
    names += [f"pipeline.partitions_computed.{stage}" for stage in STAGES]
    names += [
        "cli.import_s",
        "storage.workspace_bytes",
        "frontier.dropped_books",
        "trace.overhead_s",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
