"""Plain-text key=value configuration for the pipeline.

One flat file holds every tunable: synthetic-universe shape, screening
thresholds, moment-estimation windows, frontier constraints, and report
binning. Lines look like ``key = value``; ``#`` starts a comment. Every
key has a default, so an empty file is a valid config.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError

__all__ = ["PipelineConfig", "load_config", "parse_config", "render_config"]

# the two tokens every synthetic universe starts with, and the default
# market index
BENCHMARK_TOKENS = ("WETH", "WBTC")


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline knobs with their defaults."""

    # orchestration
    workspace: Path = Path("work")
    seed: int = 0
    workers: int = 1
    # synthetic universe
    synth_tokens: int = 50
    synth_accounts: int = 500
    synth_months: int = 24
    synth_start: dt.date = dt.date(2021, 1, 1)
    transfers_per_account_month: float = 4.0
    synth_min_size: int = 2
    synth_max_size: int = 8
    # token screening
    min_price_days: int = 15
    min_volume: float = 1.0
    validation_samples: int = 200
    # moment estimation
    lookback_days: int = 60
    min_obs: int = 45
    mean_shrink_lambda: float = 0.5
    # frontier constraints
    w_max: float = 0.9
    rf_annual: float = 0.05
    # evaluation
    forward_days: int = 20
    market_tokens: tuple[str, ...] = BENCHMARK_TOKENS
    # reporting
    dust_threshold: float = 1.0
    top_k_pcts: tuple[float, ...] = (1.0, 5.0, 10.0)
    min_holders: int = 100
    distance_bin_edges: tuple[float, ...] = (0.0, 1.0, 20.0, 40.0, 60.0, 80.0, 100.0)
    size_bin_min: int = 2
    size_bin_max: int = 50
    min_bin_count: int = 30

    def __post_init__(self) -> None:
        checks = [
            (self.workers >= 1, "workers must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.synth_tokens >= 2, "synth_tokens must be >= 2"),
            (self.synth_accounts >= 1, "synth_accounts must be >= 1"),
            (self.synth_months >= 1, "synth_months must be >= 1"),
            (
                self.transfers_per_account_month >= 0,
                "transfers_per_account_month must be >= 0",
            ),
            (self.min_price_days >= 1, "min_price_days must be >= 1"),
            (self.min_volume >= 0, "min_volume must be >= 0"),
            (self.validation_samples >= 0, "validation_samples must be >= 0"),
            (self.lookback_days >= 2, "lookback_days must be >= 2"),
            (
                1 <= self.min_obs <= self.lookback_days,
                "min_obs must be in [1, lookback_days]",
            ),
            (
                0.0 <= self.mean_shrink_lambda <= 1.0,
                "mean_shrink_lambda must be in [0, 1]",
            ),
            (0.0 < self.w_max <= 1.0, "w_max must be in (0, 1]"),
            (self.rf_annual >= 0.0, "rf_annual must be >= 0"),
            (self.forward_days >= 1, "forward_days must be >= 1"),
            (len(self.market_tokens) == 2, "market_tokens needs exactly two ids"),
            (self.dust_threshold >= 0.0, "dust_threshold must be >= 0"),
            (
                all(0.0 < k <= 100.0 for k in self.top_k_pcts),
                "top_k_pcts must lie in (0, 100]",
            ),
            (self.min_holders >= 1, "min_holders must be >= 1"),
            (
                len(self.distance_bin_edges) >= 2
                and all(
                    a < b
                    for a, b in zip(
                        self.distance_bin_edges, self.distance_bin_edges[1:]
                    )
                ),
                "distance_bin_edges must be strictly increasing with >= 2 edges",
            ),
            (self.size_bin_min >= 2, "size_bin_min must be >= 2"),
            (
                self.size_bin_max >= self.size_bin_min,
                "size_bin_max must be >= size_bin_min",
            ),
            (self.min_bin_count >= 1, "min_bin_count must be >= 1"),
            (2 <= self.synth_min_size, "synth_min_size must be >= 2"),
            (
                self.synth_min_size <= self.synth_max_size <= self.synth_tokens,
                "synth_max_size must be in [synth_min_size, synth_tokens]",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise InputError(message)


def _parse_value(name: str, raw: str, current):
    try:
        if isinstance(current, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, dt.date):
            return dt.date.fromisoformat(raw)
        if isinstance(current, Path):
            return Path(raw)
        if isinstance(current, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if current and isinstance(current[0], float):
                return tuple(float(p) for p in parts)
            return tuple(parts)
        return raw
    except ValueError as exc:
        raise InputError(f"bad value for {name!r}: {raw!r}") from exc


def parse_config(text: str, base_dir: Path | None = None) -> PipelineConfig:
    """Parse config text; relative workspace paths resolve under base_dir."""
    defaults = PipelineConfig()
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno} is not key = value: {line!r}")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        if not hasattr(defaults, name):
            raise InputError(f"unknown config key {name!r} on line {lineno}")
        values[name] = _parse_value(name, raw, getattr(defaults, name))
    cfg = dataclasses.replace(defaults, **values)
    if base_dir is not None and not cfg.workspace.is_absolute():
        cfg = dataclasses.replace(cfg, workspace=base_dir / cfg.workspace)
    return cfg


def load_config(path: Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    return parse_config(path.read_text(), base_dir=path.parent)


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def render_config(cfg: PipelineConfig) -> str:
    """Serialize a config to the same text form the parser reads."""
    lines = [
        f"{f.name} = {_render_value(getattr(cfg, f.name))}"
        for f in dataclasses.fields(cfg)
    ]
    return "\n".join(lines) + "\n"
