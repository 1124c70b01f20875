"""Config parsing, validation, and round-trip tests."""

from __future__ import annotations

import dataclasses
import datetime as dt
from pathlib import Path

import pytest

from chainfrontier.config import (
    PipelineConfig,
    load_config,
    parse_config,
    render_config,
)
from chainfrontier.errors import InputError


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == PipelineConfig()
    assert cfg.workspace == Path("work")
    assert cfg.w_max == 0.9


def test_parses_each_value_kind():
    cfg = parse_config(
        """
        # a comment line
        seed = 42
        workers = 4            # trailing comment
        mean_shrink_lambda = 0.25
        synth_start = 2022-03-01
        workspace = /tmp/elsewhere
        market_tokens = AAA,BBB
        top_k_pcts = 2.5, 25
        """
    )
    assert cfg.seed == 42
    assert cfg.workers == 4
    assert cfg.mean_shrink_lambda == 0.25
    assert cfg.synth_start == dt.date(2022, 3, 1)
    assert cfg.workspace == Path("/tmp/elsewhere")
    assert cfg.market_tokens == ("AAA", "BBB")
    assert cfg.top_k_pcts == (2.5, 25.0)


def test_unknown_key_rejected():
    with pytest.raises(InputError, match="unknown config key"):
        parse_config("wmax = 0.5")


def test_bad_value_rejected():
    with pytest.raises(InputError, match="bad value"):
        parse_config("workers = soon")
    with pytest.raises(InputError, match="bad value"):
        parse_config("synth_start = March 1st")


def test_line_without_equals_rejected():
    with pytest.raises(InputError, match="line 1"):
        parse_config("just some words")


@pytest.mark.parametrize(
    "text",
    [
        "workers = 0",
        "seed = -1",
        "w_max = 0",
        "w_max = 1.5",
        "mean_shrink_lambda = 1.2",
        "min_obs = 90\nlookback_days = 60",
        "synth_tokens = 1",
        "market_tokens = ONLY",
        "distance_bin_edges = 10,5",
        "size_bin_min = 1",
        "synth_max_size = 99",
        "synth_min_size = 1",
        "top_k_pcts = 0",
    ],
)
def test_out_of_range_values_rejected(text):
    with pytest.raises(InputError):
        parse_config(text)


def test_relative_workspace_resolves_under_config_dir(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("workspace = out\nseed = 5\n")
    cfg = load_config(path)
    assert cfg.workspace == tmp_path / "out"
    assert cfg.seed == 5


def test_absolute_workspace_kept(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"workspace = {tmp_path / 'abs'}\n")
    assert load_config(path).workspace == tmp_path / "abs"


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_render_round_trips():
    cfg = dataclasses.replace(
        PipelineConfig(),
        seed=9,
        mean_shrink_lambda=0.125,
        synth_start=dt.date(2020, 6, 15),
        market_tokens=("X", "Y"),
        top_k_pcts=(1.0, 2.0, 3.0),
    )
    assert parse_config(render_config(cfg)) == cfg


def test_render_defaults_round_trips():
    assert parse_config(render_config(PipelineConfig())) == PipelineConfig()
