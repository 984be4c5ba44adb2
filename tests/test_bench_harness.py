"""Tests for the benchmark harness and reporting (fast, tiny sweeps only)."""

import pytest

from repro.bench.experiments import run_sharing_examples, run_temp_vs_perm
from repro.bench.harness import ExperimentConfig, run_figure_sweep
from repro.bench.reporting import format_comparison, format_series, format_table
from repro.workloads import queries, tpcd


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(catalog=tpcd.tpcd_catalog(scale_factor=0.05))


def test_sweep_produces_point_per_percentage(config):
    series = run_figure_sweep(
        "mini",
        "miniature sweep",
        queries.standalone_join_view(),
        config,
        update_percentages=(0.01, 0.2),
    )
    assert len(series.points) == 2
    assert series.points[0].update_percentage == 0.01
    assert all(p.greedy_cost > 0 and p.no_greedy_cost > 0 for p in series.points)
    assert series.max_ratio() >= 1.0


def test_series_rows_and_formatting(config):
    series = run_figure_sweep(
        "mini", "miniature sweep", queries.standalone_join_view(), config, (0.01,)
    )
    rows = series.as_rows()
    assert rows[0]["update_pct"] == 1.0
    text = format_series(series)
    assert "mini" in text and "update_pct" in text


def test_format_table_alignment():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}], ["a", "b"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")


def test_format_comparison():
    text = format_comparison("label", {"x": 1.23456, "y": "z"})
    assert "label" in text and "1.235" in text and "y: z" in text


def test_config_buffer_blocks_feed_cost_model():
    small = ExperimentConfig(catalog=tpcd.tpcd_catalog(0.05), buffer_blocks=100)
    assert small.cost_model().buffer.blocks == 100


def test_temp_vs_perm_counts_accumulate():
    result = run_temp_vs_perm(update_percentages=(0.01,), scale_factor=0.05)
    assert result.overall.total > 0
    assert result.overall.total == result.low_update.total
    assert result.high_update.total == 0


def test_sharing_examples_runs_at_small_scale():
    result = run_sharing_examples(scale_factor=0.05)
    assert result.example_3_1.unshared_cost > 0
    assert result.example_3_2_greedy <= result.example_3_2_no_greedy * 1.001
