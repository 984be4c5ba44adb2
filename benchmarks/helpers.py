"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's figures/tables, asserts the
qualitative claims the paper makes about it, and writes the regenerated
series to ``results/<experiment>.txt`` so ``EXPERIMENTS.md`` can point at
concrete numbers.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from repro.bench.reporting import format_comparison, format_series

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")

#: Update percentages used by the benchmark sweeps (a subset of the paper's
#: 1%–80% x axis, kept small so the whole suite runs in seconds).
BENCH_UPDATE_PERCENTAGES: Sequence[float] = (0.01, 0.05, 0.10, 0.20, 0.40, 0.80)


def write_result(name: str, text: str) -> str:
    """Persist a regenerated table under ``results/`` and return its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def write_series(name: str, series) -> None:
    """Persist one figure sweep as a text table."""
    write_result(name, format_series(series))


def write_comparison(name: str, label: str, values: Mapping[str, object]) -> None:
    """Persist one summary block of deterministic values as text."""
    write_result(name, format_comparison(label, values))


def assert_greedy_dominates(series, tolerance: float = 1.001) -> None:
    """Greedy should never be (meaningfully) worse than NoGreedy."""
    for point in series.points:
        assert point.greedy_cost <= point.no_greedy_cost * tolerance, (
            f"Greedy ({point.greedy_cost:.2f}) worse than NoGreedy "
            f"({point.no_greedy_cost:.2f}) at {point.update_percentage:.0%}"
        )


def assert_benefit_shrinks_with_updates(series, minimum_low_ratio: float) -> None:
    """The benefit ratio should peak at the lowest update percentage."""
    ratios = series.ratios()
    assert ratios[0] >= minimum_low_ratio, (
        f"expected a benefit ratio of at least {minimum_low_ratio} at the lowest "
        f"update percentage, got {ratios[0]:.2f}"
    )
    assert ratios[0] >= ratios[-1] - 1e-9, "benefit ratio should not grow with update percentage"


def assert_costs_nondecreasing(series, tolerance: float = 1.05) -> None:
    """Plan costs should (weakly) grow with the update percentage."""
    for earlier, later in zip(series.points, series.points[1:]):
        assert later.no_greedy_cost >= earlier.no_greedy_cost / tolerance
        assert later.greedy_cost >= earlier.greedy_cost / tolerance
