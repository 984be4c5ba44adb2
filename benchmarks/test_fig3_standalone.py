"""Figure 3: maintaining stand-alone views (with and without aggregation).

Paper claims reproduced here (§7.2, "Maintaining Individual Views"):
"significant benefits are to be had, especially at low update percentages,
but there are benefits even at relatively high update percentages."
"""

from repro.bench.experiments import run_fig3a, run_fig3b
from benchmarks.helpers import (
    BENCH_UPDATE_PERCENTAGES,
    assert_benefit_shrinks_with_updates,
    assert_costs_nondecreasing,
    assert_greedy_dominates,
    write_series,
)


def test_fig3a_standalone_join_view():
    """Figure 3(a): join of 4 relations, no aggregation."""
    series = run_fig3a(update_percentages=BENCH_UPDATE_PERCENTAGES)
    write_series("fig3a", series)
    assert_greedy_dominates(series)
    assert_costs_nondecreasing(series)
    # Greedy wins clearly at the 1% update point.
    assert_benefit_shrinks_with_updates(series, minimum_low_ratio=2.0)


def test_fig3b_standalone_aggregate_view():
    """Figure 3(b): aggregation over the same join."""
    series = run_fig3b(update_percentages=BENCH_UPDATE_PERCENTAGES)
    write_series("fig3b", series)
    assert_greedy_dominates(series)
    assert_costs_nondecreasing(series)
    assert_benefit_shrinks_with_updates(series, minimum_low_ratio=1.5)
