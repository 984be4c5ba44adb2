"""Figure 4: maintaining a set of five related views.

Paper claims reproduced here (§7.2, "Maintaining a Set of Views"): "the
benefit ratio due to Greedy is again excellent at lower update percentages";
sharing across the views' maintenance expressions is what Greedy exploits.
"""

from repro.bench.experiments import run_fig4a, run_fig4b
from benchmarks.helpers import (
    BENCH_UPDATE_PERCENTAGES,
    assert_benefit_shrinks_with_updates,
    assert_costs_nondecreasing,
    assert_greedy_dominates,
    write_series,
)


def test_fig4a_view_set_without_aggregation():
    """Figure 4(a): five join views sharing sub-expressions."""
    series = run_fig4a(update_percentages=BENCH_UPDATE_PERCENTAGES)
    write_series("fig4a", series)
    assert_greedy_dominates(series)
    assert_costs_nondecreasing(series)
    # Sharing across 5 views should produce a clearly better ratio than the
    # stand-alone view at the lowest update percentage.
    assert_benefit_shrinks_with_updates(series, minimum_low_ratio=3.0)


def test_fig4b_view_set_with_aggregation():
    """Figure 4(b): five aggregate views over shared joins."""
    series = run_fig4b(update_percentages=BENCH_UPDATE_PERCENTAGES)
    write_series("fig4b", series)
    assert_greedy_dominates(series)
    assert_costs_nondecreasing(series)
    assert_benefit_shrinks_with_updates(series, minimum_low_ratio=3.0)
