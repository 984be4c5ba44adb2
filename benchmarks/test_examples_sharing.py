"""Sanity benches for the sharing examples of §3.3.

Example 3.1: two queries whose locally optimal plans share nothing, but a
globally optimal choice shares R ⋈ S.  Example 3.2: a single view over four
relations whose maintenance expressions share sub-expressions across the
per-relation differentials.
"""

from repro.bench.experiments import run_sharing_examples
from benchmarks.helpers import write_comparison


def test_sharing_examples():
    """Both §3.3 examples produce cost reductions from sharing."""
    result = run_sharing_examples()
    write_comparison(
        "examples_sharing",
        "ex3.1/ex3.2: sharing illustrations",
        {
            "ex3_1_unshared_cost": result.example_3_1.unshared_cost,
            "ex3_1_optimized_cost": result.example_3_1.optimized_cost,
            "ex3_1_materialized": ", ".join(result.example_3_1.materialized_keys) or "(none)",
            "ex3_2_no_greedy": result.example_3_2_no_greedy,
            "ex3_2_greedy": result.example_3_2_greedy,
        },
    )
    # Example 3.1: multi-query optimization must not hurt, and the shared
    # sub-expression should be found when it pays off.
    assert result.example_3_1.optimized_cost <= result.example_3_1.unshared_cost * 1.001
    # Example 3.2: the maintenance-time greedy beats the baseline.
    assert result.example_3_2_greedy <= result.example_3_2_no_greedy * 1.001
