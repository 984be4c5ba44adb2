"""Differential refresh, verified round by round against recomputation.

This is the benchmark for the differential refresh engine: the fig3/fig5
view sets are maintained through a sequence of generated update batches by
the vectorized :class:`~repro.engine.differential.DifferentialEngine` with
its per-round shared old-value cache.  Every view is verified against
recomputation (the interpreter reference) after every refresh round before
the timing is recorded to ``results/BENCH_refresh.json``.
"""

from repro.bench.experiments import run_refresh_comparison
from repro.bench.reporting import format_refresh_comparison, refresh_payload

from benchmarks.helpers import write_json_result, write_result


def test_refresh_rounds_verify_against_recomputation(benchmark):
    """Every refreshed view matches recomputation after every round."""
    result = benchmark.pedantic(run_refresh_comparison, rounds=1, iterations=1)
    write_result("refresh", format_refresh_comparison(result))
    write_json_result("refresh", refresh_payload(result))
    assert result.points, "no view sets were benchmarked"
    assert result.all_verified, "a refreshed view diverged from recomputation"
    assert all(point.changes > 0 for point in result.points)
