"""Overhead of the static-analysis passes (PR 7).

The analyzer runs on every ``define_view`` and the plan verifier on every
plan-cache insert (``cache-insert``) or planning call (``always``), so both
must be cheap relative to planning itself.  This benchmark times the three
phases separately over the full workload view pool; the assertions pin the
claims the docs make — every workload passes both passes with zero
diagnostics, and the combined overhead stays a fraction of raw planning
time.  ``results/analysis.txt`` records only the deterministic counts.
"""

from time import perf_counter

from repro.analysis import analyze, verify_plan
from repro.engine.physical import PhysicalExecutor
from repro.workloads import queries
from repro.workloads.datagen import TpcdDataGenerator

from benchmarks.helpers import write_comparison


def _workload_views():
    views = {}
    for make in (
        queries.standalone_join_view,
        queries.standalone_agg_view,
        queries.view_set_plain,
        queries.view_set_aggregate,
        queries.large_view_set,
        queries.selection_variant_views,
    ):
        views.update(make())
    return views


def run_analysis_overhead():
    database = TpcdDataGenerator(scale_factor=0.0005, seed=5).populate()
    views = _workload_views()

    started = perf_counter()
    planner = PhysicalExecutor(database, feedback=False, verify_plans="off")
    plans = {}
    for name, expression in views.items():
        plans[name], _ = planner.plan(expression)
    plan_seconds = perf_counter() - started

    started = perf_counter()
    analyses = {
        name: analyze(expression, database.catalog)
        for name, expression in views.items()
    }
    analyze_seconds = perf_counter() - started

    started = perf_counter()
    verifications = {
        name: verify_plan(plan, database=database)
        for name, plan in plans.items()
    }
    verify_seconds = perf_counter() - started

    return {
        "views": len(views),
        "plan_seconds": plan_seconds,
        "analyze_seconds": analyze_seconds,
        "verify_seconds": verify_seconds,
        "overhead_fraction": (analyze_seconds + verify_seconds)
        / max(plan_seconds, 1e-9),
        "analyzer_diagnostics": sum(
            len(result.diagnostics) for result in analyses.values()
        ),
        "verifier_diagnostics": sum(len(d) for d in verifications.values()),
    }


def test_analysis_overhead():
    """Analyzer + verifier cost a fraction of planning, with zero findings."""
    result = run_analysis_overhead()
    write_comparison(
        "analysis",
        "analysis: static analyzer + plan verifier overhead "
        "(full workload view pool)",
        {
            key: result[key]
            for key in ("views", "analyzer_diagnostics", "verifier_diagnostics")
        },
    )
    assert result["views"] >= 20
    # Conservativeness: every supported workload passes both passes clean.
    assert result["analyzer_diagnostics"] == 0
    assert result["verifier_diagnostics"] == 0
    # The passes are schema walks; planning runs a Volcano search.  Allow a
    # generous margin so the assertion survives noisy CI machines while
    # still catching an accidentally quadratic check.
    assert result["overhead_fraction"] < 2.0, result
