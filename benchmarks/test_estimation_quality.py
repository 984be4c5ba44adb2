"""Estimation quality: histograms + runtime feedback vs the System-R baseline.

This is the benchmark for the unified :class:`CardinalityEstimator`: the
fig3/fig5 view sets (enriched with range selections over the skewed
``l_extendedprice`` column) execute under three estimator configurations —
System-R uniformity only, histograms, and histograms plus the runtime
cardinality feedback loop — and every executed plan step's estimated output
cardinality is scored against the actual one.

The gates mirror the PR's acceptance criteria: the histogram+feedback
estimator must achieve a median per-operator q-error no worse than the
uniformity baseline on both workloads (and strictly better where the
baseline actually errs), an absolute q-error ceiling holds on the fig3
workload so estimate-quality regressions fail CI, and end-to-end runtimes
must not degrade relative to the baseline estimator's plans.
"""

from repro.bench.estimation import run_estimation_quality
from repro.bench.reporting import format_estimation

from benchmarks.helpers import write_result

#: Absolute ceiling for the histogram+feedback median q-error on the fig3
#: workload.
QERROR_CEILING = 1.5

#: Allowed runtime slack of histogram-estimated plans over baseline plans
#: (generous: shared CI runners are noisy and the workloads run in ~1s).
RUNTIME_SLACK = 1.75


def test_histogram_feedback_beats_uniformity():
    """Histogram + feedback estimation dominates the uniformity baseline."""
    result = run_estimation_quality()
    write_result("estimation", format_estimation(result))

    for workload in ("fig3", "fig5"):
        uniform = result.workload(workload).modes["uniform"]
        feedback = result.workload(workload).modes["histogram_feedback"]
        assert feedback.median_qerror <= uniform.median_qerror + 1e-9, (
            f"{workload}: histogram+feedback median q-error "
            f"{feedback.median_qerror:.4f} worse than the uniformity baseline's "
            f"{uniform.median_qerror:.4f}"
        )
        # The mean exposes the tail the median can hide: it must strictly
        # improve (the baseline demonstrably errs on the skewed selections).
        assert feedback.mean_qerror < uniform.mean_qerror, (
            f"{workload}: histogram+feedback mean q-error {feedback.mean_qerror:.4f} "
            f"did not improve on the baseline's {uniform.mean_qerror:.4f}"
        )
        assert feedback.max_qerror <= uniform.max_qerror + 1e-9, (
            f"{workload}: worst-case q-error regressed "
            f"({feedback.max_qerror:.4f} > {uniform.max_qerror:.4f})"
        )
        # Plan-quality guard: better estimates must not buy slower plans.
        assert feedback.runtime_seconds <= uniform.runtime_seconds * RUNTIME_SLACK, (
            f"{workload}: histogram+feedback execution took "
            f"{feedback.runtime_seconds * 1000:.1f}ms vs the baseline's "
            f"{uniform.runtime_seconds * 1000:.1f}ms"
        )

    # CI regression gate: the fig3 median q-error must stay under the ceiling.
    fig3 = result.median_qerror("fig3", "histogram_feedback")
    assert fig3 <= QERROR_CEILING, (
        f"fig3 median q-error {fig3:.4f} exceeds the ceiling {QERROR_CEILING}"
    )
