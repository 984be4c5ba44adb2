"""Estimation-quality benchmark: q-error per operator, plan quality, runtimes.

Every plan the optimizer picks is only as good as its cardinality estimates,
so this experiment measures the estimates themselves.  The fig3/fig5 query
sets run through the physical executor three times, each under a different
configuration of the unified :class:`~repro.catalog.estimator.CardinalityEstimator`:

* ``uniform`` — the System-R baseline: uniformity, independence and
  containment formulas only (histograms and feedback disabled);
* ``histogram`` — equi-depth histograms interpolated for predicate
  selectivities, no runtime feedback;
* ``histogram_feedback`` — histograms plus the runtime feedback loop: a
  first execution records actual output cardinalities per plan node, drifted
  plans are re-optimized against the observed truth, and the re-costed
  execution is what gets scored.

For every executed plan step that carries a logical expression the estimated
and actual output cardinalities are recorded; the per-mode summary reports
the median/mean/maximum q-error (``max(est/act, act/est)`` with +1
smoothing) and the total optimizer plan cost, written to
``results/estimation.txt``.  The best-of-N wall-clock runtime of each mode
is kept only for the benchmark's plan-quality guard (better estimates must
not buy slower plans).
"""

from __future__ import annotations

import statistics as pystats
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.algebra.expressions import Aggregate, Expression, base_relations
from repro.algebra.predicates import gt, lt
from repro.algebra.expressions import Select
from repro.catalog.estimator import CardinalityEstimator, qerror
from repro.engine.physical import PhysicalExecutor, execute_plan
from repro.workloads import queries
from repro.workloads.datagen import small_database

#: Estimator configurations compared by the benchmark, in presentation order.
ESTIMATION_MODES = ("uniform", "histogram", "histogram_feedback")

#: Selection cut points on ``l_extendedprice`` used to enrich the pure-join
#: figure workloads.  The generated extended price is quantity × unit price —
#: a product of uniforms, so its distribution is decidedly non-uniform and
#: linear min/max interpolation (the System-R baseline) misestimates it,
#: which is exactly what histograms are for.
PRICE_CUTS = (5000.0, 25000.0, 60000.0)


def with_selective_variants(
    views: Mapping[str, Expression], cuts: Optional[Sequence[float]] = None
) -> Dict[str, Expression]:
    """The figure views plus range-selection variants over lineitem prices.

    Every non-aggregate view touching ``lineitem`` gains one σ variant per
    cut point (alternating < and >), so the workload exercises selectivity
    estimation on a skewed column on top of the foreign-key joins the paper's
    figures are made of.
    """
    enriched: Dict[str, Expression] = dict(views)
    for name, expression in views.items():
        if isinstance(expression, Aggregate):
            continue
        if "lineitem" not in base_relations(expression):
            continue
        for index, cut in enumerate(PRICE_CUTS if cuts is None else cuts):
            predicate = lt("l_extendedprice", cut) if index % 2 == 0 else gt("l_extendedprice", cut)
            op = "lt" if index % 2 == 0 else "gt"
            enriched[f"{name}__{op}{int(cut)}"] = Select(expression, predicate)
    return enriched


@dataclass
class OperatorEstimate:
    """Estimated vs actual output cardinality of one executed plan step."""

    view: str
    operator: str
    estimated: float
    actual: float

    @property
    def qerror(self) -> float:
        """Symmetric q-error of the estimate (1.0 = exact)."""
        return qerror(self.estimated, self.actual)


@dataclass
class EstimationModeResult:
    """All estimates and timings for one workload under one estimator mode."""

    mode: str
    estimates: List[OperatorEstimate] = field(default_factory=list)
    plan_cost: float = 0.0
    runtime_seconds: float = 0.0

    @property
    def qerrors(self) -> List[float]:
        """Per-operator q-errors of the *estimated* operators.

        Scans and reuse reads are excluded: their cardinalities come
        straight from the catalog's exact counts, so including them would
        only dilute the metric with guaranteed 1.0 entries.
        """
        return [e.qerror for e in self.estimates if e.operator not in ("scan", "reuse")]

    @property
    def median_qerror(self) -> float:
        """Median per-operator q-error (1.0 = every estimate exact)."""
        errors = self.qerrors
        return pystats.median(errors) if errors else 1.0

    @property
    def mean_qerror(self) -> float:
        """Mean per-operator q-error."""
        errors = self.qerrors
        return pystats.fmean(errors) if errors else 1.0

    @property
    def max_qerror(self) -> float:
        """Worst per-operator q-error."""
        errors = self.qerrors
        return max(errors) if errors else 1.0


@dataclass
class WorkloadEstimation:
    """One workload's results across every estimator mode."""

    workload: str
    views: int
    modes: Dict[str, EstimationModeResult] = field(default_factory=dict)


@dataclass
class EstimationQualityResult:
    """Full outcome of the estimation-quality experiment."""

    experiment: str
    scale_factor: float
    workloads: List[WorkloadEstimation] = field(default_factory=list)

    def workload(self, name: str) -> WorkloadEstimation:
        """Look up one workload's results by name."""
        for workload in self.workloads:
            if workload.workload == name:
                return workload
        raise KeyError(f"unknown workload {name!r}")

    def median_qerror(self, workload: str, mode: str) -> float:
        """Median q-error of one workload under one mode."""
        return self.workload(workload).modes[mode].median_qerror

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for tabular rendering."""
        rows: List[Dict[str, object]] = []
        for workload in self.workloads:
            for mode in ESTIMATION_MODES:
                result = workload.modes.get(mode)
                if result is None:
                    continue
                rows.append(
                    {
                        "workload": workload.workload,
                        "mode": mode,
                        "operators": len(result.estimates),
                        "median_qerror": result.median_qerror,
                        "mean_qerror": result.mean_qerror,
                        "max_qerror": result.max_qerror,
                        "plan_cost": result.plan_cost,
                    }
                )
        return rows


def _measure_mode(
    database, views: Mapping[str, object], mode: str, repetitions: int
) -> EstimationModeResult:
    """Run one workload under one estimator configuration and score it."""
    estimator = CardinalityEstimator(
        database.catalog,
        use_histograms=mode != "uniform",
        use_feedback=mode == "histogram_feedback",
    )
    executor = PhysicalExecutor(
        database,
        estimator=estimator,
        feedback=mode == "histogram_feedback",
    )
    result = EstimationModeResult(mode=mode)

    if mode == "histogram_feedback":
        # Warm-up pass: execute once so actual cardinalities are observed;
        # plans whose estimates drifted re-optimize on their next use.
        for expression in views.values():
            executor.evaluate(expression)

    for name, expression in views.items():
        plan, schema = executor.plan(expression)
        result.plan_cost += plan.total_cost()

        def collect(node, bag, _view=name):
            result.estimates.append(
                OperatorEstimate(
                    view=_view,
                    operator=node.algorithm or node.description,
                    estimated=node.cardinality,
                    actual=float(len(bag)),
                )
            )

        execute_plan(plan, database, output_schema=schema, observer=collect)

    def run_all() -> None:
        for expression in views.values():
            executor.evaluate(expression)

    best = float("inf")
    for _ in range(max(1, repetitions)):
        started = time.perf_counter()
        run_all()
        best = min(best, time.perf_counter() - started)
    result.runtime_seconds = best
    return result


def run_estimation_quality(
    scale_factor: float = 0.004,
    repetitions: int = 3,
    workloads: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> EstimationQualityResult:
    """Score estimation quality on the fig3/fig5 query sets.

    Every mode runs against the same measured database; the feedback mode
    additionally gets one warm-up execution per view so its scored pass
    reflects re-costed plans.
    """
    if workloads is None:
        workloads = {
            "fig3": with_selective_variants(
                {**queries.standalone_join_view(), **queries.standalone_agg_view()}
            ),
            "fig5": with_selective_variants(queries.large_view_set()),
        }
    database = small_database(scale_factor=scale_factor)
    result = EstimationQualityResult(experiment="estimation", scale_factor=scale_factor)
    for name, views in workloads.items():
        workload = WorkloadEstimation(workload=name, views=len(views))
        for mode in ESTIMATION_MODES:
            workload.modes[mode] = _measure_mode(database, views, mode, repetitions)
        result.workloads.append(workload)
    return result
