"""One driver per paper figure/table (§7.2).

Each ``run_*`` function reproduces one experiment of the performance study
and returns a structured result; the pytest benchmarks under ``benchmarks/``
call these drivers, assert the qualitative claims the paper makes about
them, and print the regenerated rows/series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.bench.harness import ExperimentConfig, FigureSeries, run_figure_sweep
from repro.maintenance.update_spec import UpdateSpec
from repro.mqo.greedy import MultiQueryOptimizer, MqoResult
from repro.workloads import queries, tpcd

#: The x axis of every figure: update percentages from 1% to 80% (paper §7.1).
DEFAULT_UPDATE_PERCENTAGES: Tuple[float, ...] = (0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80)

#: Scale factor of the paper's TPC-D database (≈ 100 MB).
PAPER_SCALE_FACTOR = 0.1


def _config(
    scale_factor: float = PAPER_SCALE_FACTOR,
    with_pk_indexes: bool = True,
    buffer_blocks: int = 8000,
) -> ExperimentConfig:
    return ExperimentConfig(
        catalog=tpcd.tpcd_catalog(scale_factor=scale_factor, with_pk_indexes=with_pk_indexes),
        buffer_blocks=buffer_blocks,
    )


# ------------------------------------------------------------------- figure 3

def run_fig3a(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 3(a): maintaining a stand-alone 4-relation join view."""
    return run_figure_sweep(
        "fig3a",
        "stand-alone view, join of 4 relations, no aggregation",
        queries.standalone_join_view(),
        _config(scale_factor),
        update_percentages,
    )


def run_fig3b(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 3(b): the same join with aggregation on top."""
    return run_figure_sweep(
        "fig3b",
        "stand-alone view, aggregation over a join of 4 relations",
        queries.standalone_agg_view(),
        _config(scale_factor),
        update_percentages,
    )


# ------------------------------------------------------------------- figure 4

def run_fig4a(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 4(a): a set of five related join views (no aggregation)."""
    return run_figure_sweep(
        "fig4a",
        "set of 5 join views sharing sub-expressions",
        queries.view_set_plain(),
        _config(scale_factor),
        update_percentages,
    )


def run_fig4b(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 4(b): a set of five aggregate views over shared joins."""
    return run_figure_sweep(
        "fig4b",
        "set of 5 aggregate views sharing sub-expressions",
        queries.view_set_aggregate(),
        _config(scale_factor),
        update_percentages,
    )


# ------------------------------------------------------------------- figure 5

def run_fig5a(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 5(a): ten 3–4-relation join views, primary-key indexes present."""
    return run_figure_sweep(
        "fig5a",
        "10 views (joins of 3-4 relations), PK indexes predefined",
        queries.large_view_set(),
        _config(scale_factor, with_pk_indexes=True),
        update_percentages,
    )


def run_fig5b(
    update_percentages: Sequence[float] = DEFAULT_UPDATE_PERCENTAGES,
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> FigureSeries:
    """Figure 5(b): the same ten views with no indexes initially present."""
    return run_figure_sweep(
        "fig5b",
        "10 views (joins of 3-4 relations), no indexes initially",
        queries.large_view_set(),
        _config(scale_factor, with_pk_indexes=False),
        update_percentages,
    )


# --------------------------------------------------------- cost of optimization

@dataclass
class OptimizationCostResult:
    """§7.2 "Cost of Optimization" — time taken by Greedy vs the savings."""

    view_count: int
    optimization_seconds: float
    no_greedy_cost: float
    greedy_cost: float

    @property
    def savings(self) -> float:
        """Plan-cost savings of one refresh obtained by Greedy."""
        return self.no_greedy_cost - self.greedy_cost


def run_optimization_cost(
    update_percentage: float = 0.10, scale_factor: float = PAPER_SCALE_FACTOR
) -> OptimizationCostResult:
    """Measure Greedy's optimization time for the 10-view workload of Figure 5."""
    config = _config(scale_factor)
    optimizer = config.warehouse().optimizer
    views = queries.large_view_set()
    spec = UpdateSpec.uniform(update_percentage)
    no_greedy = optimizer.no_greedy(views, spec)
    started = time.perf_counter()
    greedy = optimizer.optimize(views, spec)
    elapsed = time.perf_counter() - started
    return OptimizationCostResult(
        view_count=len(views),
        optimization_seconds=elapsed,
        no_greedy_cost=no_greedy.total_cost,
        greedy_cost=greedy.total_cost,
    )


# --------------------------------------------- temporary vs permanent statistics

@dataclass
class TempPermCounts:
    """§7.2 "Temporary vs. Permanent Materialization" counts."""

    temporary: int = 0
    permanent: int = 0

    @property
    def total(self) -> int:
        """Total materialized results classified."""
        return self.temporary + self.permanent

    def add(self, other: "TempPermCounts") -> None:
        """Accumulate counts."""
        self.temporary += other.temporary
        self.permanent += other.permanent


@dataclass
class TempPermResult:
    """Counts overall and split into the paper's low/high update-rate buckets."""

    overall: TempPermCounts = field(default_factory=TempPermCounts)
    low_update: TempPermCounts = field(default_factory=TempPermCounts)
    high_update: TempPermCounts = field(default_factory=TempPermCounts)
    by_percentage: Dict[float, TempPermCounts] = field(default_factory=dict)


def run_temp_vs_perm(
    update_percentages: Sequence[float] = (0.01, 0.05, 0.10, 0.20, 0.50, 0.70, 0.90),
    scale_factor: float = PAPER_SCALE_FACTOR,
) -> TempPermResult:
    """Classify every materialized result by its cheaper refresh strategy.

    Mirrors the paper's statistic: across the workloads of the study and the
    swept update percentages, count how many materialized results are cheaper
    to recompute (→ temporary materialization) versus cheaper to maintain
    incrementally (→ permanent materialization).
    """
    workloads = [
        queries.standalone_join_view(),
        queries.standalone_agg_view(),
        queries.view_set_plain(),
        queries.view_set_aggregate(),
        queries.large_view_set(),
    ]
    result = TempPermResult()
    config = _config(scale_factor)
    optimizer = config.warehouse().optimizer
    for percentage in update_percentages:
        bucket = TempPermCounts()
        spec = UpdateSpec.uniform(percentage)
        for views in workloads:
            outcome = optimizer.optimize(views, spec)
            engine = outcome.engine
            counted = set()
            for key in engine.materialized:
                if not key.is_full or key.node_id in counted:
                    continue
                counted.add(key.node_id)
                if engine.prefers_recomputation(key.node_id):
                    bucket.temporary += 1
                else:
                    bucket.permanent += 1
        result.by_percentage[percentage] = bucket
        result.overall.add(bucket)
        if percentage <= 0.05:
            result.low_update.add(bucket)
        if percentage >= 0.50:
            result.high_update.add(bucket)
    return result


# -------------------------------------------------------------- buffer size effect

@dataclass
class BufferSizeResult:
    """§7.2 "Effect of Buffer Size" — the same sweep at two buffer sizes."""

    large_buffer: FigureSeries
    small_buffer: FigureSeries

    def ratio_at_lowest_update(self) -> Tuple[float, float]:
        """Benefit ratios at the smallest update percentage (large, small buffer)."""
        return (
            self.large_buffer.points[0].benefit_ratio,
            self.small_buffer.points[0].benefit_ratio,
        )


def run_buffer_size_effect(
    update_percentages: Sequence[float] = (0.01, 0.10, 0.40),
    scale_factor: float = PAPER_SCALE_FACTOR,
    large_blocks: int = 8000,
    small_blocks: int = 1000,
) -> BufferSizeResult:
    """Re-run the Figure 4(a) workload with a small (1000-block) buffer pool."""
    views = queries.view_set_plain()
    large = run_figure_sweep(
        "bufsize-large",
        f"5 join views, buffer = {large_blocks} blocks",
        views,
        _config(scale_factor, buffer_blocks=large_blocks),
        update_percentages,
    )
    small = run_figure_sweep(
        "bufsize-small",
        f"5 join views, buffer = {small_blocks} blocks",
        views,
        _config(scale_factor, buffer_blocks=small_blocks),
        update_percentages,
    )
    return BufferSizeResult(large_buffer=large, small_buffer=small)


# --------------------------------------------------------------- §3.3 examples

@dataclass
class SharingExamplesResult:
    """Sanity benches for Examples 3.1 and 3.2 (sharing illustrations)."""

    example_3_1: MqoResult
    example_3_2_no_greedy: float
    example_3_2_greedy: float


def run_sharing_examples(scale_factor: float = PAPER_SCALE_FACTOR) -> SharingExamplesResult:
    """Run the two sharing examples of §3.3 against the TPC-D catalog."""
    catalog = tpcd.tpcd_catalog(scale_factor=scale_factor)
    mqo = MultiQueryOptimizer(catalog)
    example31 = mqo.optimize(queries.example_3_1_queries())

    config = _config(scale_factor)
    optimizer = config.warehouse().optimizer
    spec = UpdateSpec.uniform(0.05)
    views = queries.example_3_2_view()
    no_greedy = optimizer.no_greedy(views, spec).total_cost
    greedy = optimizer.optimize(views, spec).total_cost
    return SharingExamplesResult(
        example_3_1=example31,
        example_3_2_no_greedy=no_greedy,
        example_3_2_greedy=greedy,
    )
