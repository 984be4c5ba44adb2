"""Generic experiment harness.

Every figure in the paper plots *plan cost* (estimated seconds) against
*update percentage*, for the two algorithms ``NoGreedy`` and ``Greedy``.
``run_figure_sweep`` produces exactly that series for any workload; the
per-figure wrappers in :mod:`repro.bench.experiments` only choose the
workload, the catalog configuration and the sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.algebra.expressions import Expression
from repro.api import Warehouse, WarehouseConfig
from repro.catalog.catalog import Catalog
from repro.maintenance.update_spec import UpdateSpec
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.storage.buffer import BufferPool


@dataclass
class ExperimentConfig:
    """Configuration shared by a sweep: catalog, cost model, optimizer flags."""

    catalog: Catalog
    buffer_blocks: int = 8000
    block_size: int = 4096
    include_index_candidates: bool = True
    use_monotonicity: bool = True
    insert_to_delete_ratio: float = 2.0

    def warehouse_config(self) -> WarehouseConfig:
        """This configuration expressed as a :class:`WarehouseConfig`."""
        return WarehouseConfig(
            buffer_pages=self.buffer_blocks,
            block_size=self.block_size,
            include_index_candidates=self.include_index_candidates,
            use_monotonicity=self.use_monotonicity,
            insert_to_delete_ratio=self.insert_to_delete_ratio,
        )

    def warehouse(self) -> Warehouse:
        """A :class:`Warehouse` session over this configuration's catalog."""
        return Warehouse(self.warehouse_config()).load(catalog=self.catalog)

    def cost_model(self) -> CostModel:
        """The cost model implied by this configuration."""
        return CostModel(CostParameters(), BufferPool(self.buffer_blocks, self.block_size))


@dataclass
class FigurePoint:
    """One x-axis point of a figure: costs of both algorithms at one update %."""

    update_percentage: float
    no_greedy_cost: float
    greedy_cost: float
    greedy_selections: int
    greedy_indexes: int
    greedy_permanent: int
    greedy_temporary: int

    @property
    def benefit_ratio(self) -> float:
        """NoGreedy cost divided by Greedy cost (≥ 1 when Greedy wins)."""
        if self.greedy_cost <= 0:
            return float("inf")
        return self.no_greedy_cost / self.greedy_cost


@dataclass
class FigureSeries:
    """A full figure: the swept points plus identifying metadata."""

    experiment: str
    description: str
    points: List[FigurePoint] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows suitable for tabular rendering."""
        return [
            {
                "update_pct": point.update_percentage * 100.0,
                "no_greedy": point.no_greedy_cost,
                "greedy": point.greedy_cost,
                "ratio": point.benefit_ratio,
                "selections": point.greedy_selections,
            }
            for point in self.points
        ]

    def ratios(self) -> List[float]:
        """Benefit ratios in sweep order."""
        return [point.benefit_ratio for point in self.points]

    def max_ratio(self) -> float:
        """The largest benefit ratio observed (usually at the lowest update %)."""
        return max(self.ratios()) if self.points else 0.0


def run_figure_sweep(
    experiment: str,
    description: str,
    views: Mapping[str, Expression],
    config: ExperimentConfig,
    update_percentages: Sequence[float],
    max_selections: Optional[int] = None,
) -> FigureSeries:
    """Run Greedy and NoGreedy across ``update_percentages`` for one workload."""
    series = FigureSeries(experiment=experiment, description=description)
    warehouse = config.warehouse().define_views(views)
    for percentage in update_percentages:
        spec = UpdateSpec.uniform(percentage, insert_to_delete_ratio=config.insert_to_delete_ratio)
        no_greedy = warehouse.optimize(spec, greedy=False)
        greedy = warehouse.optimize(spec, greedy=True, max_selections=max_selections)
        series.points.append(
            FigurePoint(
                update_percentage=percentage,
                no_greedy_cost=no_greedy.total_cost,
                greedy_cost=greedy.total_cost,
                greedy_selections=len(greedy.selection.selections) if greedy.selection else 0,
                greedy_indexes=len(greedy.indexes),
                greedy_permanent=len(greedy.permanent_results),
                greedy_temporary=len(greedy.temporary_results),
            )
        )
    return series
