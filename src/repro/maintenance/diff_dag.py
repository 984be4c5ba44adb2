"""Differential annotations over the AND-OR DAG.

Paper §5.2 extends each equivalence node with ``2n`` entries — one per
(relation, insert/delete) update — holding the logical properties of the
node's differential with respect to that update.  This module computes those
logical properties (estimated cardinality, width, column statistics of the
differential result) for every node, by re-deriving the node's statistics
with the updated relation's statistics replaced by the statistics of its
delta batch.

The best *plans* for the differentials are computed separately by the
maintenance cost engine; this module is purely about logical properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.schema_derivation import derive_stats
from repro.catalog.catalog import Catalog
from repro.catalog.estimator import CardinalityEstimator
from repro.catalog.statistics import TableStats
from repro.optimizer.dag import Dag, EquivalenceNode
from repro.storage.delta import UpdateId
from repro.maintenance.update_spec import UpdateSpec


class DeltaCatalog(Catalog):
    """A catalog view in which one relation's statistics are its delta's.

    Deriving an expression's statistics against this catalog yields the
    statistics of the expression's differential with respect to that
    relation's insert or delete batch (the other relations keep their full
    statistics — exactly the shape of the paper's one-update-at-a-time
    differential expressions).
    """

    def __init__(self, base: Catalog, relation: str, delta_stats: TableStats) -> None:
        super().__init__()
        self._base = base
        self._relation = relation
        self._delta_stats = delta_stats

    # Delegate everything to the wrapped catalog except the one stats lookup.
    def table(self, name: str):
        return self._base.table(name)

    def has_table(self, name: str) -> bool:
        return self._base.has_table(name)

    def schema(self, name: str):
        return self._base.schema(name)

    def stats(self, name: str) -> TableStats:
        if name == self._relation:
            return self._delta_stats
        return self._base.stats(name)

    def stats_version(self, name: str) -> int:
        return self._base.stats_version(name)

    def indexes(self, table: str):
        return self._base.indexes(table)

    def has_index_on(self, table: str, columns: Sequence[str]) -> bool:
        return self._base.has_index_on(table, columns)


@dataclass(frozen=True)
class ResultKey:
    """Identifies a result in the DAG: a node's full result or one differential.

    ``update`` is 0 for the full result (the paper's convention) and the
    1-based update number otherwise.
    """

    node_id: int
    update: int = 0

    @property
    def is_full(self) -> bool:
        """Whether this is the node's full result."""
        return self.update == 0

    def describe(self, dag: Optional[Dag] = None) -> str:
        """Readable rendering, e.g. ``e7`` or ``δ3(e7)``."""
        label = f"e{self.node_id}"
        if dag is not None:
            node = dag.node(self.node_id)
            if node.view_name:
                label = node.view_name
        if self.is_full:
            return label
        return f"δ{self.update}({label})"


class DifferentialAnnotations:
    """Per-node, per-update logical properties of differentials."""

    def __init__(
        self,
        dag: Dag,
        catalog: Catalog,
        spec: UpdateSpec,
        estimator: Optional[CardinalityEstimator] = None,
    ) -> None:
        self.dag = dag
        self.catalog = catalog
        self.spec = spec
        self.estimator = estimator or CardinalityEstimator(catalog)
        # Propagation order: base relations appearing anywhere in the DAG,
        # ordered by the spec's relation order (fallback: sorted names).
        present = set()
        for node in dag.equivalence_nodes:
            present |= set(node.base_relations)
        ordered = [r for r in spec.relation_order if r in present]
        ordered += sorted(present - set(ordered))
        self.relations: List[str] = ordered
        self.update_ids: List[UpdateId] = spec.restricted_to(self.relations).update_ids(
            self.relations, only_nonempty=True
        )
        self._by_number: Dict[int, UpdateId] = {u.number: u for u in self.update_ids}
        self._delta_stats: Dict[Tuple[int, int], TableStats] = {}
        self._delta_stats_lists: Dict[int, Tuple[TableStats, ...]] = {}
        self._delta_catalogs: Dict[int, DeltaCatalog] = {}
        self._compute()

    # ------------------------------------------------------------------ build

    def _compute(self) -> None:
        for update in self.update_ids:
            delta_relation_stats = self.spec.delta_stats(self.catalog, update.relation, update.kind)
            delta_catalog = DeltaCatalog(self.catalog, update.relation, delta_relation_stats)
            self._delta_catalogs[update.number] = delta_catalog
            # Per-update estimator clone: the delta catalog disagrees with
            # the base catalog about the updated relation, so the memoized
            # estimates must not be shared; full-result feedback does not
            # describe differentials, so it is disabled for these.
            delta_estimator = self.estimator.for_catalog(delta_catalog, use_feedback=False)
            for node in self.dag.equivalence_nodes:
                if update.relation not in node.base_relations:
                    continue
                stats = derive_stats(node.expression, delta_catalog, estimator=delta_estimator)
                self._delta_stats[(node.id, update.number)] = stats

    # ----------------------------------------------------------------- lookups

    def updates(self) -> List[UpdateId]:
        """All non-empty updates in propagation order."""
        return list(self.update_ids)

    def update_by_number(self, number: int) -> UpdateId:
        """Resolve an update number back to its :class:`UpdateId`."""
        try:
            return self._by_number[number]
        except KeyError:
            raise KeyError(f"unknown update number {number}") from None

    def depends(self, node: EquivalenceNode, update: UpdateId) -> bool:
        """Whether the node's differential w.r.t. ``update`` is non-empty."""
        return update.relation in node.base_relations

    def delta_stats(self, node_id: int, update_number: int) -> TableStats:
        """Statistics of ``δ(node, update)``; empty stats if the node is unaffected."""
        stats = self._delta_stats.get((node_id, update_number))
        if stats is not None:
            return stats
        node = self.dag.node(node_id)
        return TableStats(0.0, node.stats.tuple_width, {})

    def relation_delta_stats(self, update: UpdateId) -> TableStats:
        """Statistics of the raw δ batch of the updated base relation."""
        return self.spec.delta_stats(self.catalog, update.relation, update.kind)

    def total_delta_cardinality(self, node_id: int) -> float:
        """Sum of differential cardinalities over all updates (sizing merges)."""
        return sum(
            self.delta_stats(node_id, update.number).cardinality for update in self.update_ids
        )

    def delta_stats_list(self, node_id: int) -> Tuple[TableStats, ...]:
        """Differential statistics for every update affecting the node."""
        cached = self._delta_stats_lists.get(node_id)
        if cached is None:
            node = self.dag.node(node_id)
            cached = self._delta_stats_lists[node_id] = tuple(
                self.delta_stats(node_id, update.number)
                for update in self.update_ids
                if update.relation in node.base_relations
            )
        return cached
