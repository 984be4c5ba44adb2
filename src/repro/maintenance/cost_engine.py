"""The maintenance cost engine.

This module implements the cost recurrences of paper §5 and §6 over the
AND-OR DAG, for a given set of materialized results ``M``:

* ``compcost(e, M)`` — cost of recomputing a node's full result, reusing
  materialized inputs where cheaper (§5.1);
* ``diffCost(e, M, i)`` — cost of computing the node's differential with
  respect to update ``i``, combining differential children, full children
  and the local differential operation cost (§5.3);
* ``totalDiffCost``, ``maintcost``, ``matcost``, ``mergeCost`` and the
  per-result ``cost(x, M)`` used by the greedy algorithm (§6.1).

The engine keeps memoized cost tables and supports the **incremental cost
update** optimization of §6.2: adding or removing a result or an index on
node ``n`` drops only the entries it can change, all at ``a ∈ {n} ∪
ancestors(n)``.  ``δ(n, i)`` is read only by ``δ(·, i)`` plans, so it drops
``diff(a, i)``.  A full result or an index changes only what ``n`` costs as
a *full* input (compcost, reuse, stored / indexed descriptor), so it drops
``compcost(a)``, and ``diff(a, i)`` only where a ``δ(·, i)`` plan below
``a`` can read ``n`` in full: (a) ``i.relation ∉ n.base_relations`` (``n``
is the unchanged side of a differential join), or (b) ``a`` is, or is above,
a node of ``{n} ∪ ancestors(n)`` with an operation that reads a *dependent*
input in full — ``AGGREGATE`` (recompute-affected-groups, and the
delta-aggregate probe into its own stored result), ``DIFFERENCE``,
``DISTINCT``, or a ``JOIN`` whose inputs share a base relation.  Any other
``δ(·, i)`` plan recurses only into inputs that depend on ``i`` and reads
them as differentials, so every entry kept equals a from-scratch
recomputation (a property test pins this).  ``cost(x, M)`` reads only
``x`` and what lies below it, so its table drops ``x`` exactly when
``x ∈ {n} ∪ ancestors(n)``; an input descriptor reads only its own key
(stored? indexed?), so it drops when that key or an index on it changes.
``mergeCost``, ``matcost`` and index upkeep do not depend on ``M`` and are
memoized for the engine's lifetime, as are the join primitives of its
:class:`~repro.optimizer.cost_model.MemoizedCostModel`.  A
:meth:`speculative` context manager snapshots the state so the greedy
algorithm can price "what if I also materialized x?" cheaply and roll back.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.estimator import CardinalityEstimator
from repro.maintenance.diff_dag import DifferentialAnnotations, ResultKey
from repro.maintenance.update_spec import UpdateSpec
from repro.optimizer.cost_model import CostModel, InputDescriptor, MemoizedCostModel
from repro.optimizer.dag import Dag, EquivalenceNode, OperationNode, OperatorKind
from repro.optimizer.volcano import describe_input
from repro.storage.delta import UpdateId

INFINITY = math.inf


class MaintenanceCostEngine:
    """Costs full results, differentials and maintenance under a materialized set."""

    def __init__(
        self,
        dag: Dag,
        catalog: Catalog,
        spec: UpdateSpec,
        cost_model: Optional[CostModel] = None,
        annotations: Optional[DifferentialAnnotations] = None,
        estimator: Optional[CardinalityEstimator] = None,
    ) -> None:
        self.dag = dag
        self.catalog = catalog
        self.spec = spec
        #: Prices through a per-engine memo of the stats-only primitives.
        self.cost_model = MemoizedCostModel(cost_model or CostModel())
        #: The shared estimator all cardinality questions route through
        #: (the annotations' estimator unless one is injected explicitly).
        if estimator is None and annotations is not None:
            estimator = annotations.estimator
        self.estimator = estimator or CardinalityEstimator(catalog)
        self.annotations = annotations or DifferentialAnnotations(
            dag, catalog, spec, estimator=self.estimator
        )

        #: Materialized results (full results and differentials).
        self.materialized: Set[ResultKey] = set()
        #: Extra indexes keyed by equivalence node id -> set of column tuples.
        #: (Indexes on base relations already in the catalog are always seen.)
        self.indexes: Dict[int, Set[Tuple[str, ...]]] = {}

        # Memoized cost tables and chosen algorithms (for plan explanation).
        self._full_cost: Dict[int, float] = {}
        self._full_choice: Dict[int, Tuple[Optional[int], str]] = {}
        self._diff_cost: Dict[Tuple[int, int], float] = {}
        self._diff_choice: Dict[Tuple[int, int], Tuple[Optional[int], str]] = {}
        # cost(x, M) per result key, and the input descriptors join plans
        # read: a node's full result (stored? indexes?) and its differentials.
        self._result_cost: Dict[ResultKey, float] = {}
        self._full_descriptors: Dict[int, InputDescriptor] = {}
        self._delta_descriptors: Dict[Tuple[int, int], InputDescriptor] = {}
        # Independent of M: per node, what a full result or index there
        # invalidates; mergeCost / matcost / index upkeep by (term, node, ...).
        self._invalidation: Dict[int, Tuple[FrozenSet[int], List[Tuple[int, int]]]] = {}
        self._static: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------ set-up

    def set_materialized(self, keys: Iterable[ResultKey]) -> None:
        """Replace the materialized set and clear all cached costs."""
        self.materialized = set(keys)
        self.reset_cache()

    def add_materialized(self, key: ResultKey) -> None:
        """Materialize one more result, invalidating only affected entries."""
        if key in self.materialized:
            return
        self.materialized.add(key)
        self._invalidate_for(key)

    def remove_materialized(self, key: ResultKey) -> None:
        """Un-materialize a result, invalidating only affected entries."""
        if key not in self.materialized:
            return
        self.materialized.discard(key)
        self._invalidate_for(key)

    def add_index(self, node_id: int, columns: Sequence[str]) -> None:
        """Make an index on ``columns`` of node ``node_id`` available to plans."""
        self.indexes.setdefault(node_id, set()).add(tuple(columns))
        self._invalidate_for(ResultKey(node_id, 0))

    def remove_index(self, node_id: int, columns: Sequence[str]) -> None:
        """Remove a previously added index."""
        cols = self.indexes.get(node_id)
        if cols and tuple(columns) in cols:
            cols.discard(tuple(columns))
            if not cols:
                del self.indexes[node_id]
            self._invalidate_for(ResultKey(node_id, 0))

    def reset_cache(self) -> None:
        """Drop every memoized cost (used after wholesale state changes)."""
        self._full_cost.clear()
        self._full_choice.clear()
        self._diff_cost.clear()
        self._diff_choice.clear()
        self._result_cost.clear()
        self._full_descriptors.clear()
        self._delta_descriptors.clear()
        self._static.clear()

    # ----------------------------------------------------- incremental updates

    def _invalidate_for(self, key: ResultKey) -> None:
        """Incremental cost update (§6.2); a full key also stands for an index."""
        nodes, diff_keys = self._invalidation_keys(key.node_id)
        if key.is_full:
            self._full_descriptors.pop(key.node_id, None)
            for nid in nodes:
                self._full_cost.pop(nid, None)
                self._full_choice.pop(nid, None)
        else:
            self._delta_descriptors.pop((key.node_id, key.update), None)
            diff_keys = [(nid, key.update) for nid in nodes]
        for diff_key in diff_keys:
            self._diff_cost.pop(diff_key, None)
            self._diff_choice.pop(diff_key, None)
        # cost(x, M) reads only x and what lies below it.
        for result in [k for k in self._result_cost if k.node_id in nodes]:
            del self._result_cost[result]

    def _invalidation_keys(self, node_id: int) -> Tuple[FrozenSet[int], List[Tuple[int, int]]]:
        if node_id not in self._invalidation:
            node = self.dag.node(node_id)
            affected = {node_id} | self.dag.ancestors_of(node)
            closure: Set[int] = set()
            for nid in affected:
                children = self.dag.node(nid).children
                if nid not in closure and any(map(self._reads_full_dependent, children)):
                    closure |= {nid} | self.dag.ancestors_of(self.dag.node(nid))
            diff_keys = [
                (nid, update.number)
                for nid in affected
                for update in self.annotations.update_ids
                if update.relation in self.dag.node(nid).base_relations
                and (update.relation not in node.base_relations or nid in closure)
            ]
            self._invalidation[node_id] = (frozenset(affected), diff_keys)
        return self._invalidation[node_id]

    @staticmethod
    def _reads_full_dependent(operation: OperationNode) -> bool:
        """Whether a δ-plan of ``operation`` reads a changing input in full (rule (b))."""
        kind = operation.operator.kind
        if kind is OperatorKind.JOIN:
            left, right = operation.inputs
            return bool(left.base_relations & right.base_relations)
        return kind in (OperatorKind.AGGREGATE, OperatorKind.DIFFERENCE, OperatorKind.DISTINCT)

    @contextmanager
    def speculative(self):
        """Snapshot the engine state, yield, then restore it.

        Used by the greedy loop's benefit computation: costs are recomputed
        incrementally inside the block and rolled back afterwards.
        """
        saved = (
            set(self.materialized),
            {k: set(v) for k, v in self.indexes.items()},
            dict(self._full_cost),
            dict(self._full_choice),
            dict(self._diff_cost),
            dict(self._diff_choice),
            dict(self._result_cost),
            dict(self._full_descriptors),
            dict(self._delta_descriptors),
        )
        try:
            yield self
        finally:
            (
                self.materialized,
                self.indexes,
                self._full_cost,
                self._full_choice,
                self._diff_cost,
                self._diff_choice,
                self._result_cost,
                self._full_descriptors,
                self._delta_descriptors,
            ) = saved

    # ------------------------------------------------------------- descriptors

    def _full_descriptor(self, node: EquivalenceNode) -> InputDescriptor:
        descriptor = self._full_descriptors.get(node.id)
        if descriptor is None:
            descriptor = self._full_descriptors[node.id] = describe_input(
                node,
                self.catalog,
                ResultKey(node.id, 0) in self.materialized,
                self.indexes.get(node.id, ()),
            )
        return descriptor

    def _delta_descriptor(self, node: EquivalenceNode, update: UpdateId) -> InputDescriptor:
        key = (node.id, update.number)
        descriptor = self._delta_descriptors.get(key)
        if descriptor is None:
            descriptor = self._delta_descriptors[key] = InputDescriptor(
                stats=self.annotations.delta_stats(*key),
                stored=ResultKey(*key) in self.materialized,
            )
        return descriptor

    # --------------------------------------------------------------- compcost

    def compcost(self, node_id: int) -> float:
        """``compcost(e, M)`` — cost of computing the node's full result."""
        cached = self._full_cost.get(node_id)
        if cached is not None:
            return cached
        in_progress: Set[int] = set()

        def compute(node: EquivalenceNode) -> float:
            cached_inner = self._full_cost.get(node.id)
            if cached_inner is not None:
                return cached_inner
            if node.id in in_progress:
                return INFINITY
            in_progress.add(node.id)
            if not node.children:
                best, choice = 0.0, (None, "stored")
            else:
                best = INFINITY
                choice = (None, "")
                for operation in node.children:
                    input_costs = [self._full_input_cost(child, compute) for child in operation.inputs]
                    if any(c >= INFINITY for c in input_costs):
                        continue
                    total, algorithm = self._op_full_cost(operation, input_costs)
                    if total < best:
                        best = total
                        choice = (operation.id, algorithm)
            in_progress.discard(node.id)
            self._full_cost[node.id] = best
            self._full_choice[node.id] = choice
            return best

        return compute(self.dag.node(node_id))

    def _full_input_cost(self, node: EquivalenceNode, compute) -> float:
        """``C(e, M)`` for a full-result input."""
        cost = compute(node)
        if ResultKey(node.id, 0) in self.materialized:
            return min(cost, self.cost_model.reuse_cost(node.stats))
        return cost

    def full_input_cost(self, node_id: int) -> float:
        """Public ``C(e, M)``: min of recomputation and reuse."""
        node = self.dag.node(node_id)
        cost = self.compcost(node_id)
        if ResultKey(node_id, 0) in self.materialized:
            return min(cost, self.cost_model.reuse_cost(node.stats))
        return cost

    def _op_full_cost(self, operation: OperationNode, input_costs: Sequence[float]) -> Tuple[float, str]:
        cm = self.cost_model
        op = operation.operator
        output = operation.parent.stats
        inputs = [node.stats for node in operation.inputs]
        access = sum(input_costs)
        if op.kind is OperatorKind.SCAN:
            return cm.scan_cost(self.catalog.stats(op.relation)), "scan"
        if op.kind is OperatorKind.SELECT:
            return access + cm.select_cost(inputs[0], output), "filter"
        if op.kind is OperatorKind.PROJECT:
            return access + cm.project_cost(inputs[0], output), "project"
        if op.kind is OperatorKind.JOIN:
            left = self._full_descriptor(operation.inputs[0])
            right = self._full_descriptor(operation.inputs[1])
            return cm.join_cost(op.conditions, left, right, output, input_costs[0], input_costs[1])
        if op.kind is OperatorKind.AGGREGATE:
            return access + cm.aggregate_cost(inputs[0], output), "hash_aggregate"
        if op.kind is OperatorKind.UNION:
            return access + cm.union_cost(inputs, output), "append"
        if op.kind is OperatorKind.DIFFERENCE:
            return access + cm.difference_cost(inputs[0], inputs[1], output), "hash_difference"
        if op.kind is OperatorKind.DISTINCT:
            return access + cm.distinct_cost(inputs[0], output), "hash_distinct"
        raise ValueError(f"unknown operator kind {op.kind}")

    # --------------------------------------------------------------- diffCost

    def diffcost(self, node_id: int, update_number: int) -> float:
        """``diffCost(e, M, i)`` — cost of computing one differential of the node."""
        node = self.dag.node(node_id)
        update = self.annotations.update_by_number(update_number)
        if update.relation not in node.base_relations:
            return 0.0
        cached = self._diff_cost.get((node_id, update_number))
        if cached is not None:
            return cached
        in_progress: Set[int] = set()

        def compute(inner: EquivalenceNode) -> float:
            if update.relation not in inner.base_relations:
                return 0.0
            key = (inner.id, update_number)
            cached_inner = self._diff_cost.get(key)
            if cached_inner is not None:
                return cached_inner
            if inner.id in in_progress:
                return INFINITY
            in_progress.add(inner.id)
            if not inner.children:
                best, choice = 0.0, (None, "stored-delta")
            else:
                best = INFINITY
                choice = (None, "")
                for operation in inner.children:
                    total, algorithm = self._op_diff_cost(operation, update, compute)
                    if total < best:
                        best = total
                        choice = (operation.id, algorithm)
            in_progress.discard(inner.id)
            self._diff_cost[key] = best
            self._diff_choice[key] = choice
            return best

        return compute(node)

    def _diff_input_cost(self, node: EquivalenceNode, update: UpdateId, compute) -> float:
        """``C(e, M, i)`` for a differential input (§5.3)."""
        cost = compute(node)
        if ResultKey(node.id, update.number) in self.materialized:
            reuse = self.cost_model.reuse_cost(self.annotations.delta_stats(node.id, update.number))
            return min(cost, reuse)
        return cost

    def diff_input_cost(self, node_id: int, update_number: int) -> float:
        """Public ``C(e, M, i)``."""
        cost = self.diffcost(node_id, update_number)
        if ResultKey(node_id, update_number) in self.materialized:
            reuse = self.cost_model.reuse_cost(self.annotations.delta_stats(node_id, update_number))
            return min(cost, reuse)
        return cost

    def _op_diff_cost(self, operation: OperationNode, update: UpdateId, compute) -> Tuple[float, str]:
        """``diffCost`` of one operation node w.r.t. one update."""
        cm = self.cost_model
        op = operation.operator
        parent = operation.parent
        out_delta = self.annotations.delta_stats(parent.id, update.number)

        if op.kind is OperatorKind.SCAN:
            if op.relation != update.relation:
                return INFINITY, ""
            return cm.scan_cost(self.annotations.relation_delta_stats(update)), "delta-scan"

        if op.kind in (OperatorKind.SELECT, OperatorKind.PROJECT):
            child = operation.inputs[0]
            access = self._diff_input_cost(child, update, compute)
            child_delta = self.annotations.delta_stats(child.id, update.number)
            if op.kind is OperatorKind.SELECT:
                local = cm.select_cost(child_delta, out_delta)
            else:
                local = cm.project_cost(child_delta, out_delta)
            return access + local, "delta-filter"

        if op.kind is OperatorKind.JOIN:
            return self._join_diff_cost(operation, update, compute)

        if op.kind is OperatorKind.AGGREGATE:
            child = operation.inputs[0]
            access = self._diff_input_cost(child, update, compute)
            child_delta = self.annotations.delta_stats(child.id, update.number)
            local = cm.aggregate_cost(child_delta, out_delta)
            if ResultKey(parent.id, 0) in self.materialized:
                # The old aggregate rows for the affected groups come from the
                # stored result: one probe per affected group.
                probe = out_delta.cardinality * cm.parameters.cpu_probe_time
                return access + local + probe, "delta-aggregate"
            # Otherwise affected groups have to be recomputed from the full
            # child result (§3.1.2) — essentially as expensive as recomputing.
            full_child = self.full_input_cost(child.id)
            recompute = cm.aggregate_cost(child.stats, parent.stats)
            return access + local + full_child + recompute, "recompute-affected-groups"

        if op.kind is OperatorKind.UNION:
            dependent = [c for c in operation.inputs if update.relation in c.base_relations]
            access = sum(self._diff_input_cost(c, update, compute) for c in dependent)
            deltas = [self.annotations.delta_stats(c.id, update.number) for c in dependent]
            return access + cm.union_cost(deltas, out_delta), "delta-append"

        if op.kind in (OperatorKind.DIFFERENCE, OperatorKind.DISTINCT):
            # Conservative: differentials of these operators need old and new
            # input results; price them as recomputation over the inputs.
            access = sum(self.full_input_cost(c.id) for c in operation.inputs)
            access += sum(
                self._diff_input_cost(c, update, compute)
                for c in operation.inputs
                if update.relation in c.base_relations
            )
            inputs = [c.stats for c in operation.inputs]
            if op.kind is OperatorKind.DIFFERENCE:
                local = cm.difference_cost(inputs[0], inputs[1], parent.stats)
            else:
                local = cm.distinct_cost(inputs[0], parent.stats)
            return access + local, "delta-recompute"

        raise ValueError(f"unknown operator kind {op.kind}")

    def _join_diff_cost(self, operation: OperationNode, update: UpdateId, compute) -> Tuple[float, str]:
        cm = self.cost_model
        op = operation.operator
        parent = operation.parent
        out_delta = self.annotations.delta_stats(parent.id, update.number)
        left, right = operation.inputs
        left_dep = update.relation in left.base_relations
        right_dep = update.relation in right.base_relations

        if left_dep and not right_dep:
            cost, algorithm = cm.join_cost(
                op.conditions,
                self._delta_descriptor(left, update),
                self._full_descriptor(right),
                out_delta,
                self._diff_input_cost(left, update, compute),
                self.full_input_cost(right.id),
            )
            return cost, f"delta-{algorithm}"
        if right_dep and not left_dep:
            cost, algorithm = cm.join_cost(
                op.conditions,
                self._full_descriptor(left),
                self._delta_descriptor(right, update),
                out_delta,
                self.full_input_cost(left.id),
                self._diff_input_cost(right, update, compute),
            )
            return cost, f"delta-{algorithm}"

        # Both inputs change: the join becomes a union of two joins,
        # (δE1 ⋈ E2_old) ∪ (E1_new ⋈ δE2)  — paper §5.3.
        left_delta_stats = self.annotations.delta_stats(left.id, update.number)
        right_delta_stats = self.annotations.delta_stats(right.id, update.number)
        part1 = self.estimator.join_stats(left_delta_stats, right.stats, op.conditions)
        part2 = self.estimator.join_stats(left.stats, right_delta_stats, op.conditions)
        cost1, _ = cm.join_cost(
            op.conditions,
            self._delta_descriptor(left, update),
            self._full_descriptor(right),
            part1,
            self._diff_input_cost(left, update, compute),
            self.full_input_cost(right.id),
        )
        cost2, _ = cm.join_cost(
            op.conditions,
            self._full_descriptor(left),
            self._delta_descriptor(right, update),
            part2,
            self.full_input_cost(left.id),
            self._diff_input_cost(right, update, compute),
        )
        union = cm.union_cost([part1, part2], out_delta)
        return cost1 + cost2 + union, "delta-join-both-sides"

    # ----------------------------------------------------- maintenance costing

    def total_diff_cost(self, node_id: int) -> float:
        """``totalDiffCost(e, M)`` — sum of diffCost over all (non-empty) updates."""
        node = self.dag.node(node_id)
        total = 0.0
        for update in self.annotations.updates():
            if update.relation in node.base_relations:
                total += self.diffcost(node_id, update.number)
        return total

    def merge_cost(self, node_id: int) -> float:
        """``mergeCost(e)`` — cost of applying the differentials to the stored result."""
        has_index = bool(self.indexes.get(node_id))
        key = ("merge", node_id, has_index)
        if key not in self._static:
            self._static[key] = self.cost_model.merge_cost(
                self.dag.node(node_id).stats,
                self.annotations.delta_stats_list(node_id),
                has_index=has_index,
            )
        return self._static[key]

    def maintcost(self, node_id: int) -> float:
        """``maintcost(e, M)`` — incremental maintenance cost of a stored result."""
        return self.total_diff_cost(node_id) + self.merge_cost(node_id)

    def matcost(self, node_id: int, update_number: int = 0) -> float:
        """``matcost`` — cost of writing out a (full or differential) result."""
        key = ("mat", node_id, update_number)
        if key not in self._static:
            if update_number == 0:
                stats = self.dag.node(node_id).stats
            else:
                stats = self.annotations.delta_stats(node_id, update_number)
            self._static[key] = self.cost_model.materialize_cost(stats)
        return self._static[key]

    def recompute_cost(self, node_id: int) -> float:
        """Recomputation + storing cost of a materialized full result."""
        return self.compcost(node_id) + self.matcost(node_id)

    def result_cost(self, key: ResultKey) -> float:
        """``cost(x, M)`` for one materialized result (paper §6.1)."""
        cost = self._result_cost.get(key)
        if cost is None:
            if key.is_full:
                cost = min(self.recompute_cost(key.node_id), self.maintcost(key.node_id))
            else:
                cost = self.diffcost(key.node_id, key.update) + self.matcost(key.node_id, key.update)
            self._result_cost[key] = cost
        return cost

    def prefers_recomputation(self, node_id: int) -> bool:
        """Whether a full result is cheaper to recompute than to maintain.

        Recomputed results are *temporarily* materialized during refresh and
        discarded; maintained results are *permanent* (paper §6.1).
        """
        return self.recompute_cost(node_id) <= self.maintcost(node_id)

    def index_cost(self, node_id: int, columns: Sequence[str]) -> float:
        """Maintenance cost of keeping an index on node ``node_id`` up to date.

        It depends on the node's deltas only, not on ``columns``.
        """
        key = ("index", node_id)
        if key in self._static:
            return self._static[key]
        node = self.dag.node(node_id)
        if node.is_base_relation:
            relation = node.expression.canonical()
            deltas = [
                self.spec.delta_stats(self.catalog, relation, update.kind)
                for update in self.annotations.updates()
                if update.relation == relation
            ]
        else:
            deltas = self.annotations.delta_stats_list(node_id)
        self._static[key] = self.cost_model.index_maintenance_cost(deltas)
        return self._static[key]

    def total_cost(self, index_costs: bool = True) -> float:
        """``cost(M, M)`` — total refresh cost of everything materialized."""
        total = sum(self.result_cost(key) for key in self.materialized)
        if index_costs:
            for node_id, column_sets in self.indexes.items():
                for columns in column_sets:
                    total += self.index_cost(node_id, columns)
        return total
