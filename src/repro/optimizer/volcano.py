"""Volcano-style best-plan search over the AND-OR DAG.

Implements the cost recurrences of paper §5.1:

* ``compcost(o) = cost of executing o + Σ compcost(e_i)`` over the operation
  node's input equivalence nodes;
* ``compcost(e) = min over children operation nodes``, 0 for stored leaves;
* when a set ``M`` of equivalence nodes is materialized, an input in ``M``
  contributes ``min(compcost(e), reusecost(e))`` instead.

Best plans per equivalence node are cached (memoized depth-first traversal)
and can be extracted as :class:`~repro.optimizer.plans.PlanNode` trees.
Index availability is consulted through the catalog for base relations and
through an ``extra_indexes`` mapping for materialized intermediate results,
which is how index selection is folded into plan search (paper §4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.optimizer.cost_model import CostModel, InputDescriptor
from repro.optimizer.dag import Dag, EquivalenceNode, OperationNode, Operator, OperatorKind
from repro.optimizer.plans import PlanNode, reuse_plan

INFINITY = math.inf


@dataclass
class OperationChoice:
    """Best costing found for one operation node."""

    operation: OperationNode
    cost: float
    algorithm: str


@dataclass
class NodeBest:
    """Best plan information cached for one equivalence node."""

    compcost: float
    best_operation: Optional[OperationChoice]


def describe_input(
    node: EquivalenceNode,
    catalog: Catalog,
    materialized: bool,
    extra_indexes: Iterable[Tuple[str, ...]] = (),
) -> InputDescriptor:
    """The cost model's view of a node's full result read as an input.

    Stored when it is a base relation or ``materialized``; indexed on the
    catalog's indexes of a base relation, then on ``extra_indexes`` (the
    indexes chosen on a materialized result); sorted on the base relation's
    first btree index.  Plan search and the maintenance cost engine both
    describe inputs through this one rule.
    """
    indexed: List[Tuple[str, ...]] = []
    sorted_on: Tuple[str, ...] = ()
    if node.is_base_relation:
        for index in catalog.indexes(node.expression.canonical()):
            indexed.append(tuple(index.columns))
            if index.kind == "btree" and not sorted_on:
                sorted_on = tuple(index.columns)
    indexed.extend(extra_indexes)
    return InputDescriptor(
        stats=node.stats,
        stored=node.is_base_relation or materialized,
        indexed_columns=tuple(indexed),
        sorted_on=sorted_on,
    )


class VolcanoSearch:
    """Best-plan search with support for reusing materialized results."""

    def __init__(
        self,
        dag: Dag,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        extra_indexes: Optional[Mapping[int, Iterable[Tuple[str, ...]]]] = None,
    ) -> None:
        self.dag = dag
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        #: Indexes available on materialized intermediate results, keyed by
        #: equivalence node id; values are tuples of indexed column names.
        self.extra_indexes: Dict[int, List[Tuple[str, ...]]] = {
            node_id: [tuple(cols) for cols in columns]
            for node_id, columns in (extra_indexes or {}).items()
        }

    # -------------------------------------------------------------- descriptors

    def input_descriptor(self, node: EquivalenceNode, materialized: FrozenSet[int]) -> InputDescriptor:
        """Describe an operator input for the cost model."""
        return describe_input(
            node,
            self.catalog,
            node.id in materialized,
            self.extra_indexes.get(node.id, ()),
        )

    # ------------------------------------------------------------- local costs

    def operation_total_cost(
        self,
        operation: OperationNode,
        materialized: FrozenSet[int],
        input_costs: Sequence[float],
    ) -> Tuple[float, str]:
        """Total cost of one operation *including* its input access costs.

        ``input_costs`` are the ``C(e_i, M)`` values of the operation's
        inputs, in order.  For joins the decision of whether an input's
        access cost is actually paid belongs to the join algorithm (an index
        nested-loop probe never reads the stored input in full), so the cost
        model folds them in; for every other operator they are simply added.
        """
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
            left = self.input_descriptor(operation.inputs[0], materialized)
            right = self.input_descriptor(operation.inputs[1], materialized)
            return cm.join_cost(
                op.conditions, left, right, output, input_costs[0], input_costs[1]
            )
        if op.kind is OperatorKind.AGGREGATE:
            return access + cm.aggregate_cost(inputs[0], output), "hash_aggregate"
        if op.kind is OperatorKind.UNION:
            return access + cm.union_cost(inputs, output), "append"
        if op.kind is OperatorKind.DIFFERENCE:
            return access + cm.difference_cost(inputs[0], inputs[1], output), "hash_difference"
        if op.kind is OperatorKind.DISTINCT:
            return access + cm.distinct_cost(inputs[0], output), "hash_distinct"
        raise ValueError(f"unknown operator kind {op.kind}")

    # ------------------------------------------------------------------ search

    def optimize(self, materialized: Optional[Iterable[int]] = None) -> "SearchResult":
        """Compute best plans for every equivalence node given materialized set ``M``."""
        mat: FrozenSet[int] = frozenset(materialized or ())
        memo: Dict[int, NodeBest] = {}
        in_progress: Set[int] = set()

        def compcost(node: EquivalenceNode) -> NodeBest:
            cached = memo.get(node.id)
            if cached is not None:
                return cached
            if node.id in in_progress:
                # Cycle guard (subsumption derivations cannot create cycles,
                # but be safe): treat as unusable along this path.
                return NodeBest(INFINITY, None)
            in_progress.add(node.id)
            if not node.children:
                best = NodeBest(0.0, None)
            else:
                best_cost = INFINITY
                best_choice: Optional[OperationChoice] = None
                for operation in node.children:
                    input_costs = [
                        self.input_cost(child, mat, compcost) for child in operation.inputs
                    ]
                    if any(c >= INFINITY for c in input_costs):
                        continue
                    total, algorithm = self.operation_total_cost(operation, mat, input_costs)
                    if total < best_cost:
                        best_cost = total
                        best_choice = OperationChoice(operation, total, algorithm)
                best = NodeBest(best_cost, best_choice)
            in_progress.discard(node.id)
            memo[node.id] = best
            return best

        for node in self.dag.topological_order():
            compcost(node)
        return SearchResult(self, mat, memo)

    def input_cost(self, node: EquivalenceNode, materialized: FrozenSet[int], compcost_fn) -> float:
        """``C(e, M)`` — cost of obtaining an input result (paper §5.1)."""
        best = compcost_fn(node)
        if node.id in materialized:
            return min(best.compcost, self.cost_model.reuse_cost(node.stats))
        return best.compcost


class SearchResult:
    """Best costs/plans for every node under one materialized-set assumption."""

    def __init__(self, search: VolcanoSearch, materialized: FrozenSet[int], memo: Dict[int, NodeBest]):
        self._search = search
        self.materialized = materialized
        self._memo = memo

    def compcost(self, node_id: int) -> float:
        """Cost of computing the node's result (ignoring the option to reuse it)."""
        return self._memo[node_id].compcost

    def cost_with_reuse(self, node_id: int) -> float:
        """``C(e, M)``: min of recomputation and reuse for materialized nodes."""
        node = self._search.dag.node(node_id)
        cost = self._memo[node_id].compcost
        if node_id in self.materialized:
            return min(cost, self._search.cost_model.reuse_cost(node.stats))
        return cost

    def best_operation(self, node_id: int) -> Optional[OperationChoice]:
        """The chosen operation node (None for stored leaves)."""
        return self._memo[node_id].best_operation

    # --------------------------------------------------------- plan extraction

    def extract_plan(self, node_id: int, allow_reuse_of_root: bool = False) -> PlanNode:
        """Extract the chosen plan tree rooted at ``node_id``.

        By default the root itself is computed (not reused) even if
        materialized — callers asking "how do I recompute this view?" want
        the computation plan; inputs are still allowed to reuse materialized
        results.
        """
        return self._extract(self._search.dag.node(node_id), is_root=not allow_reuse_of_root)

    def _extract(self, node: EquivalenceNode, is_root: bool = False) -> PlanNode:
        reuse_cost = self._search.cost_model.reuse_cost(node.stats)
        best = self._memo[node.id]
        if not is_root and node.id in self.materialized and reuse_cost <= best.compcost:
            label = node.view_name or f"e{node.id}"
            return reuse_plan(
                node.id,
                label,
                reuse_cost,
                node.stats,
                expression=node.expression,
                view_name=node.view_name,
            )
        if best.best_operation is None:
            if node.is_base_relation:
                relation = node.expression.canonical()
                return PlanNode(
                    description=f"scan({relation})",
                    node_id=node.id,
                    cost=self._search.cost_model.scan_cost(node.stats),
                    cardinality=node.stats.cardinality,
                    algorithm="scan",
                    operator=Operator(OperatorKind.SCAN, relation=relation),
                    expression=node.expression,
                )
            return PlanNode(
                description=node.key,
                node_id=node.id,
                cost=best.compcost,
                cardinality=node.stats.cardinality,
                expression=node.expression,
            )
        choice = best.best_operation
        children = [self._extract(child) for child in choice.operation.inputs]
        return PlanNode(
            description=choice.operation.operator.describe(),
            node_id=node.id,
            cost=choice.cost,
            cardinality=node.stats.cardinality,
            algorithm=choice.algorithm,
            children=children,
            operator=choice.operation.operator,
            expression=node.expression,
        )
