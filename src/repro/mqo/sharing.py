"""Shared sub-expression detection and shared-batch execution.

A node is *shared* when it can participate in the plans of more than one
query root.  RSSB00's "sharability" optimization only offers shared nodes as
materialization candidates for query workloads (a result used by a single
query is never worth materializing temporarily — computing it in place is
always at least as good).  Note that the maintenance setting deliberately
drops this pruning (paper §6.2): a result used once can still be worth
materializing *permanently* to speed up maintenance.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Set, Tuple

from repro.algebra.expressions import Expression
from repro.algebra.schema_derivation import derive_schema
from repro.engine.database import Database
from repro.engine.executor import MaterializedRegistry
from repro.engine.physical import PhysicalExecutor, execute_plan
from repro.optimizer.dag import Dag, EquivalenceNode
from repro.optimizer.plans import PlanNode
from repro.storage.relation import Relation


def _reachable_from(root: EquivalenceNode) -> Set[int]:
    """All equivalence node ids reachable downward from ``root``."""
    seen: Set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for operation in node.children:
            stack.extend(operation.inputs)
    return seen


def nodes_per_query(dag: Dag) -> Dict[str, Set[int]]:
    """Map each query/view root name to the node ids reachable from it."""
    return {name: _reachable_from(root) for name, root in dag.roots.items()}


def shared_nodes(dag: Dag, minimum_queries: int = 2) -> List[EquivalenceNode]:
    """Nodes reachable from at least ``minimum_queries`` different roots."""
    per_query = nodes_per_query(dag)
    counts: Dict[int, int] = {}
    for reachable in per_query.values():
        for node_id in reachable:
            counts[node_id] = counts.get(node_id, 0) + 1
    return [
        node
        for node in dag.equivalence_nodes
        if counts.get(node.id, 0) >= minimum_queries and not node.is_base_relation
    ]


def sharable_candidates(dag: Dag) -> List[EquivalenceNode]:
    """Candidate nodes for temporary materialization in a query workload.

    Shared non-base nodes, excluding the query roots themselves (each root is
    produced exactly once anyway) — RSSB00's sharability pruning.
    """
    roots = {node.id for node in dag.roots.values()}
    return [node for node in shared_nodes(dag) if node.id not in roots]


#: Reuse labels minted by plan extraction for unnamed DAG nodes ("e<id>").
_AUTO_LABEL = re.compile(r"e\d+")


def _check_temporary_order(ordered: List[Tuple[str, Expression]]) -> None:
    """Statically verify the materialization order before computing anything.

    A temporary that contains another temporary as a sub-expression must be
    materialized after it; raises
    :class:`~repro.engine.physical.PhysicalPlanError` otherwise
    (``REPRO-P007``) so a broken order surfaces before the first shared
    result is stored.
    """
    from repro.analysis.diagnostics import render_diagnostics
    from repro.analysis.planlint import verify_temporaries
    from repro.engine.physical import PhysicalPlanError

    diagnostics = verify_temporaries(ordered)
    if diagnostics:
        raise PhysicalPlanError(
            "shared temporaries are not topologically ordered:\n"
            + render_diagnostics(diagnostics)
        )


def execute_with_temporaries(
    database: Database,
    queries: Mapping[str, Expression],
    plans: Mapping[str, PlanNode],
    drop_temporaries: bool = True,
) -> Dict[str, Relation]:
    """Execute a multi-query batch the way its optimized plans prescribe.

    Every ``reuse[...]`` step across the plans names a shared sub-expression
    the optimizer chose to materialize temporarily.  Those are computed once
    (through the physical layer, smaller expressions first so nested shared
    results can themselves reuse earlier ones), registered as temporary
    views, and then every query plan executes against them.  Results are
    conformed to each query's logical schema; the temporaries are dropped
    afterwards unless ``drop_temporaries`` is cleared.
    """
    registry = MaterializedRegistry()
    temporaries: Dict[str, Expression] = {}
    for plan in plans.values():
        for step in plan.reused_nodes():
            name = step.view_name
            if name is None or step.expression is None or name in temporaries:
                continue
            # A reuse label that names a genuinely materialized view (a root
            # view, a permanent result) is read as-is.  DAG-scoped labels
            # ("e14") are never trusted against existing relations — node ids
            # are not stable across DAGs — so those are always computed
            # fresh under a collision-free name.
            if database.has_relation(name) and not _AUTO_LABEL.fullmatch(name):
                continue
            temporaries[name] = step.expression

    executor = PhysicalExecutor(database)
    # A shared result nested inside another shared result has a strictly
    # shorter canonical form, so ascending canonical length is a valid
    # materialization order.
    ordered = sorted(temporaries.items(), key=lambda item: len(item[1].canonical()))
    _check_temporary_order(ordered)
    created: List[Tuple[str, Expression]] = []
    try:
        for name, expression in ordered:
            # Pick a storage name that cannot collide with existing
            # relations; the plans resolve reuse steps through the registry
            # (by expression), so the label need not match.
            stored_as = name
            suffix = 0
            while database.has_relation(stored_as):
                suffix += 1
                stored_as = f"{name}__tmp{suffix}"
            database.materialize_view(stored_as, executor.evaluate(expression, registry))
            registry.register(expression, stored_as)
            created.append((stored_as, expression))

        results: Dict[str, Relation] = {}
        for name, plan in plans.items():
            expected = None
            if name in queries:
                expected = derive_schema(queries[name], database.catalog)
            results[name] = execute_plan(
                plan, database, registry, output_schema=expected
            )
        return results
    finally:
        if drop_temporaries:
            for name, expression in created:
                database.drop_view(name)
                registry.unregister(expression)


def sharing_report(dag: Dag) -> Dict[str, List[str]]:
    """Readable report: which shared sub-expressions appear in which queries."""
    per_query = nodes_per_query(dag)
    report: Dict[str, List[str]] = {}
    for node in shared_nodes(dag):
        queries = sorted(name for name, reachable in per_query.items() if node.id in reachable)
        report[node.key] = queries
    return report
