"""Logical rewrites used when preparing expressions for the DAG builder.

Two normalizations keep the expanded DAG small and maximize unification:

* **selection push-down** — conjuncts of a selection above a join that
  reference columns of only one join input are pushed to that input, and
  cascading selections are merged;
* **join flattening** — nested joins are flattened into a *join block*
  (a set of non-join leaf inputs plus the multiset of equi-join conditions),
  which the builder then re-expands into every association order.  This is
  how the expanded DAG ends up with "exactly one equivalence node for every
  subset of {A, B, C}" (paper Figure 1(c)).

Two helpers serve the differential engine: :func:`delta_first_join` orders a
join block outward from the leaf an update changes, and :func:`oriented_form`
keys results by expression *and* column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.algebra.expressions import (
    Aggregate,
    BaseRelation,
    Difference,
    Distinct,
    Expression,
    Join,
    Project,
    Select,
    UnionAll,
)
from repro.algebra.predicates import (
    Predicate,
    TruePredicate,
    conjoin,
    conjuncts,
)
from repro.catalog.catalog import Catalog
from repro.algebra.schema_derivation import derive_schema


def push_down_selections(expression: Expression, catalog: Catalog) -> Expression:
    """Push selection conjuncts as close to the base relations as possible."""

    def referenced(pred: Predicate, node: Expression) -> bool:
        schema = derive_schema(node, catalog)
        return all(column in schema for column in pred.columns())

    def rewrite(node: Expression, pending: List[Predicate]) -> Expression:
        if isinstance(node, Select):
            return rewrite(node.child, pending + conjuncts(node.predicate))

        if isinstance(node, Join):
            left_preds = [p for p in pending if referenced(p, node.left)]
            remaining = [p for p in pending if p not in left_preds]
            right_preds = [p for p in remaining if referenced(p, node.right)]
            still_pending = [p for p in remaining if p not in right_preds]
            new_left = rewrite(node.left, left_preds)
            new_right = rewrite(node.right, right_preds)
            rebuilt: Expression = Join(new_left, new_right, node.conditions, node.residual)
            if still_pending:
                rebuilt = Select(rebuilt, conjoin(still_pending))
            return rebuilt

        if isinstance(node, (Aggregate, Project, Distinct, UnionAll, Difference, BaseRelation)):
            # Rebuild children without selections crossing these operators
            # (pushing through aggregation/projection safely would need
            # column provenance tracking; the paper's workloads do not rely
            # on it, so we stop here and re-apply pending conjuncts on top).
            rebuilt = _rebuild_children(node, catalog)
            if pending:
                return Select(rebuilt, conjoin(pending))
            return rebuilt

        raise TypeError(f"unknown expression type {type(node).__name__}")

    return rewrite(expression, [])


def _rebuild_children(node: Expression, catalog: Catalog) -> Expression:
    if isinstance(node, BaseRelation):
        return node
    if isinstance(node, Aggregate):
        return Aggregate(push_down_selections(node.child, catalog), node.group_by, node.aggregates)
    if isinstance(node, Project):
        return Project(push_down_selections(node.child, catalog), node.columns)
    if isinstance(node, Distinct):
        return Distinct(push_down_selections(node.child, catalog))
    if isinstance(node, UnionAll):
        return UnionAll([push_down_selections(i, catalog) for i in node.inputs])
    if isinstance(node, Difference):
        return Difference(
            push_down_selections(node.left, catalog), push_down_selections(node.right, catalog)
        )
    return node


@dataclass
class JoinBlock:
    """A flattened join: leaf inputs and the equi-join conditions among them.

    ``leaves`` are non-join expressions (base relations, selections over base
    relations, aggregate results, ...).  ``conditions`` keep the original
    ``(left_column, right_column)`` pairs; ``residuals`` collects non-equi
    join predicates which are re-applied on top of the block.
    """

    leaves: List[Expression] = field(default_factory=list)
    conditions: List[Tuple[str, str]] = field(default_factory=list)
    residuals: List[Predicate] = field(default_factory=list)

    @property
    def is_trivial(self) -> bool:
        """Whether the block is a single leaf (no join at all)."""
        return len(self.leaves) <= 1


def flatten_join_block(expression: Expression) -> JoinBlock:
    """Flatten a tree of joins into a :class:`JoinBlock`.

    Non-join operators become leaves; their subtrees are *not* flattened
    further here (the DAG builder recurses into them separately).
    """
    block = JoinBlock()

    def visit(node: Expression) -> None:
        if isinstance(node, Join):
            block.conditions.extend(node.conditions)
            if node.residual is not None and not isinstance(node.residual, TruePredicate):
                block.residuals.append(node.residual)
            visit(node.left)
            visit(node.right)
        else:
            block.leaves.append(node)

    visit(expression)
    return block


def left_deep_join(
    leaves: Sequence[Expression], conditions: Sequence[Tuple[str, str]], catalog: Catalog
) -> Expression:
    """Build a representative left-deep join over ``leaves``.

    Conditions are attached to the first join in which both their columns are
    available; any condition whose columns never become available together is
    ignored (it does not apply to this subset of leaves).
    """
    if not leaves:
        raise ValueError("cannot build a join over zero leaves")
    ordered = sorted(leaves, key=lambda e: e.canonical())
    current = ordered[0]
    unused = list(conditions)
    for leaf in ordered[1:]:
        current_schema = derive_schema(current, catalog)
        leaf_schema = derive_schema(leaf, catalog)
        applicable: List[Tuple[str, str]] = []
        rest: List[Tuple[str, str]] = []
        for a, b in unused:
            if a in current_schema and b in leaf_schema:
                applicable.append((a, b))
            elif b in current_schema and a in leaf_schema:
                applicable.append((b, a))
            else:
                rest.append((a, b))
        unused = rest
        current = Join(current, leaf, applicable)
    return current


def delta_first_join(
    block: JoinBlock, start: int, catalog: Catalog
) -> Optional[Tuple[Expression, Tuple[int, ...]]]:
    """A left-deep join of ``block`` that starts at ``block.leaves[start]``.

    Each step joins one more leaf connected to what is joined so far by an
    equi-join condition — among several, the leaf with the smallest
    canonical form, so every block over the same join graph yields the same
    prefixes from the same start.  Each condition is attached to the step
    that joins its second leaf.

    Returns the tree and, for each column of the block in its written order
    (its leaves' columns, leaf by leaf), the position of that column in the
    tree's result — a permutation by position, which stays exact when a
    relation's column names repeat.  ``None`` when the conditions do not
    connect every leaf, or a condition column does not name a column of
    exactly one leaf.  ``block.residuals`` are not part of the tree.
    """
    leaves = block.leaves
    schemas = [derive_schema(leaf, catalog) for leaf in leaves]

    def owner(column: str) -> Optional[int]:
        owners = [i for i, schema in enumerate(schemas) if column in schema]
        return owners[0] if len(owners) == 1 else None

    edges: List[Tuple[int, str, int, str]] = []
    for a, b in block.conditions:
        left, right = owner(a), owner(b)
        if left is None or right is None or left == right:
            return None
        edges.append((left, a, right, b))

    order = [start]
    tree = leaves[start]
    while len(order) < len(leaves):
        reachable = {
            far
            for near, _, far, _ in _both_ways(edges)
            if near in order and far not in order
        }
        if not reachable:
            return None
        step = min(reachable, key=lambda i: (leaves[i].canonical(), i))
        conditions = [
            (near_column, far_column)
            for near, near_column, far, far_column in _both_ways(edges)
            if far == step and near in order
        ]
        tree = Join(tree, leaves[step], conditions)
        order.append(step)

    offsets = {}
    offset = 0
    for i in order:
        offsets[i] = offset
        offset += len(schemas[i])
    positions = tuple(
        offsets[i] + column for i in range(len(leaves)) for column in range(len(schemas[i]))
    )
    return tree, positions


def _both_ways(
    edges: Sequence[Tuple[int, str, int, str]]
) -> List[Tuple[int, str, int, str]]:
    """Every condition edge in both directions: ``(near, column, far, column)``."""
    return [*edges, *((far, b, near, a) for near, a, far, b in edges)]


def oriented_form(expression: Expression) -> str:
    """``expression``'s canonical form with its column order kept.

    A canonical form ignores the operand order of joins and unions and the
    order of aggregate columns, so two expressions that share one produce
    the same bag, possibly in different column orders.  Two expressions that
    share an oriented form produce the same bag in the same column order: a
    result memoized under it can be handed to either as it is.
    """
    if isinstance(expression, BaseRelation):
        return expression.name
    if isinstance(expression, Join):
        conditions = sorted(
            "=".join(sorted((_bare(a), _bare(b)))) for a, b in expression.conditions
        )
        return (
            f"join[{','.join(conditions)};{expression.residual.canonical()}]"
            f"({oriented_form(expression.left)},{oriented_form(expression.right)})"
        )
    if isinstance(expression, Aggregate):
        groups = ",".join(_bare(c) for c in expression.group_by)
        aggregates = ",".join(spec.canonical() for spec in expression.aggregates)
        return f"aggregate[{groups};{aggregates}]({oriented_form(expression.child)})"
    if isinstance(expression, UnionAll):
        return f"union({','.join(oriented_form(i) for i in expression.inputs)})"
    if isinstance(expression, Select):
        return f"select[{expression.predicate.canonical()}]({oriented_form(expression.child)})"
    if isinstance(expression, Project):
        columns = ",".join(_bare(c) for c in expression.columns)
        return f"project[{columns}]({oriented_form(expression.child)})"
    if isinstance(expression, Difference):
        return f"difference({oriented_form(expression.left)},{oriented_form(expression.right)})"
    if isinstance(expression, Distinct):
        return f"distinct({oriented_form(expression.child)})"
    raise TypeError(f"unknown expression type {type(expression).__name__}")


def _bare(column: str) -> str:
    return column.rsplit(".", 1)[-1]
