"""Evaluation of logical expressions against a database.

``evaluate`` interprets a logical :class:`~repro.algebra.Expression` directly
over the current contents of a :class:`~repro.engine.Database`, using hash
joins and hash aggregation.  It also understands materialized views: when
``use_materialized`` is set and a sub-expression matches a view registered
via :meth:`MaterializedRegistry.register`, the stored contents are returned
without recomputation — this is how temporarily materialized shared
sub-expressions get reused at execution time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
from repro.algebra.rewrite import oriented_form
from repro.engine import operators
from repro.engine.database import Database
from repro.storage.relation import Relation


class MaterializedRegistry:
    """Maps canonical expression forms to materialized view names.

    A canonical form ignores join operand order, so a binding answers every
    orientation of its expression: :meth:`lookup` serves the planner, which
    conforms what it scans to the asking schema.  A stored view is read as
    it is only by an expression of the column order it was registered under
    (:meth:`view_of`).
    """

    def __init__(self) -> None:
        self._by_canonical: Dict[str, Tuple[str, str]] = {}

    def register(self, expression: Expression, view_name: str) -> None:
        """Record that ``expression``'s result is stored under ``view_name``."""
        self._by_canonical[expression.canonical()] = (view_name, oriented_form(expression))

    def lookup(self, expression: Expression) -> Optional[str]:
        """The view name storing ``expression``'s result, if any."""
        entry = self._by_canonical.get(expression.canonical())
        return entry[0] if entry is not None else None

    def view_of(self, expression: Expression, database: Database) -> Optional[str]:
        """The stored view holding ``expression``'s result in ``expression``'s
        own column order, if any."""
        entry = self._by_canonical.get(expression.canonical())
        if entry is None or entry[1] != oriented_form(expression):
            return None
        return entry[0] if database.has_view(entry[0]) else None

    def unregister(self, expression: Expression) -> None:
        """Forget a registration (when a temporary result is discarded)."""
        self._by_canonical.pop(expression.canonical(), None)

    def snapshot(self) -> Tuple[Tuple[str, str], ...]:
        """The current (canonical, view-name) bindings, in a stable order.

        Used by plan caches to detect that the set of reusable results
        changed even when the set of stored view names did not.
        """
        return tuple(sorted((key, view) for key, (view, _) in self._by_canonical.items()))

    def __len__(self) -> int:
        return len(self._by_canonical)


def evaluate(
    expression: Expression,
    database: Database,
    materialized: Optional[MaterializedRegistry] = None,
) -> Relation:
    """Evaluate ``expression`` over ``database`` and return its result bag."""

    def recurse(node: Expression) -> Relation:
        if materialized is not None:
            view_name = materialized.view_of(node, database)
            if view_name is not None:
                return database.view(view_name)
        if isinstance(node, BaseRelation):
            return database.table(node.name)
        if isinstance(node, Select):
            return operators.select(recurse(node.child), node.predicate)
        if isinstance(node, Project):
            return operators.project(recurse(node.child), node.columns)
        if isinstance(node, Join):
            return operators.hash_join(
                recurse(node.left), recurse(node.right), node.conditions, node.residual
            )
        if isinstance(node, Aggregate):
            return operators.aggregate(recurse(node.child), node.group_by, node.aggregates)
        if isinstance(node, UnionAll):
            return operators.union_all(*[recurse(i) for i in node.inputs])
        if isinstance(node, Difference):
            return operators.difference(recurse(node.left), recurse(node.right))
        if isinstance(node, Distinct):
            return operators.distinct(recurse(node.child))
        raise TypeError(f"unknown expression type {type(node).__name__}")

    return recurse(expression)
