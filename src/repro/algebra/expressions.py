"""Logical expression trees.

An :class:`Expression` is the optimizer's logical representation of a view or
query: an immutable operator tree over named base relations.  Expressions are
hashable by a canonical form, which the DAG builder uses to detect repeated
sub-expressions across views ("unification", paper §4.2).

Only the operators the paper's workloads need are provided, but the set is
complete enough for general SPJ+aggregate warehouse views: selection,
projection, (equi)join, group-by/aggregation, multiset union, multiset
difference and duplicate elimination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.predicates import Predicate, TruePredicate, conjuncts


class Expression:
    """Base class of all logical operators.

    Nodes are frozen, so a node's identity never changes after construction:
    :meth:`canonical` and :func:`base_relations` are derived once per node
    and kept in the instance ``__dict__`` (a write the frozen ``__setattr__``
    does not intercept).  ``dataclasses.replace`` builds a new instance
    through ``__init__``, so a copy never inherits its source's memo.
    """

    def children(self) -> Tuple["Expression", ...]:
        """Child expressions, left to right."""
        raise NotImplementedError

    def canonical(self) -> str:
        """Canonical textual form used for hashing and unification."""
        memo = self.__dict__
        form = memo.get("_canonical")
        if form is None:
            form = memo["_canonical"] = self._canonical_form()
        return form

    def _canonical_form(self) -> str:
        """The canonical form derived from scratch (children memoized)."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Short operator label for plan display."""
        return type(self).__name__

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Expression) and self.canonical() == other.canonical()
        )

    def __repr__(self) -> str:
        return self.canonical()


@dataclass(frozen=True, eq=False)
class BaseRelation(Expression):
    """A leaf: a named stored relation."""

    name: str

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def _canonical_form(self) -> str:
        return self.name

    @property
    def label(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Select(Expression):
    """Multiset selection ``σ_predicate(child)``."""

    child: Expression
    predicate: Predicate

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def _canonical_form(self) -> str:
        return f"select[{self.predicate.canonical()}]({self.child.canonical()})"

    @property
    def label(self) -> str:
        return f"σ[{self.predicate.canonical()}]"


@dataclass(frozen=True, eq=False)
class Project(Expression):
    """Multiset (duplicate-preserving) projection onto ``columns``."""

    child: Expression
    columns: Tuple[str, ...]

    def __init__(self, child: Expression, columns: Sequence[str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def _canonical_form(self) -> str:
        cols = ",".join(c.rsplit(".", 1)[-1] for c in self.columns)
        return f"project[{cols}]({self.child.canonical()})"

    @property
    def label(self) -> str:
        return f"π[{','.join(self.columns)}]"


@dataclass(frozen=True, eq=False)
class Join(Expression):
    """Multiset equi-join with optional residual predicate.

    ``conditions`` is a tuple of ``(left_column, right_column)`` pairs; the
    optional ``residual`` predicate covers non-equi conditions evaluated on
    the concatenated schema.  An empty ``conditions`` tuple with a true
    residual is a cross product.
    """

    left: Expression
    right: Expression
    conditions: Tuple[Tuple[str, str], ...] = ()
    residual: Predicate = field(default_factory=TruePredicate)

    def __init__(
        self,
        left: Expression,
        right: Expression,
        conditions: Sequence[Tuple[str, str]] = (),
        residual: Optional[Predicate] = None,
    ) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "conditions", tuple((str(a), str(b)) for a, b in conditions))
        object.__setattr__(self, "residual", residual or TruePredicate())

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _canonical_form(self) -> str:
        conds = sorted(
            "=".join(sorted((a.rsplit(".", 1)[-1], b.rsplit(".", 1)[-1])))
            for a, b in self.conditions
        )
        left = self.left.canonical()
        right = self.right.canonical()
        # Joins are commutative in the multiset algebra: canonicalize operand order.
        if right < left:
            left, right = right, left
        residual = self.residual.canonical()
        return f"join[{','.join(conds)};{residual}]({left},{right})"

    @property
    def label(self) -> str:
        conds = ",".join(f"{a}={b}" for a, b in self.conditions) or "⨯"
        return f"⋈[{conds}]"


class AggregateFunc(enum.Enum):
    """Supported (distributive or algebraic) aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    @property
    def is_distributive(self) -> bool:
        """Whether the aggregate can be maintained from deltas alone.

        COUNT and SUM are self-maintainable under inserts and deletes given
        the old aggregate value; AVG is maintainable as SUM/COUNT; MIN/MAX are
        maintainable under inserts but may require recomputation of affected
        groups under deletes (the engine handles that case explicitly).
        """
        return self in (AggregateFunc.COUNT, AggregateFunc.SUM, AggregateFunc.AVG)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: ``func(column) AS alias``."""

    func: AggregateFunc
    column: Optional[str]
    alias: str

    def canonical(self) -> str:
        target = (self.column or "*").rsplit(".", 1)[-1]
        return f"{self.func.value}({target})->{self.alias}"


@dataclass(frozen=True, eq=False)
class Aggregate(Expression):
    """Group-by / aggregation ``groupbyGaggs(child)``."""

    child: Expression
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def __init__(
        self,
        child: Expression,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "aggregates", tuple(aggregates))

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def _canonical_form(self) -> str:
        groups = ",".join(c.rsplit(".", 1)[-1] for c in self.group_by)
        aggs = ",".join(sorted(a.canonical() for a in self.aggregates))
        return f"aggregate[{groups};{aggs}]({self.child.canonical()})"

    @property
    def label(self) -> str:
        return f"γ[{','.join(self.group_by)}]"


@dataclass(frozen=True, eq=False)
class UnionAll(Expression):
    """Multiset union of two or more inputs (duplicates preserved)."""

    inputs: Tuple[Expression, ...]

    def __init__(self, inputs: Sequence[Expression]) -> None:
        object.__setattr__(self, "inputs", tuple(inputs))
        if len(self.inputs) < 2:
            raise ValueError("UnionAll needs at least two inputs")

    def children(self) -> Tuple[Expression, ...]:
        return self.inputs

    def _canonical_form(self) -> str:
        parts = sorted(i.canonical() for i in self.inputs)
        return f"union({','.join(parts)})"

    @property
    def label(self) -> str:
        return "∪"


@dataclass(frozen=True, eq=False)
class Difference(Expression):
    """Multiset difference ``left − right`` (one copy removed per match)."""

    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _canonical_form(self) -> str:
        return f"difference({self.left.canonical()},{self.right.canonical()})"

    @property
    def label(self) -> str:
        return "−"


@dataclass(frozen=True, eq=False)
class Distinct(Expression):
    """Duplicate elimination."""

    child: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def _canonical_form(self) -> str:
        return f"distinct({self.child.canonical()})"

    @property
    def label(self) -> str:
        return "δ-dup"


# --------------------------------------------------------------------- helpers

def walk(expression: Expression) -> Iterator[Expression]:
    """Yield every node of the expression tree (pre-order)."""
    yield expression
    for child in expression.children():
        yield from walk(child)


def base_relations(expression: Expression) -> FrozenSet[str]:
    """The set of base relation names the expression depends on (memoized
    per node, like :meth:`Expression.canonical`)."""
    memo = expression.__dict__
    names = memo.get("_base_relations")
    if names is None:
        if isinstance(expression, BaseRelation):
            names = frozenset((expression.name,))
        else:
            names = frozenset().union(*map(base_relations, expression.children()))
        memo["_base_relations"] = names
    return names


def join_conditions(expression: Expression) -> List[Tuple[str, str]]:
    """All equi-join condition pairs appearing anywhere in the expression."""
    pairs: List[Tuple[str, str]] = []
    for node in walk(expression):
        if isinstance(node, Join):
            pairs.extend(node.conditions)
    return pairs


def selection_conjuncts(expression: Expression) -> List[Predicate]:
    """All selection conjuncts appearing anywhere in the expression."""
    preds: List[Predicate] = []
    for node in walk(expression):
        if isinstance(node, Select):
            preds.extend(conjuncts(node.predicate))
    return preds
