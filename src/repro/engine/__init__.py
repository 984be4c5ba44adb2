"""Bag-algebra execution engine.

The engine evaluates logical expressions against a :class:`Database` of
named relations through two paths: the row-at-a-time interpreter
(:func:`evaluate`, the correctness oracle) and the physical layer
(:func:`evaluate_physical`), which compiles the plans the optimizer actually
picks — join order, reuse of materialized results — into a vectorized
operator pipeline with one join operator (the plan's join algorithm is a
cost-model label).  It also — crucially for this paper — propagates
*differentials* of expressions with respect to single-relation updates,
which is the executable ground truth the maintenance tests use to check
that incremental refresh produces exactly the same view contents as full
recomputation.
"""

from repro.engine.database import Database
from repro.engine.executor import evaluate
from repro.engine.differential import (
    DifferentialEngine,
    ExpressionDelta,
    OldValueCache,
    differentiate,
)
from repro.engine.physical import PhysicalExecutor, evaluate_physical
from repro.engine import operators

__all__ = [
    "Database",
    "evaluate",
    "evaluate_physical",
    "PhysicalExecutor",
    "DifferentialEngine",
    "OldValueCache",
    "ExpressionDelta",
    "differentiate",
    "operators",
]
