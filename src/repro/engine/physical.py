"""Physical plan execution.

This module closes the gap between the optimizer and the engine: the
Volcano-style search (:mod:`repro.optimizer.volcano`) extracts
:class:`~repro.optimizer.plans.PlanNode` trees annotated with per-node join
algorithms and ``[reuse]`` markers, and this module *compiles* those trees
into executable physical operators and runs them.

The compiled pipeline honors the optimizer's decisions about *what* to
compute and runs them on one set of in-memory kernels:

* **one join operator** — every join step compiles to :class:`HashJoin`
  over :func:`repro.engine.operators.hash_join_batch`, whatever join
  algorithm the plan step names.  The algorithm (``hash``, ``merge``,
  ``nested_loop``, both index nested-loop orientations) is a label of the
  disk cost model the plan was chosen under: ``explain()`` and the plan
  verifier read it, the engine does not;
* **reuse markers** — ``reuse[...]`` leaves resolve through the
  :class:`~repro.engine.executor.MaterializedRegistry` and the database's
  materialized views, so temporarily/permanently materialized shared results
  are read instead of recomputed;
* **batch execution** — selections, joins and aggregations run on the
  columnar fast path (:mod:`repro.engine.operators` batch kernels, compiled
  predicate closures) instead of per-tuple interpretation.

``evaluate_physical`` is the end-to-end entry point (expression → DAG →
best plan → compiled pipeline → result).  There is no runtime fallback: an
expression that cannot be planned, or a plan step that cannot be resolved,
raises :class:`PhysicalPlanError` carrying a rendered ``REPRO-P`` diagnostic.
The row-at-a-time interpreter :func:`repro.engine.executor.evaluate` is the
reference the tests and the ``verify_*`` options compare this layer against;
nothing in this module calls it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import BaseRelation, Expression
from repro.algebra.predicates import Predicate
from repro.algebra.rewrite import oriented_form
from repro.algebra.schema_derivation import derive_schema
from repro.analysis.diagnostics import Diagnostic, has_errors, render_diagnostics
from repro.catalog.catalog import CatalogError
from repro.catalog.estimator import CardinalityEstimator
from repro.catalog.schema import Schema, SchemaError
from repro.engine import operators
from repro.engine.database import Database, DatabaseError
from repro.engine.executor import MaterializedRegistry
from repro.optimizer.cost_model import CostModel
from repro.optimizer.dag import OperatorKind
from repro.optimizer.dag_builder import DagBuilder
from repro.optimizer.plans import PlanNode
from repro.optimizer.volcano import VolcanoSearch
from repro.storage.relation import Relation

#: Observer signature: called with the originating plan step and the actual
#: output bag every time an instrumented physical operator produces a result.
PlanObserver = Callable[[PlanNode, Relation], None]


class PhysicalPlanError(RuntimeError):
    """An expression cannot be planned, or a plan step cannot be compiled.

    The message renders the matching ``REPRO-P`` diagnostic.
    """


#: The typed lookup failures that mean "this expression names something the
#: catalog/database does not hold".  A bare ``KeyError``/``TypeError`` is not
#: among them: that is an operator defect and must surface as itself.
_RESOLUTION_ERRORS = (SchemaError, CatalogError, DatabaseError)


def _unresolvable(phase: str, expression: Expression, exc: Exception) -> PhysicalPlanError:
    """The :class:`PhysicalPlanError` for a resolution failure in ``phase``."""
    headline = f"cannot {phase} {expression.canonical()} physically"
    if isinstance(exc, PhysicalPlanError):
        return PhysicalPlanError(f"{headline}:\n{exc}")
    if isinstance(exc, SchemaError):
        code, hint = "REPRO-P001", "check the column names against the input schemas"
    else:
        code, hint = "REPRO-P009", "load the relation (or materialize the view) first"
    # KeyError subclasses str() to the repr of their message; unwrap it.
    message = exc.args[0] if exc.args else str(exc)
    return PhysicalPlanError(
        f"{headline}:\n" + Diagnostic(code, "error", str(message), hint=hint).render()
    )


# ------------------------------------------------------------------- operators

class PhysicalOperator:
    """Base class: a node of the executable operator pipeline."""

    def __init__(self, children: Sequence["PhysicalOperator"] = ()) -> None:
        self.children: List[PhysicalOperator] = list(children)
        #: Optional per-operator feedback hook, set by :func:`compile_plan`
        #: when an observer is attached: called with the produced bag so the
        #: estimator can learn actual output cardinalities per plan node.
        self.feedback: Optional[Callable[[Relation], None]] = None

    def execute(self) -> Relation:
        """Produce this operator's output bag (reporting it to any observer)."""
        result = self._produce()
        if self.feedback is not None:
            self.feedback(result)
        return result

    def _produce(self) -> Relation:
        """Operator-specific production of the output bag."""
        raise NotImplementedError


class TableScan(PhysicalOperator):
    """Scan of a stored base table (or a view registered as a source)."""

    def __init__(self, database: Database, relation: str) -> None:
        super().__init__()
        self.database = database
        self.relation = relation

    def _produce(self) -> Relation:
        return self.database.table(self.relation)


class MaterializedScan(PhysicalOperator):
    """Read of a materialized (temporary or permanent) result — a reuse leaf."""

    def __init__(self, database: Database, view_name: str) -> None:
        super().__init__()
        self.database = database
        self.view_name = view_name

    def _produce(self) -> Relation:
        return self.database.view(self.view_name)


class Filter(PhysicalOperator):
    """Batch selection over the columnar fast path."""

    def __init__(self, child: PhysicalOperator, predicate: Predicate) -> None:
        super().__init__([child])
        self.predicate = predicate

    def _produce(self) -> Relation:
        return operators.select_batch(self.children[0].execute(), self.predicate)


class Projection(PhysicalOperator):
    """Duplicate-preserving projection."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]) -> None:
        super().__init__([child])
        self.columns = tuple(columns)

    def _produce(self) -> Relation:
        return self.children[0].execute().project(self.columns)


class HashJoin(PhysicalOperator):
    """Vectorized hash join (build on the right input, probe with the left).

    The one join operator: every planned join runs here, whichever
    algorithm the cost model priced it as.  A join without equi-conditions
    is a cross product.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        conditions: Sequence[Tuple[str, str]],
        residual: Optional[Predicate] = None,
    ) -> None:
        super().__init__([left, right])
        self.conditions = tuple(conditions)
        self.residual = residual

    def _produce(self) -> Relation:
        return operators.hash_join_batch(
            self.children[0].execute(),
            self.children[1].execute(),
            self.conditions,
            self.residual,
        )


class HashAggregate(PhysicalOperator):
    """Vectorized hash group-by/aggregation."""

    def __init__(self, child: PhysicalOperator, group_by, aggregates) -> None:
        super().__init__([child])
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def _produce(self) -> Relation:
        return operators.aggregate_batch(
            self.children[0].execute(), self.group_by, self.aggregates
        )


class UnionAllOp(PhysicalOperator):
    """Multiset union (positional, like the logical operator).

    Each input whose logical schema is known is conformed back to it first,
    undoing any column reordering the optimizer's join reassociation caused
    inside that branch; inputs then combine strictly by position, exactly as
    the interpreter does.
    """

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        expected: Optional[Sequence[Optional[Schema]]] = None,
    ) -> None:
        super().__init__(children)
        self.expected = list(expected or [])

    def _produce(self) -> Relation:
        results = [
            _align(child.execute(), self._expected_for(i))
            for i, child in enumerate(self.children)
        ]
        return operators.union_all(*results)

    def _expected_for(self, index: int) -> Optional[Schema]:
        return self.expected[index] if index < len(self.expected) else None


class DifferenceOp(PhysicalOperator):
    """Multiset difference (positional); inputs conform to their own schemas."""

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        expected: Optional[Sequence[Optional[Schema]]] = None,
    ) -> None:
        super().__init__(children)
        self.expected = list(expected or [])

    def _produce(self) -> Relation:
        left = self.children[0].execute()
        right = self.children[1].execute()
        if len(self.expected) == 2:
            left = _align(left, self.expected[0])
            right = _align(right, self.expected[1])
        return operators.difference(left, right)


class DistinctOp(PhysicalOperator):
    """Duplicate elimination."""

    def _produce(self) -> Relation:
        return operators.distinct(self.children[0].execute())


# ----------------------------------------------------------- schema conformance

def _align(relation: Relation, expected: Optional[Schema]) -> Relation:
    """Conform a set-operation input to its own logical schema, if known.

    Union/difference are positional in the multiset algebra, so inputs are
    never reordered against *each other* — only back to the column order
    their own logical sub-expression defines, undoing join reassociation
    inside the branch.  Inputs with unknown logical schemas (or with column
    names that no longer match it) pass through untouched.
    """
    if expected is None:
        return relation
    if sorted(c.name for c in relation.schema.columns) == sorted(
        c.name for c in expected.columns
    ):
        return _conform(relation, expected)
    return relation


def _conform(relation: Relation, expected: Schema) -> Relation:
    """Reorder ``relation``'s columns (by name) to match ``expected``.

    The optimizer freely reassociates joins, so a physical pipeline may
    produce the same bag with permuted columns relative to the logical
    expression; conforming by name restores the logical column order.  A
    no-op when the orders already agree.
    """
    names = tuple(c.name for c in relation.schema.columns)
    expected_names = tuple(c.name for c in expected.columns)
    if names == expected_names:
        return relation
    if len(set(names)) == len(names):
        positions = [relation.schema.index_of(name) for name in expected_names]
    else:
        # Duplicate column names (e.g. a self-join): index_of would map every
        # duplicate to its first occurrence, silently collapsing distinct
        # columns.  Map the k-th occurrence of a name in the expected order
        # to the k-th occurrence in the produced order instead.
        occurrences: Dict[str, List[int]] = {}
        for i, column in enumerate(relation.schema.columns):
            occurrences.setdefault(column.name, []).append(i)
        taken: Dict[str, int] = {}
        positions = []
        for name in expected_names:
            slots = occurrences.get(name)
            k = taken.get(name, 0)
            if not slots or k >= len(slots):
                raise SchemaError(
                    f"cannot conform schema {names} to {expected_names}: "
                    f"occurrence {k} of column {name!r} is missing"
                )
            positions.append(slots[k])
            taken[name] = k + 1
    store = relation.cached_store()
    if store is not None:
        # Column stores reorder by reference — no per-row gather at all.
        return Relation.from_store(expected, store.take(positions), relation.name)
    if len(positions) == 1:
        i = positions[0]
        rows = [(row[i],) for row in relation.rows]
    else:
        getter = itemgetter(*positions)
        rows = [getter(row) for row in relation.rows]
    return Relation.from_trusted_rows(expected, rows, relation.name)


# ------------------------------------------------------------------ compilation

def compile_plan(
    plan: PlanNode,
    database: Database,
    materialized: Optional[MaterializedRegistry] = None,
    observer: Optional[PlanObserver] = None,
) -> PhysicalOperator:
    """Compile an optimizer-extracted plan tree into a physical pipeline.

    ``materialized`` resolves reuse steps whose equivalence node has no view
    name of its own (temporary materializations registered by expression).
    Steps that cannot be compiled raise :class:`PhysicalPlanError`.

    ``observer`` instruments every compiled operator that carries a logical
    expression payload: it is called with the originating plan step and the
    actual output bag, which is how the physical layer feeds observed
    cardinalities back into the :class:`CardinalityEstimator`.
    """

    def fail(message: str, node: PlanNode) -> PhysicalOperator:
        raise PhysicalPlanError(f"{message} (plan step: {node.description})")

    def instrument(node: PlanNode, compiled: PhysicalOperator) -> PhysicalOperator:
        if observer is not None and node.expression is not None:
            compiled.feedback = lambda result, _node=node: observer(_node, result)
        return compiled

    def compile_node(node: PlanNode) -> PhysicalOperator:
        return instrument(node, compile_step(node))

    def compile_step(node: PlanNode) -> PhysicalOperator:
        if node.reused:
            return compile_reuse(node)
        op = node.operator
        if op is None:
            if isinstance(node.expression, BaseRelation):
                return TableScan(database, node.expression.name)
            return fail("plan step has no executable operator", node)
        if op.kind is OperatorKind.SCAN:
            return TableScan(database, op.relation)
        children = [compile_node(child) for child in node.children]
        if op.kind is OperatorKind.SELECT:
            return Filter(children[0], op.predicate)
        if op.kind is OperatorKind.PROJECT:
            return Projection(children[0], op.columns)
        if op.kind is OperatorKind.JOIN:
            return HashJoin(children[0], children[1], op.conditions, op.residual)
        if op.kind is OperatorKind.AGGREGATE:
            return HashAggregate(children[0], op.group_by, op.aggregates)
        if op.kind is OperatorKind.UNION:
            return UnionAllOp(children, _input_schemas(node))
        if op.kind is OperatorKind.DIFFERENCE:
            return DifferenceOp(children, _input_schemas(node))
        if op.kind is OperatorKind.DISTINCT:
            return DistinctOp(children)
        return fail(f"unsupported operator kind {op.kind}", node)

    def _input_schemas(node: PlanNode) -> List[Optional[Schema]]:
        """Logical schemas of a set operation's inputs, where derivable."""
        schemas: List[Optional[Schema]] = []
        for child in node.children:
            schema: Optional[Schema] = None
            if child.expression is not None:
                try:
                    schema = derive_schema(child.expression, database.catalog)
                except _RESOLUTION_ERRORS:
                    schema = None
            schemas.append(schema)
        return schemas

    def compile_reuse(node: PlanNode) -> PhysicalOperator:
        # Registry bindings are keyed by the expression's canonical form and
        # are therefore a *semantic* identity; the plan's view_name label may
        # be a DAG-scoped name like "e14" that another DAG assigned to a
        # different expression.  Prefer the registry.
        candidates = []
        if materialized is not None and node.expression is not None:
            registered = materialized.lookup(node.expression)
            if registered:
                candidates.append(registered)
        if node.view_name:
            candidates.append(node.view_name)
        for name in candidates:
            if database.has_view(name):
                return MaterializedScan(database, name)
            if database.has_relation(name):
                # The reused result is stored as a base relation (e.g. a
                # permanently materialized result loaded as a table).
                return TableScan(database, name)
        raise PhysicalPlanError(
            Diagnostic(
                "REPRO-P006",
                "error",
                f"reused result {candidates or [node.description]} is not materialized",
                node.description,
                "materialize the result (or re-plan) before executing",
            ).render()
        )

    return compile_node(plan)


def execute_plan(
    plan: PlanNode,
    database: Database,
    materialized: Optional[MaterializedRegistry] = None,
    output_schema: Optional[Schema] = None,
    observer: Optional[PlanObserver] = None,
) -> Relation:
    """Compile and run one optimizer plan; optionally conform the output."""
    pipeline = compile_plan(plan, database, materialized, observer=observer)
    result = pipeline.execute()
    if output_schema is not None:
        result = _conform(result, output_schema)
    return result


# ------------------------------------------------------------------ entry point

class PhysicalExecutor:
    """Plans and executes logical expressions through the physical layer.

    Wraps the full pipeline (DAG construction → Volcano search → plan
    extraction → compilation → execution) behind an ``evaluate``-shaped
    interface, with a per-expression plan cache.  Materialized views
    registered in a :class:`MaterializedRegistry` participate both as reuse
    opportunities during planning and as resolution targets at compile time.

    Every plan's estimates come from one shared
    :class:`~repro.catalog.estimator.CardinalityEstimator`.  With
    ``feedback`` enabled (the default) executed operators report their
    actual output cardinalities back to that estimator, keyed by the plan
    step's canonical expression; a cached plan whose recorded estimates
    drift from observed truth beyond the estimator's threshold is dropped
    and re-optimized against the corrected cardinalities on its next use.
    """

    def __init__(
        self,
        database: Database,
        cost_model: Optional[CostModel] = None,
        estimator: Optional[CardinalityEstimator] = None,
        feedback: bool = True,
        verify_plans: str = "cache-insert",
    ) -> None:
        if verify_plans not in ("always", "cache-insert", "off"):
            raise ValueError(
                f"verify_plans must be 'always', 'cache-insert' or 'off', "
                f"got {verify_plans!r}"
            )
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.estimator = estimator or CardinalityEstimator(database.catalog)
        self.feedback = feedback
        #: When the static plan verifier runs: on every planning call
        #: (``"always"``), only when a freshly optimized plan enters the
        #: cache (``"cache-insert"`` — replayed plans were already checked),
        #: or never (``"off"``).  Verifier errors raise
        #: :class:`PhysicalPlanError` *before* anything executes.
        self.verify_plans = verify_plans
        #: Cached plans: key -> (plan, output schema, estimate snapshot).
        #: The snapshot records the cardinality each plan step was costed
        #: with, so runtime observations can invalidate mis-costed plans.
        #: The key keeps the expression's column order (its oriented form):
        #: the output schema is that order.
        self._plans: Dict[str, Tuple[PlanNode, Schema, Dict[str, float]]] = {}

    # ------------------------------------------------------------------ caching

    def _cache_key(self, expression: Expression, materialized: Optional[MaterializedRegistry]) -> str:
        reusable = ""
        if materialized is not None:
            # A cached plan is only replayable while the same reusable
            # results are available: key on the registry's live bindings
            # (expression → view) restricted to views that actually exist,
            # so re-registrations and re-materializations force a replan.
            reusable = ";".join(
                f"{canonical}->{view}"
                for canonical, view in materialized.snapshot()
                if self.database.has_view(view)
            )
        return f"{oriented_form(expression)}|{reusable}"

    # ---------------------------------------------------------------- planning

    @staticmethod
    def _estimate_snapshot(plan: PlanNode) -> Dict[str, float]:
        """Canonical expression → estimated cardinality, per plan step."""
        snapshot: Dict[str, float] = {}

        def walk(node: PlanNode) -> None:
            if node.expression is not None:
                snapshot.setdefault(node.expression.canonical(), node.cardinality)
            for child in node.children:
                walk(child)

        walk(plan)
        return snapshot

    def plan(
        self,
        expression: Expression,
        materialized: Optional[MaterializedRegistry] = None,
    ) -> Tuple[PlanNode, Schema]:
        """The best physical plan and the logical output schema."""
        key = self._cache_key(expression, materialized)
        cached = self._plans.get(key)
        if cached is not None:
            if not (self.feedback and self.estimator.plan_drifted(cached[2])):
                if self.verify_plans == "always":
                    self._verify(cached[0], materialized)
                return cached[0], cached[1]
            # Observed cardinalities disagree with what this plan was costed
            # with: drop it and re-optimize against the corrected estimates.
            del self._plans[key]
        catalog = self.database.catalog
        builder = DagBuilder(catalog, estimator=self.estimator)
        builder.add_query("__physical__", expression)
        dag = builder.finish()
        materialized_ids = set()
        if materialized is not None:
            for node in dag.equivalence_nodes:
                if node.is_base_relation:
                    continue
                view_name = materialized.lookup(node.expression)
                if view_name is not None and self.database.has_view(view_name):
                    materialized_ids.add(node.id)
                    node.view_name = node.view_name or view_name
                    # Reuse costing works off the node's statistics; when the
                    # stored view has *measured* stats (kept current by the
                    # refresher as deltas merge), they replace the derived
                    # estimate, so reuse-vs-recompute decisions track the
                    # view's actual size instead of a stale estimate.
                    measured = catalog.view_stats(view_name)
                    if measured is not None:
                        node.stats = measured
        search = VolcanoSearch(dag, catalog, self.cost_model)
        outcome = search.optimize(materialized=materialized_ids)
        plan = outcome.extract_plan(dag.roots["__physical__"].id)
        schema = derive_schema(expression, catalog)
        if self.verify_plans != "off":
            self._verify(plan, materialized)
        self._plans[key] = (plan, schema, self._estimate_snapshot(plan))
        return plan, schema

    def _verify(self, plan: PlanNode, materialized: Optional[MaterializedRegistry]) -> None:
        """Statically verify a plan; verifier errors abort before execution.

        Raises :class:`PhysicalPlanError` from ``plan()``: a plan the
        verifier rejects signals a planner/compiler defect.
        """
        from repro.analysis.planlint import verify_plan

        diagnostics = verify_plan(plan, database=self.database, materialized=materialized)
        if has_errors(diagnostics):
            raise PhysicalPlanError(
                "plan failed static verification:\n"
                + render_diagnostics([d for d in diagnostics if d.severity == "error"])
            )

    # --------------------------------------------------------------- execution

    def evaluate(
        self,
        expression: Expression,
        materialized: Optional[MaterializedRegistry] = None,
    ) -> Relation:
        """Evaluate ``expression`` through the physical layer.

        Mirrors :func:`repro.engine.executor.evaluate`: a registry hit on the
        whole expression short-circuits to the stored view when it holds the
        expression's own column order (else planning scans and conforms
        it).  An expression
        over a relation the catalog or database does not hold, or whose
        columns cannot be resolved, raises :class:`PhysicalPlanError` with
        the matching ``REPRO-P`` diagnostic; a bare ``KeyError``/``TypeError``
        is an operator defect and surfaces unchanged.
        """
        if materialized is not None:
            view_name = materialized.view_of(expression, self.database)
            if view_name is not None:
                return self.database.view(view_name)
        try:
            plan, schema = self.plan(expression, materialized)
        except _RESOLUTION_ERRORS as exc:
            raise _unresolvable("plan", expression, exc) from exc
        try:
            return execute_plan(
                plan,
                self.database,
                materialized,
                output_schema=schema,
                observer=self._record_actual if self.feedback else None,
            )
        except (PhysicalPlanError, *_RESOLUTION_ERRORS) as exc:
            # Execution-time *resolution* failures: a reused view dropped
            # between planning and execution, unresolvable columns.
            raise _unresolvable("execute", expression, exc) from exc

    # ----------------------------------------------------------------- feedback

    def _record_actual(self, node: PlanNode, result: Relation) -> None:
        """Feed one plan step's observed output cardinality to the estimator."""
        self.estimator.record_actual(node.expression, node.cardinality, float(len(result)))


def evaluate_physical(
    expression: Expression,
    database: Database,
    materialized: Optional[MaterializedRegistry] = None,
    cost_model: Optional[CostModel] = None,
) -> Relation:
    """One-shot convenience wrapper around :class:`PhysicalExecutor`."""
    return PhysicalExecutor(database, cost_model=cost_model).evaluate(
        expression, materialized
    )
