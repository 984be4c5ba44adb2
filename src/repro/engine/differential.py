"""Differential (delta) propagation through expressions.

This is the executable counterpart of the paper's §3: given a single-relation
update (inserts *or* deletes on one base relation — the paper propagates one
relation and one update type at a time), ``differentiate`` computes the pair
of bags (δ+ of the expression result, δ− of the expression result) such that

    new(E)  =  old(E)  −  δ−   ∪   δ+

holds exactly under multiset semantics.  The maintenance layer uses this to
apply incremental refresh; the test suite uses it to prove that incremental
refresh and recomputation agree tuple-for-tuple.

Join differentials follow the paper's expansion: when the updated relation
reaches both join inputs, the update expression for the join becomes a union
of two joins, ``(δE1 ⋈ E2_old) ∪ (E1_new ⋈ δE2)`` (§5.3), less the rows
both bags would otherwise share when one input gains rows while the other
loses some.  The vectorized engine runs a join block *delta-first*: the
changed leaf's δ joined with the old value of one more leaf per step
(:class:`DeltaJoinPlan`), the same bags without any join intermediate.  A *stored*
SUM/COUNT/AVG aggregate is maintained from the child's delta alone
(``delta-aggregate``, §3.1.2): the delta is folded by group into the exact
per-group state kept beside the view, and the old and new row of each touched
group are read off that state.  Every other aggregate — and the interpreted
reference below — recomputes the *affected groups*, the groups whose keys
appear in the input delta, from the old and new child
(``recompute-affected-groups``).  Duplicate elimination and multiset
difference fall back to old-vs-new comparison of their (usually small) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    BaseRelation,
    Difference,
    Distinct,
    Expression,
    Join,
    Project,
    Select,
    UnionAll,
    base_relations,
)
from repro.algebra.rewrite import delta_first_join, flatten_join_block, oriented_form
from repro.algebra.schema_derivation import derive_schema
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.engine import operators
from repro.engine.database import Database
from repro.engine.executor import MaterializedRegistry, evaluate
from repro.storage.delta import DeltaKind
from repro.storage.relation import Relation, Row


#: The two aggregate maintenance rules, as refresh reports name them.  The
#: second is always followed by ``:<reason>`` — what the engine observed that
#: kept the node off the δ rule.
DELTA_AGGREGATE = "delta-aggregate"
RECOMPUTE_AFFECTED_GROUPS = "recompute-affected-groups"


@dataclass
class ExpressionDelta:
    """The insert and delete bags of an expression's differential."""

    inserts: Relation
    deletes: Relation
    #: When the expression is a stored aggregate maintained by the δ rule:
    #: the state of the view *after* merging these bags, which
    #: ``Database.update_view`` stores with the merged relation.
    state: Optional[operators.AggregateState] = None
    #: Which rule each aggregate node under this expression ran (the
    #: vectorized engine fills it in; the interpreted reference has one rule).
    rules: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        """Whether the differential is entirely empty."""
        return not len(self.inserts) and not len(self.deletes)

    def reordered(self, positions: Tuple[int, ...]) -> "ExpressionDelta":
        """Both bags with their columns at ``positions``, in that order.

        The rules are kept; a δ-aggregate state, which describes one stored
        column order, is not.
        """
        return ExpressionDelta(
            operators.reorder(self.inserts, positions),
            operators.reorder(self.deletes, positions),
            rules=self.rules,
        )

    @staticmethod
    def empty(schema: Schema) -> "ExpressionDelta":
        """An empty differential with the given result schema."""
        return ExpressionDelta(Relation(schema, []), Relation(schema, []))


OldValueFn = Callable[[Expression], Relation]


def differentiate(
    expression: Expression,
    database: Database,
    relation: str,
    kind: DeltaKind,
    delta_rows: Relation,
    materialized: Optional[MaterializedRegistry] = None,
    old_value: Optional[OldValueFn] = None,
) -> ExpressionDelta:
    """Compute the differential of ``expression`` w.r.t. one base update.

    ``database`` must hold the *pre-update* state of all base relations.
    ``old_value`` can override how old sub-expression results are obtained
    (by default they are evaluated against the database, consulting the
    materialized registry so stored views/temporary results are reused).
    """
    catalog = database.catalog

    def old(expr: Expression) -> Relation:
        if old_value is not None:
            return old_value(expr)
        return evaluate(expr, database, materialized)

    def new(expr: Expression, delta: ExpressionDelta) -> Relation:
        return old(expr).apply_delta(inserts=delta.inserts, deletes=delta.deletes)

    def recurse(node: Expression) -> ExpressionDelta:
        schema = derive_schema(node, catalog)
        if relation not in base_relations(node):
            return ExpressionDelta.empty(schema)

        if isinstance(node, BaseRelation):
            if node.name != relation:
                return ExpressionDelta.empty(schema)
            empty = Relation(schema, [])
            if kind is DeltaKind.INSERT:
                return ExpressionDelta(Relation(schema, list(delta_rows.rows)), empty)
            return ExpressionDelta(empty, Relation(schema, list(delta_rows.rows)))

        if isinstance(node, Select):
            child = recurse(node.child)
            return ExpressionDelta(
                operators.select(child.inserts, node.predicate),
                operators.select(child.deletes, node.predicate),
            )

        if isinstance(node, Project):
            child = recurse(node.child)
            return ExpressionDelta(
                operators.project(child.inserts, node.columns),
                operators.project(child.deletes, node.columns),
            )

        if isinstance(node, Join):
            return _join_delta(node)

        if isinstance(node, Aggregate):
            return _aggregate_delta(node)

        if isinstance(node, UnionAll):
            parts = [recurse(i) for i in node.inputs]
            inserts = Relation(schema, [r for p in parts for r in p.inserts.rows])
            deletes = Relation(schema, [r for p in parts for r in p.deletes.rows])
            return ExpressionDelta(inserts, deletes)

        if isinstance(node, Difference):
            # Bag difference is not distributive over deltas in general;
            # compute old and new results and diff them (inputs are small in
            # maintenance expressions, which is where Difference appears).
            left_delta = recurse(node.left)
            right_delta = recurse(node.right)
            old_result = old(node.left).difference(old(node.right))
            new_result = new(node.left, left_delta).difference(new(node.right, right_delta))
            return ExpressionDelta(
                new_result.difference(old_result), old_result.difference(new_result)
            )

        if isinstance(node, Distinct):
            child_delta = recurse(node.child)
            old_result = old(node.child).distinct()
            new_result = new(node.child, child_delta).distinct()
            return ExpressionDelta(
                new_result.difference(old_result), old_result.difference(new_result)
            )

        raise TypeError(f"unknown expression type {type(node).__name__}")

    def _join_delta(node: Join) -> ExpressionDelta:
        schema = derive_schema(node, catalog)
        left_dep = relation in base_relations(node.left)
        right_dep = relation in base_relations(node.right)
        left_delta = recurse(node.left) if left_dep else None
        right_delta = recurse(node.right) if right_dep else None

        insert_parts = []
        delete_parts = []
        # δ_left joined with the OLD right input ...
        if left_delta is not None and not left_delta.is_empty:
            old_right = old(node.right)
            if len(left_delta.inserts):
                insert_parts.append(
                    operators.hash_join(left_delta.inserts, old_right, node.conditions, node.residual)
                )
            if len(left_delta.deletes):
                delete_parts.append(
                    operators.hash_join(left_delta.deletes, old_right, node.conditions, node.residual)
                )
        # ... plus the NEW left input joined with δ_right (paper §5.3:
        # (δE1 ⋈ E2) ∪ ((E1 ∪ δE1) ⋈ δE2)).
        if right_delta is not None and not right_delta.is_empty:
            new_left = new(node.left, left_delta) if left_delta is not None else old(node.left)
            if len(right_delta.inserts):
                insert_parts.append(
                    operators.hash_join(new_left, right_delta.inserts, node.conditions, node.residual)
                )
            if len(right_delta.deletes):
                delete_parts.append(
                    operators.hash_join(new_left, right_delta.deletes, node.conditions, node.residual)
                )

        inserts = Relation(schema, [r for p in insert_parts for r in p.rows])
        deletes = Relation(schema, [r for p in delete_parts for r in p.rows])
        if _opposite_signs(left_delta, right_delta):
            overlap = operators.hash_join(
                left_delta.inserts, right_delta.deletes, node.conditions, node.residual
            )
            inserts, deletes = inserts.difference(overlap), deletes.difference(overlap)
        return ExpressionDelta(inserts, deletes)

    def _aggregate_delta(node: Aggregate) -> ExpressionDelta:
        schema = derive_schema(node, catalog)
        child_delta = recurse(node.child)
        if child_delta.is_empty:
            return ExpressionDelta.empty(schema)

        child_schema = derive_schema(node.child, catalog)
        group_pos = child_schema.positions(node.group_by)

        affected: Set[Tuple] = set()
        for row in child_delta.inserts.rows:
            affected.add(tuple(row[i] for i in group_pos))
        for row in child_delta.deletes.rows:
            affected.add(tuple(row[i] for i in group_pos))

        def restrict(rel: Relation) -> Relation:
            if not node.group_by:
                return rel
            positions = rel.schema.positions(node.group_by)
            return Relation(
                rel.schema,
                [r for r in rel.rows if tuple(r[i] for i in positions) in affected],
                rel.name,
            )

        # Old aggregate rows for the affected groups: taken from the stored
        # view when this exact node is materialized, otherwise recomputed from
        # the old child restricted to the affected groups.
        view_name = materialized.view_of(node, database) if materialized is not None else None
        if view_name is not None:
            old_agg_all = database.view(view_name)
            agg_group_pos = old_agg_all.schema.positions(node.group_by) if node.group_by else []
            old_rows = [
                r
                for r in old_agg_all.rows
                if not node.group_by or tuple(r[i] for i in agg_group_pos) in affected
            ]
            old_agg = Relation(old_agg_all.schema, old_rows)
        else:
            old_child_restricted = restrict(old(node.child))
            old_agg = operators.aggregate(old_child_restricted, node.group_by, node.aggregates)
            if not node.group_by and not affected:
                old_agg = Relation(old_agg.schema, [])

        new_child = new(node.child, child_delta)
        # Groups that became empty vanish from new_agg on their own:
        # restrict() leaves them no input rows, and hash aggregation only
        # emits groups present in its input.
        new_agg = operators.aggregate(restrict(new_child), node.group_by, node.aggregates)

        # Replace the affected old rows by the affected new rows.
        inserts = new_agg.difference(old_agg)
        deletes = old_agg.difference(new_agg)
        return ExpressionDelta(
            Relation(schema, list(inserts.rows)), Relation(schema, list(deletes.rows))
        )

    return recurse(expression)


# ------------------------------------------------------------ join δ-plans

#: The route of a join block whose δ starts at the changed leaf.
DELTA_FIRST = "delta-first"
#: The route of a join block differentiated along its syntax tree; always
#: followed by ``:<reason>`` — ``self-join``, ``residual`` or
#: ``cross-product``.
AS_WRITTEN = "as-written"


@dataclass(frozen=True)
class DeltaJoinPlan:
    """How the engine differentiates one join block w.r.t. one relation.

    ``delta-first``: the δ of the one leaf that reads ``relation`` is joined
    with the old value of one more connected leaf per step (``tree``, built
    by :func:`~repro.algebra.rewrite.delta_first_join`), and the block's
    column order is restored by ``positions`` (``None`` when the orders
    agree).  ``as-written:<reason>``: the block's syntax tree is walked with
    the §5.3 rule at every join.
    """

    relation: str
    route: str
    #: The block's leaves in the order the δ meets them (``delta-first``),
    #: else as written.
    order: Tuple[Expression, ...]
    tree: Optional[Expression] = None
    positions: Optional[Tuple[int, ...]] = None

    def describe(self) -> str:
        """The join order, with ``δ`` on the leaves that read the relation."""
        chain = " ⋈ ".join(
            ("δ" if self.relation in base_relations(leaf) else "") + _leaf_label(leaf)
            for leaf in self.order
        )
        return chain if self.route == DELTA_FIRST else f"{self.route} ({chain})"


def _leaf_label(leaf: Expression) -> str:
    if isinstance(leaf, BaseRelation):
        return leaf.name
    return f"{leaf.label}({','.join(sorted(base_relations(leaf)))})"


def plan_delta_join(block_top: Join, relation: str, catalog: Catalog) -> DeltaJoinPlan:
    """The δ-plan of the join block rooted at ``block_top`` for ``relation``.

    ``delta-first`` unless the block keeps its syntax walk, for one of three
    reasons: a base relation occurs in two leaves (``self-join``), a join
    carries a non-equi predicate (``residual``), or the equi-join conditions
    leave a leaf unconnected (``cross-product``).
    """
    block = flatten_join_block(block_top)
    leaves = tuple(block.leaves)
    reads = [base_relations(leaf) for leaf in leaves]

    def as_written(reason: str) -> DeltaJoinPlan:
        return DeltaJoinPlan(relation, f"{AS_WRITTEN}:{reason}", leaves)

    if sum(len(names) for names in reads) != len(frozenset().union(*reads)):
        return as_written("self-join")
    if block.residuals:
        return as_written("residual")
    start = next(i for i, names in enumerate(reads) if relation in names)
    built = delta_first_join(block, start, catalog)
    if built is None:
        return as_written("cross-product")
    tree, positions = built
    order: List[Expression] = []
    node = tree
    while isinstance(node, Join):
        order.append(node.right)
        node = node.left
    order.append(node)
    identity = positions == tuple(range(len(positions)))
    return DeltaJoinPlan(
        relation, DELTA_FIRST, tuple(reversed(order)), tree, None if identity else positions
    )


def join_blocks(expression: Expression, relation: str) -> List[Join]:
    """The tops of ``expression``'s join blocks that ``relation`` reaches,
    outermost first — the blocks the engine differentiates."""
    blocks: List[Join] = []

    def visit(node: Expression) -> None:
        if relation not in base_relations(node):
            return
        if isinstance(node, Join):
            blocks.append(node)
            children: Sequence[Expression] = flatten_join_block(node).leaves
        else:
            children = node.children()
        for child in children:
            visit(child)

    visit(expression)
    return blocks


def delta_join_plans(
    expression: Expression, relation: str, catalog: Catalog
) -> Tuple[DeltaJoinPlan, ...]:
    """The δ-plan of every join block of ``expression`` ``relation`` reaches."""
    return tuple(
        plan_delta_join(block, relation, catalog) for block in join_blocks(expression, relation)
    )


def _opposite_signs(
    left: Optional[ExpressionDelta], right: Optional[ExpressionDelta]
) -> bool:
    """Whether a join's left input gains rows while its right input loses some.

    Only a relation on both sides with a non-monotone operator (aggregate,
    difference, distinct) on one of them does this.  The §5.3 rule then puts
    ``δ+E1 ⋈ δ−E2`` into both bags, and its delete copy matches no row of the
    old result; both rules subtract it from both bags, which leaves
    ``δ− = δ−E1 ⋈ E2 ∪ (E1 − δ−E1) ⋈ δ−E2`` and
    ``δ+ = δ+E1 ⋈ (E2 − δ−E2) ∪ new(E1) ⋈ δ+E2``.
    """
    return (
        left is not None
        and right is not None
        and len(left.inserts) > 0
        and len(right.deletes) > 0
    )


# --------------------------------------------------------------- refresh engine

@dataclass
class OldValueCache:
    """Shared evaluation state for one single-relation update round.

    The paper's maintenance plans share temporary results across the views of
    a refresh (§3.1/§5.3); this cache is the execution-time counterpart for
    the differential engine.  Within one round — one base relation, one
    update kind, one fixed pre-update database state — the following are
    functions of the expression alone, so they are memoized by oriented form
    (the canonical form with the column order kept,
    :func:`~repro.algebra.rewrite.oriented_form`) and shared across every
    view the round refreshes:

    * ``old`` — old (pre-update) results of sub-expressions: the leaves of
      δ-first join blocks (base relations, selections over them, stored
      views) and whatever the as-written walks and the Difference/Distinct/
      aggregate rules read,
    * ``new`` — old results with the sub-expression's own differential
      applied,
    * ``deltas`` — the differentials of sub-expressions themselves; the
      δ-first prefixes of views over one join graph are shared here,
    * ``builds`` — :class:`~repro.engine.operators.JoinBuild` s over old/new
      join inputs, keyed by (role, oriented form, join positions), so the δ+
      and δ− probes of every view share one build.

    A cache instance is only valid while the database holds the round's
    pre-update state.  The refresher carries one cache across the rounds of
    a refresh, calling :meth:`advance_round` after each base update: old
    values (and their builds) whose expressions do not depend on the
    just-updated relation are still exact and survive into later rounds;
    everything else is invalidated.
    """

    old: Dict[str, Relation] = field(default_factory=dict)
    new: Dict[str, Relation] = field(default_factory=dict)
    deltas: Dict[str, ExpressionDelta] = field(default_factory=dict)
    builds: Dict[Tuple[str, str, Tuple[int, ...]], operators.JoinBuild] = field(
        default_factory=dict
    )
    #: Base relations each cached expression depends on — the invalidation
    #: key for cross-round survival.
    dependencies: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def advance_round(self, updated_relation: str) -> None:
        """Invalidate what a just-applied update to ``updated_relation`` staled.

        Differentials and new values are functions of the round's specific
        update, so they are always cleared.  Old values and old-input hash
        builds survive unless their expression depends on the updated
        relation — the cross-round analogue of the paper's shared temporary
        results (a sub-expression untouched by update ``i`` need not be
        re-derived for update ``i+1``).
        """
        self.deltas.clear()
        self.new.clear()
        stale = {
            key for key, relations in self.dependencies.items() if updated_relation in relations
        }
        for key in stale:
            self.old.pop(key, None)
            del self.dependencies[key]
        self.builds = {
            key: build
            for key, build in self.builds.items()
            if key[0] == "old" and key[1] not in stale
        }


class DifferentialEngine:
    """Vectorized differential computation over the physical layer.

    Produces the exact insert/delete bags of :func:`differentiate` (which
    remains the correctness oracle) but executes them at batch speed:

    * a join block is differentiated delta-first (:class:`DeltaJoinPlan`):
      the changed leaf's δ is joined outward with the old value of one leaf
      per step, so no join intermediate of two or more relations is ever
      evaluated; blocks that keep their syntax walk are named by their
      ``as-written:<reason>`` route;
    * old/new sub-expression results are evaluated through
      :class:`~repro.engine.physical.PhysicalExecutor` — optimizer-chosen
      plans over the columnar batch kernels — instead of the row-at-a-time
      interpreter;
    * δ-select and δ-project are the batch select/project kernels applied to
      each bag; a δ-join is two probes, by the δ+ and δ− bags, of one
      :class:`~repro.engine.operators.JoinBuild` over the other input — the
      kernel every planned join runs;
    * a stored SUM/COUNT/AVG aggregate is maintained from the child's delta
      and the exact per-group state the database keeps beside the view
      (:class:`~repro.engine.operators.AggregateState`) — no pass over the
      child; other aggregates recompute their affected groups;
    * everything is memoized in a per-round :class:`OldValueCache`, shared
      across all views of a single-relation update round.
    """

    def __init__(self, database: Database, physical=None) -> None:
        self.database = database
        if physical is None:
            from repro.engine.physical import PhysicalExecutor

            physical = PhysicalExecutor(database)
        self.physical = physical
        #: Engine-lifetime memos for immutable per-expression facts.  Keyed by
        #: object identity with the node kept alive alongside, so ids cannot
        #: be recycled while a memo entry exists; everything else by the
        #: node's oriented form, which fixes its column order.
        self._keys: Dict[int, Tuple[Expression, str]] = {}
        self._schemas: Dict[str, Schema] = {}
        self._join_plans: Dict[Tuple[str, str], DeltaJoinPlan] = {}
        self._view_plans: Dict[Tuple[str, str], Tuple[DeltaJoinPlan, ...]] = {}

    # ------------------------------------------------------------------ memos

    def _key(self, node: Expression) -> str:
        entry = self._keys.get(id(node))
        if entry is None or entry[0] is not node:
            entry = (node, oriented_form(node))
            self._keys[id(node)] = entry
        return entry[1]

    def _schema(self, node: Expression) -> Schema:
        key = self._key(node)
        schema = self._schemas.get(key)
        if schema is None:
            schema = derive_schema(node, self.database.catalog)
            self._schemas[key] = schema
        return schema

    def _join_plan(self, node: Join, relation: str) -> DeltaJoinPlan:
        key = (self._key(node), relation)
        plan = self._join_plans.get(key)
        if plan is None:
            plan = plan_delta_join(node, relation, self.database.catalog)
            self._join_plans[key] = plan
        return plan

    def delta_plans(self, expression: Expression, relation: str) -> Tuple[DeltaJoinPlan, ...]:
        """The δ-plans :meth:`differentiate` runs for ``expression``'s join
        blocks on an update of ``relation`` (see :func:`delta_join_plans`)."""
        key = (self._key(expression), relation)
        plans = self._view_plans.get(key)
        if plans is None:
            plans = tuple(
                self._join_plan(block, relation) for block in join_blocks(expression, relation)
            )
            self._view_plans[key] = plans
        return plans

    # -------------------------------------------------------------- entry point

    def differentiate(
        self,
        expression: Expression,
        relation: str,
        kind: DeltaKind,
        delta_rows: Relation,
        materialized: Optional[MaterializedRegistry] = None,
        cache: Optional[OldValueCache] = None,
    ) -> ExpressionDelta:
        """Compute ``expression``'s differential w.r.t. one base update.

        Mirrors :func:`differentiate` (the database must hold the pre-update
        state); ``cache`` carries shared old values across the views of one
        update round and must not outlive the round.
        """
        cache = cache if cache is not None else OldValueCache()

        def old(expr: Expression) -> Relation:
            key = self._key(expr)
            result = cache.old.get(key)
            if result is None:
                cache.misses += 1
                result = self.physical.evaluate(expr, materialized)
                cache.old[key] = result
                cache.dependencies[key] = base_relations(expr)
            else:
                cache.hits += 1
            return result

        def new(expr: Expression, delta: Optional[ExpressionDelta]) -> Relation:
            if delta is None or delta.is_empty:
                return old(expr)
            key = self._key(expr)
            result = cache.new.get(key)
            if result is None:
                result = old(expr).apply_delta(inserts=delta.inserts, deletes=delta.deletes)
                cache.new[key] = result
            return result

        def build_for(role: str, expr: Expression, source: Relation, positions):
            key = (role, self._key(expr), tuple(positions))
            build = cache.builds.get(key)
            if build is None:
                build = cache.builds[key] = operators.JoinBuild(source, positions)
            return build

        def memo(node: Expression, compute_delta: Callable[[], ExpressionDelta]) -> ExpressionDelta:
            key = self._key(node)
            cached = cache.deltas.get(key)
            if cached is not None:
                cache.hits += 1
                return cached
            result = compute_delta()
            cache.deltas[key] = result
            return result

        def recurse(node: Expression) -> ExpressionDelta:
            schema = self._schema(node)
            if relation not in base_relations(node):
                return ExpressionDelta.empty(schema)
            return memo(node, lambda: compute(node, schema))

        def compute(node: Expression, schema: Schema) -> ExpressionDelta:
            if isinstance(node, BaseRelation):
                if node.name != relation:
                    return ExpressionDelta.empty(schema)
                empty = Relation(schema, [])
                bag = Relation.from_trusted_rows(schema, list(delta_rows.rows))
                if kind is DeltaKind.INSERT:
                    return ExpressionDelta(bag, empty)
                return ExpressionDelta(empty, bag)

            if isinstance(node, Select):
                child = recurse(node.child)
                return ExpressionDelta(
                    operators.select_batch(child.inserts, node.predicate),
                    operators.select_batch(child.deletes, node.predicate),
                    rules=child.rules,
                )

            if isinstance(node, Project):
                child = recurse(node.child)
                return ExpressionDelta(
                    operators.project(child.inserts, node.columns),
                    operators.project(child.deletes, node.columns),
                    rules=child.rules,
                )

            if isinstance(node, Join):
                return join_delta(node, schema)

            if isinstance(node, Aggregate):
                return aggregate_delta(node, schema)

            if isinstance(node, UnionAll):
                parts = [recurse(i) for i in node.inputs]
                inserts = [r for p in parts for r in p.inserts.rows]
                deletes = [r for p in parts for r in p.deletes.rows]
                return ExpressionDelta(
                    Relation.from_trusted_rows(schema, inserts),
                    Relation.from_trusted_rows(schema, deletes),
                    rules=rules_of(*parts),
                )

            if isinstance(node, Difference):
                # Same old-vs-new comparison as the oracle; old/new inputs
                # come from the shared cache, so the double evaluation the
                # interpreted rule pays is amortized across the round.
                left_delta = recurse(node.left)
                right_delta = recurse(node.right)
                old_result = old(node.left).difference(old(node.right))
                new_result = new(node.left, left_delta).difference(
                    new(node.right, right_delta)
                )
                return ExpressionDelta(
                    new_result.difference(old_result),
                    old_result.difference(new_result),
                    rules=rules_of(left_delta, right_delta),
                )

            if isinstance(node, Distinct):
                child_delta = recurse(node.child)
                old_result = old(node.child).distinct()
                new_result = new(node.child, child_delta).distinct()
                return ExpressionDelta(
                    new_result.difference(old_result),
                    old_result.difference(new_result),
                    rules=child_delta.rules,
                )

            raise TypeError(f"unknown expression type {type(node).__name__}")

        def rules_of(*deltas: Optional[ExpressionDelta]) -> Tuple[str, ...]:
            return tuple(rule for d in deltas if d is not None for rule in d.rules)

        def join_delta(node: Join, schema: Schema) -> ExpressionDelta:
            """A join block's differential, along its δ-plan."""
            plan = self._join_plan(node, relation)
            if plan.tree is None:
                return written_join(node, schema)
            delta = chain(plan.tree)
            return delta if plan.positions is None else delta.reordered(plan.positions)

        def chain(tree: Expression) -> ExpressionDelta:
            """δ of a δ-first prefix: the changed leaf, then ``δ ⋈ old(leaf)``
            per step, each prefix shared through the cache."""
            if not isinstance(tree, Join):
                return recurse(tree)

            def step() -> ExpressionDelta:
                left_delta = chain(tree.left)
                if left_delta.is_empty:
                    return ExpressionDelta.empty(self._schema(tree))
                inserts, deletes = probe_old(left_delta, tree)
                return ExpressionDelta(inserts, deletes, rules=left_delta.rules)

            return memo(tree, step)

        def probe_old(left_delta: ExpressionDelta, node: Join) -> Tuple[Relation, Relation]:
            """δ_left ⋈ OLD right: one build over the old right input, probed
            by both delta bags (and by every view sharing it)."""
            old_right = old(node.right)
            _, right_pos = operators._join_positions(
                left_delta.inserts.schema, old_right.schema, node.conditions
            )
            return operators.delta_hash_join_batch(
                left_delta.inserts,
                left_delta.deletes,
                old_right,
                node.conditions,
                node.residual,
                build=build_for("old", node.right, old_right, right_pos),
            )

        def side(child: Expression) -> Optional[ExpressionDelta]:
            """An operand's δ inside an as-written block: joins of the block
            keep the syntax walk, other operands are differentiated anew."""
            if relation not in base_relations(child):
                return None
            if isinstance(child, Join):
                return memo(child, lambda: written_join(child, self._schema(child)))
            return recurse(child)

        def written_join(node: Join, schema: Schema) -> ExpressionDelta:
            """The §5.3 rule on the syntax tree:
            (δE1 ⋈ E2) ∪ ((E1 ∪ δE1) ⋈ δE2)."""
            left_delta = side(node.left)
            right_delta = side(node.right)

            insert_parts: List[Relation] = []
            delete_parts: List[Relation] = []
            if left_delta is not None and not left_delta.is_empty:
                inserts, deletes = probe_old(left_delta, node)
                insert_parts.append(inserts)
                delete_parts.append(deletes)
            if right_delta is not None and not right_delta.is_empty:
                new_left = new(node.left, left_delta)
                delta_schema = right_delta.inserts.schema
                left_pos, _ = operators._join_positions(
                    new_left.schema, delta_schema, node.conditions
                )
                role = "new" if (left_delta is not None and not left_delta.is_empty) else "old"
                build = build_for(role, node.left, new_left, left_pos)
                inserts, deletes = operators.delta_hash_join_batch(
                    right_delta.inserts,
                    right_delta.deletes,
                    new_left,
                    node.conditions,
                    node.residual,
                    delta_side="right",
                    build=build,
                )
                insert_parts.append(inserts)
                delete_parts.append(deletes)

            # The kernel's output relations as they are (one side) or unioned
            # (both sides contribute): no store → rows → store round trip.
            if not insert_parts:
                return ExpressionDelta.empty(schema)
            inserts = operators.union_all(*insert_parts)
            deletes = operators.union_all(*delete_parts)
            if _opposite_signs(left_delta, right_delta):
                overlap = operators.hash_join_batch(
                    left_delta.inserts, right_delta.deletes, node.conditions, node.residual
                )
                inserts, deletes = inserts.difference(overlap), deletes.difference(overlap)
            return ExpressionDelta(inserts, deletes, rules=rules_of(left_delta, right_delta))

        def aggregate_delta(node: Aggregate, schema: Schema) -> ExpressionDelta:
            """One rule per case, chosen from what the node and its inputs show."""
            child_delta = recurse(node.child)
            # The stored view counts only when it was registered under this
            # column order: its rows and state are read positionally.
            view_name = (
                materialized.view_of(node, self.database) if materialized is not None else None
            )
            if child_delta.is_empty:
                # Nothing reached the node: a stored view's state stays valid.
                kept = self.database.aggregate_state(view_name) if view_name else None
                return ExpressionDelta(Relation(schema, []), Relation(schema, []), state=kept)
            if any(
                spec.func in (AggregateFunc.MIN, AggregateFunc.MAX)
                for spec in node.aggregates
            ):
                reason = "min-max"
            elif view_name is None:
                reason = "not-stored"
            else:
                result = delta_aggregate(node, schema, view_name, child_delta)
                if result is not None:
                    return result
                reason = "untyped"
            return recompute_affected_groups(node, schema, view_name, child_delta, reason)

        def delta_aggregate(
            node: Aggregate, schema: Schema, view_name: str, child_delta: ExpressionDelta
        ) -> Optional[ExpressionDelta]:
            """δ-aggregate of a stored SUM/COUNT/AVG view, or ``None``.

            Folds δ⁺ and δ⁻ of the child by group into the view's exact
            state and reads each touched group's old and new row off the old
            and new state: O(|δ| + touched groups), no pass over the child or
            the stored view.  A missing state is built once from
            ``old(child)`` and checked against the stored rows.  ``None``
            when an input is not exactly foldable (see
            :meth:`~repro.engine.operators.AggregateState.of`).
            """
            fold = operators.AggregateState.of
            plus = fold(child_delta.inserts, node.group_by, node.aggregates)
            minus = fold(child_delta.deletes, node.group_by, node.aggregates)
            if plus is None or minus is None:
                return None
            rule = DELTA_AGGREGATE
            state = self.database.aggregate_state(view_name)
            if state is None:
                state = fold(old(node.child), node.group_by, node.aggregates)
                if state is None:
                    return None
                stored = self.database.view(view_name)
                if not stored.same_bag(Relation.from_trusted_rows(schema, state.rows())):
                    raise DifferentialMismatch(
                        f"stored view {view_name!r} is stale: its rows are not the "
                        f"aggregate of its input"
                    )
                rule = f"{RECOMPUTE_AFFECTED_GROUPS}:state-built"
            successor = state.merged(plus, minus)
            if successor is None:
                return None
            inserts: List[Row] = []
            deletes: List[Row] = []
            for key in dict.fromkeys((*plus.groups, *minus.groups)):
                old_row = state.row(key)
                new_row = successor.row(key)
                if old_row != new_row:
                    if old_row is not None:
                        deletes.append(old_row)
                    if new_row is not None:
                        inserts.append(new_row)
            return ExpressionDelta(
                Relation.from_trusted_rows(schema, inserts),
                Relation.from_trusted_rows(schema, deletes),
                state=successor,
                rules=child_delta.rules + (rule,),
            )

        def recompute_affected_groups(
            node: Aggregate,
            schema: Schema,
            view_name: Optional[str],
            child_delta: ExpressionDelta,
            reason: str,
        ) -> ExpressionDelta:
            """Aggregate the affected groups of the old and of the new child."""
            child_schema = self._schema(node.child)
            group_pos = child_schema.positions(node.group_by)

            affected: Set[Tuple] = set()
            for row in child_delta.inserts.rows:
                affected.add(tuple(row[i] for i in group_pos))
            for row in child_delta.deletes.rows:
                affected.add(tuple(row[i] for i in group_pos))

            def restrict(rel: Relation) -> Relation:
                if not node.group_by:
                    return rel
                positions = rel.schema.positions(node.group_by)
                # One np.isin pass over the key column when the input is
                # column-store backed; row loop otherwise.
                return operators.semijoin_keys(rel, positions, affected)

            # Old aggregate rows for the affected groups: read from the
            # stored view when this exact node is materialized, else
            # recomputed from the old child restricted to those groups.
            if view_name is not None:
                old_agg = restrict(self.database.view(view_name))
                if not node.group_by:
                    old_agg = Relation(old_agg.schema, list(old_agg.rows))
            else:
                old_agg = operators.aggregate_batch(
                    restrict(old(node.child)), node.group_by, node.aggregates
                )

            new_agg = operators.aggregate_batch(
                restrict(new(node.child, child_delta)), node.group_by, node.aggregates
            )

            inserts = new_agg.difference(old_agg)
            deletes = old_agg.difference(new_agg)
            return ExpressionDelta(
                Relation.from_trusted_rows(schema, list(inserts.rows)),
                Relation.from_trusted_rows(schema, list(deletes.rows)),
                rules=child_delta.rules + (f"{RECOMPUTE_AFFECTED_GROUPS}:{reason}",),
            )

        try:
            return recurse(expression)
        finally:
            # The inner functions close over each other; breaking those
            # cycles lets reference counting free the round's cache and bags
            # when the round ends, instead of whenever the cyclic collector
            # next runs.
            del recurse, compute, chain, side, written_join


class DifferentialMismatch(AssertionError):
    """Raised when the vectorized engine disagrees with a reference.

    The interpreted oracle (:func:`verify_differential`), or — when a stored
    aggregate view's state is built — the view's own rows against the
    aggregate of its input.
    """


def verify_differential(
    engine_delta: ExpressionDelta, oracle_delta: ExpressionDelta, context: str = ""
) -> None:
    """Assert two differentials carry the same insert and delete bags."""
    if not engine_delta.inserts.same_bag(oracle_delta.inserts):
        raise DifferentialMismatch(
            f"insert bags diverge{f' for {context}' if context else ''}: "
            f"engine={len(engine_delta.inserts)} rows, oracle={len(oracle_delta.inserts)} rows"
        )
    if not engine_delta.deletes.same_bag(oracle_delta.deletes):
        raise DifferentialMismatch(
            f"delete bags diverge{f' for {context}' if context else ''}: "
            f"engine={len(engine_delta.deletes)} rows, oracle={len(oracle_delta.deletes)} rows"
        )
