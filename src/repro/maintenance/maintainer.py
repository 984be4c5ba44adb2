"""Executable view refresh.

The paper's experiments report estimated plan costs; this module provides the
piece the authors could not run — an actual refresh executor — so that the
test suite can prove the maintenance machinery correct: for any set of views
and any batch of inserts/deletes, incrementally refreshing the stored views
(one relation and one update kind at a time, exactly as the optimizer plans
it) yields the same bags as recomputing the views from scratch on the
updated database.

The refresher can also *temporarily materialize* shared sub-expressions
chosen by the greedy algorithm: they are registered so every view's
differential computation reuses them, recomputed only when a base update
actually invalidates them, and discarded at the end of the refresh.

There is one execution path.  Full computations run through the
:class:`~repro.engine.physical.PhysicalExecutor`; differentials run through
the vectorized :class:`~repro.engine.differential.DifferentialEngine`,
sharing old values, sub-expression deltas and hash builds across all views
of an update round (and across rounds, until invalidated) via an
:class:`~repro.engine.differential.OldValueCache`.  The interpreter
:func:`~repro.engine.executor.evaluate` and the interpreted
:func:`~repro.engine.differential.differentiate` are references only:
``verify_against_recomputation`` and ``verify_differentials`` compare the
product path against them, nothing falls back to them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression, base_relations
from repro.engine.database import Database, ViewMerge
from repro.engine.differential import (
    DifferentialEngine,
    OldValueCache,
    differentiate,
    verify_differential,
)
from repro.engine.executor import MaterializedRegistry, evaluate
from repro.engine.physical import PhysicalExecutor
from repro.storage.delta import DeltaKind, DeltaStore
from repro.storage.relation import Relation


@dataclass
class ViewRefreshStep:
    """Record of one (view, single-relation update) refresh step."""

    view: str
    relation: str
    kind: DeltaKind
    inserted: int
    deleted: int
    #: The rule each aggregate node of the view ran in this step:
    #: ``delta-aggregate`` or ``recompute-affected-groups:<reason>`` with
    #: reason ``min-max`` | ``not-stored`` | ``untyped`` | ``state-built``
    #: (see :mod:`repro.engine.differential`).  Empty for views without an
    #: aggregate.
    aggregate_rules: Tuple[str, ...] = ()
    #: The route of each join block of the view the update reached:
    #: ``delta-first`` or ``as-written:<reason>`` with reason ``self-join`` |
    #: ``residual`` | ``cross-product`` (see
    #: :class:`repro.engine.differential.DeltaJoinPlan`).  Empty for views
    #: without a join.
    delta_plans: Tuple[str, ...] = ()


@dataclass
class RefreshReport:
    """Summary of one refresh round."""

    steps: List[ViewRefreshStep] = field(default_factory=list)
    recomputed_views: List[str] = field(default_factory=list)
    #: Every merge of an incrementally maintained view's logged steps, in
    #: the order they ran (see :meth:`Database.step_log`).
    merges: List[ViewMerge] = field(default_factory=list)

    def aggregate_rule_counts(self) -> Dict[str, int]:
        """How many aggregate steps ran each rule (with its reason)."""
        return dict(Counter(rule for step in self.steps for rule in step.aggregate_rules))

    def delta_plan_counts(self) -> Dict[str, int]:
        """How many join-block differentials ran each δ-plan route."""
        return dict(Counter(route for step in self.steps for route in step.delta_plans))

    def merge_route_counts(self) -> Dict[str, int]:
        """How many view merges ran each route; ``read-through`` counts those
        of them a read in the middle of the refresh forced."""
        counts = Counter(merge.route for merge in self.merges)
        forced = sum(merge.read_through for merge in self.merges)
        if forced:
            counts["read-through"] = forced
        return dict(counts)

    def total_changes(self, view: Optional[str] = None) -> int:
        """Total tuples inserted+deleted across steps (optionally one view)."""
        return sum(
            step.inserted + step.deleted
            for step in self.steps
            if view is None or step.view == view
        )


class ViewRefresher:
    """Maintains a set of materialized views over a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        views: Mapping[str, Expression],
        temporary_subexpressions: Optional[Mapping[str, Expression]] = None,
        recompute_views: Optional[Iterable[str]] = None,
        verify_differentials: bool = False,
        physical_executor: Optional[PhysicalExecutor] = None,
    ) -> None:
        self.database = database
        self.views: Dict[str, Expression] = dict(views)
        #: Shared sub-expressions to materialize temporarily during refresh.
        self.temporaries: Dict[str, Expression] = dict(temporary_subexpressions or {})
        #: Views whose chosen strategy is full recomputation instead of deltas.
        self.recompute_views = set(recompute_views or ())
        #: Full (re)computations of views and temporaries run through the
        #: physical layer (optimizer-chosen plans, vectorized operators).  A
        #: caller owning a long-lived executor (the :class:`repro.api.Warehouse`
        #: session, which accumulates cardinality feedback across refresh
        #: rounds) can inject it instead of this refresher building its own.
        self._physical = physical_executor or PhysicalExecutor(database)
        #: Check every computed delta against the interpreted ``differentiate``.
        self.verify_differentials = verify_differentials
        self._diff_engine = DifferentialEngine(database, physical=self._physical)
        #: Temporaries whose materialization no longer reflects the current
        #: base-table state (set when a relation they depend on is updated).
        self._stale_temporaries: Dict[str, bool] = {}
        self.registry = MaterializedRegistry()
        for name, expression in self.views.items():
            # Views refreshed by recomputation are left stale until the end of
            # the refresh round, so other views' differential computations must
            # not read them as the "old value" of a shared sub-expression.
            if name not in self.recompute_views:
                self.registry.register(expression, name)

    # ------------------------------------------------------------------ set-up

    def _compute(
        self, expression: Expression, materialized: Optional[MaterializedRegistry] = None
    ) -> Relation:
        """Full computation of an expression through its physical plan."""
        return self._physical.evaluate(expression, materialized)

    def initialize_views(self) -> None:
        """Materialize every view from the current database contents."""
        for name, expression in self.views.items():
            self.database.materialize_view(name, self._compute(expression))

    def ensure_views(self) -> None:
        """Materialize only the views that are not stored yet.

        Unlike :meth:`initialize_views` this is safe to call before every
        refresh round: already-materialized views (kept current by earlier
        rounds) are left untouched.
        """
        for name, expression in self.views.items():
            if not self.database.has_view(name):
                self.database.materialize_view(name, self._compute(expression))

    # ------------------------------------------------------------------ refresh

    def refresh(self, deltas: DeltaStore) -> RefreshReport:
        """Propagate one batch of updates into all materialized views.

        Updates are applied one relation and one update kind at a time, in
        the delta store's order (paper §3.1.1): for each single-relation
        update, every view's differential is computed against the current
        (pre-update) state, the view contents are merged, and only then is
        the base relation itself updated.
        """
        return self.refresh_many([deltas])

    def refresh_many(self, rounds: Sequence[DeltaStore]) -> RefreshReport:
        """Propagate a sequence of update rounds in one refresh session.

        This is the multi-round entry the stream scheduler flushes through:
        compared with calling :meth:`refresh` once per round it shares a
        single :class:`~repro.engine.differential.OldValueCache` across all
        flushed rounds (old values, sub-expression deltas and hash builds
        survive between rounds until a base update actually invalidates
        them), keeps temporaries materialized across rounds under the same
        staleness discipline, merges each incrementally maintained view once
        (:meth:`Database.step_log`), and rebuilds recomputation-maintained
        views only once, against the fully updated database.
        """
        report = RefreshReport()
        # One old-value cache spans the whole flush: within a round, shared
        # sub-expressions (and their hash builds) evaluate once across all
        # views; across rounds, entries survive until a base update actually
        # invalidates them (advance_round's dependency check).
        round_cache = OldValueCache()
        incremental_views = {
            name: expr for name, expr in self.views.items() if name not in self.recompute_views
        }
        # Each view's differentials are logged and merged once, when the
        # log closes — even by an exception — or when a read needs the view.
        with self.database.step_log() as merges:
            for deltas in rounds:
                self._refresh_round(deltas, incremental_views, report, round_cache)
        report.merges = merges

        # Views maintained by recomputation are rebuilt once, at the end,
        # against the fully updated database.
        for name in self.recompute_views:
            if name in self.views:
                self.database.materialize_view(name, self._compute(self.views[name]))
                report.recomputed_views.append(name)
        self._drop_all_temporaries()
        return report

    def _refresh_round(
        self,
        deltas: DeltaStore,
        incremental_views: Mapping[str, Expression],
        report: RefreshReport,
        round_cache: OldValueCache,
    ) -> None:
        """Propagate one round's updates (incremental views only)."""
        for update in deltas.update_ids(only_nonempty=True):
            delta_rows = deltas.relation_delta(update.relation, update.kind)
            self._materialize_temporaries(update.relation)
            touched = {
                name: expression
                for name, expression in incremental_views.items()
                if update.relation in base_relations(expression)
            }
            # Compute every view's differential against the same pre-update
            # state first, then apply them all, so that no view observes
            # another view's partially propagated contents.
            changes = {
                name: self._differentiate(
                    expression, update.relation, update.kind, delta_rows, round_cache, name
                )
                for name, expression in touched.items()
            }
            for name, change in changes.items():
                # A δ-aggregate hands over the merged view's state with its
                # bags; any other merge drops the view's previous state.
                self.database.log_view_step(
                    name, inserts=change.inserts, deletes=change.deletes, state=change.state
                )
                report.steps.append(
                    ViewRefreshStep(
                        view=name,
                        relation=update.relation,
                        kind=update.kind,
                        inserted=len(change.inserts),
                        deleted=len(change.deletes),
                        aggregate_rules=change.rules,
                        delta_plans=tuple(
                            plan.route
                            for plan in self._diff_engine.delta_plans(
                                incremental_views[name], update.relation
                            )
                        ),
                    )
                )
            self.database.apply_update(update.relation, update.kind, delta_rows)
            self._flag_stale_temporaries(update.relation)
            round_cache.advance_round(update.relation)

    # ------------------------------------------------------------ differentials

    def _differentiate(
        self,
        expression: Expression,
        relation: str,
        kind: DeltaKind,
        delta_rows: Relation,
        round_cache: OldValueCache,
        view_name: str,
    ):
        """One view's differential, through the vectorized engine.

        With ``verify_differentials`` set, the result is checked bag-for-bag
        against the interpreted reference before it is trusted.
        """
        change = self._diff_engine.differentiate(
            expression,
            relation,
            kind,
            delta_rows,
            materialized=self.registry,
            cache=round_cache,
        )
        if self.verify_differentials:
            oracle = differentiate(
                expression,
                self.database,
                relation,
                kind,
                delta_rows,
                materialized=self.registry,
            )
            verify_differential(change, oracle, context=view_name)
        return change

    # -------------------------------------------------------------- temporaries

    def _materialize_temporaries(self, relation: str) -> None:
        """(Re)compute the temporary shared results this update round needs.

        A temporary is only useful while it reflects the round's *pre-update*
        state, which a materialization from an earlier round still does as
        long as no relation its expression depends on has been updated since
        (the ``_stale_temporaries`` flags track exactly that).  Only missing
        or stale temporaries are recomputed — not, as the old behavior had
        it, every temporary on every round.

        Stale materializations are dropped (and unregistered) *before* any
        recomputation: a registered stale view would short-circuit its own
        recomputation — and corrupt any other temporary computed from it —
        through the registry lookup in the evaluators.
        """
        dropped = False
        for name, expression in self.temporaries.items():
            if self._stale_temporaries.get(name) and self.database.has_view(name):
                self.database.drop_view(name)
                self.registry.unregister(expression)
                dropped = True
        if dropped:
            self._reregister_views()
        for name, expression in self.temporaries.items():
            if self.database.has_view(name):
                continue
            self.database.materialize_view(name, self._compute(expression, self.registry))
            self.registry.register(expression, name)
            self._stale_temporaries[name] = False

    def _flag_stale_temporaries(self, relation: str) -> None:
        """Mark the temporaries a just-applied base update invalidated."""
        for name, expression in self.temporaries.items():
            if relation in base_relations(expression):
                self._stale_temporaries[name] = True

    def _drop_all_temporaries(self) -> None:
        """Discard every remaining temporary at the end of a refresh."""
        if not self.temporaries:
            return
        for name, expression in self.temporaries.items():
            if self.database.has_view(name):
                self.database.drop_view(name)
            self.registry.unregister(expression)
            self._stale_temporaries[name] = True
        self._reregister_views()

    def _reregister_views(self) -> None:
        # Re-register the incrementally maintained views in case a temporary
        # shared the canonical form of one of them.
        for name, expression in self.views.items():
            if name not in self.recompute_views:
                self.registry.register(expression, name)

    # ------------------------------------------------------------ verification

    def verify_against_recomputation(self) -> Dict[str, bool]:
        """Compare every stored view against recomputation from base tables."""
        results: Dict[str, bool] = {}
        for name, expression in self.views.items():
            recomputed = evaluate(expression, self.database)
            results[name] = self.database.view(name).same_bag(recomputed)
        return results


def apply_and_refresh(
    database: Database,
    views: Mapping[str, Expression],
    deltas: DeltaStore,
    temporary_subexpressions: Optional[Mapping[str, Expression]] = None,
    recompute_views: Optional[Iterable[str]] = None,
    verify_differentials: bool = False,
) -> Tuple[RefreshReport, Dict[str, bool]]:
    """Convenience wrapper: refresh the views and verify them against recomputation."""
    refresher = ViewRefresher(
        database,
        views,
        temporary_subexpressions=temporary_subexpressions,
        recompute_views=recompute_views,
        verify_differentials=verify_differentials,
    )
    if not all(database.has_view(name) for name in views):
        refresher.initialize_views()
    report = refresher.refresh(deltas)
    return report, refresher.verify_against_recomputation()
