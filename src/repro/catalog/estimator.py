"""The unified cardinality estimator.

Every planning decision in this system — Volcano plan choice, maintenance
plan selection, MQO temporary materialization — ultimately consumes
cardinality and selectivity estimates.  Before this module existed those
estimates came from three independently coded paths that could disagree
about the same sub-expression; :class:`CardinalityEstimator` is now the one
place where an estimate is made.

It layers three sources of truth, best first:

1. **Runtime feedback** — actual output cardinalities recorded by the
   physical executor per plan node, keyed by the node expression's
   canonical form.  A valid observation overrides any model-based estimate
   and is invalidated automatically when the statistics of a base relation
   the expression depends on change (per-relation stats versions from the
   :class:`~repro.catalog.catalog.Catalog`).
2. **Histograms** — equi-depth histograms measured (or incrementally
   maintained) on base/view columns, interpolated for range and equality
   predicates, with exact 0/1 answers outside the covered value range.
3. **System-R formulas** — the classic uniformity/independence/containment
   fallbacks of :mod:`repro.catalog.statistics`, used only when neither of
   the above applies.

Estimates are memoized per canonical expression and revalidated against the
catalog's per-relation statistics versions, so repeated planning over an
unchanged database never re-derives, while a refresh round that moves a
relation's statistics transparently invalidates everything built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

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
    base_relations,
)
from repro.algebra.predicates import ColumnRef, Comparison, Literal, Predicate, conjuncts
from repro.catalog.catalog import Catalog
from repro.catalog.statistics import (
    ColumnStats,
    TableStats,
    difference_cardinality,
    estimate_group_count,
    estimate_join_cardinality,
    estimate_selectivity,
    merge_column_stats,
    union_cardinality,
)

#: Estimate-vs-actual q-error beyond which a cached plan is considered
#: mis-costed and re-optimized against the observed cardinalities.
DEFAULT_DRIFT_THRESHOLD = 2.0

#: Fixed cost, in delta-row-equivalents, of propagating one non-empty
#: single-relation update, in the refresh-round cost estimate.
UPDATE_OVERHEAD_ROWS = 64.0


def qerror(estimated: float, actual: float) -> float:
    """The symmetric q-error ``max(e/a, a/e)`` with +1 smoothing.

    Smoothing keeps empty results comparable (an estimate of 3 rows against
    an actual of 0 scores 4, not infinity) and makes q-error 1.0 the exact
    floor.
    """
    e = max(0.0, estimated) + 1.0
    a = max(0.0, actual) + 1.0
    return max(e / a, a / e)


@dataclass
class Observation:
    """One observed actual cardinality, valid while its stats versions hold."""

    actual: float
    versions: Tuple[Tuple[str, int], ...]


class CardinalityEstimator:
    """Single shared estimator for selectivities, join sizes and feedback."""

    def __init__(
        self,
        catalog: Catalog,
        use_histograms: bool = True,
        use_feedback: bool = True,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> None:
        self.catalog = catalog
        self.use_histograms = use_histograms
        self.use_feedback = use_feedback
        self.drift_threshold = drift_threshold
        #: Memoized derived statistics: canonical key -> (stats, versions).
        self._memo: Dict[str, Tuple[TableStats, Tuple[Tuple[str, int], ...]]] = {}
        #: Runtime-feedback observations keyed by canonical expression.
        self._observations: Dict[str, Observation] = {}

    # ------------------------------------------------------------------ clones

    def for_catalog(
        self, catalog: Catalog, use_feedback: Optional[bool] = None
    ) -> "CardinalityEstimator":
        """A clone bound to another catalog, sharing the observation store.

        Used for differential derivations over a
        :class:`~repro.maintenance.diff_dag.DeltaCatalog` (one relation's
        stats replaced by its delta's): the clone gets its own memo — the
        catalogs disagree about the updated relation — while observed truths
        remain shared (feedback is usually disabled for delta derivations,
        since full-result observations do not describe differentials).
        """
        clone = CardinalityEstimator(
            catalog,
            use_histograms=self.use_histograms,
            use_feedback=self.use_feedback if use_feedback is None else use_feedback,
            drift_threshold=self.drift_threshold,
        )
        clone._observations = self._observations
        return clone

    # -------------------------------------------------------------- versioning

    def _versions_for(self, relations: Iterable[str]) -> Tuple[Tuple[str, int], ...]:
        return tuple((r, self.catalog.stats_version(r)) for r in sorted(relations))

    def _versions_valid(self, versions: Tuple[Tuple[str, int], ...]) -> bool:
        return all(self.catalog.stats_version(r) == v for r, v in versions)

    def clear(self) -> None:
        """Drop every memoized estimate and observation."""
        self._memo.clear()
        self._observations.clear()

    # ------------------------------------------------------------- derivation

    def stats(self, expression: Expression) -> TableStats:
        """Estimated statistics for ``expression``'s result (memoized).

        A valid runtime observation for the expression overrides the derived
        cardinality (column statistics are kept from the derivation).
        """
        canonical = getattr(expression, "canonical", None)
        if canonical is None:
            # Unknown expression shapes surface _derive's TypeError.
            return self._derive(expression)
        key = canonical()
        hit = self._memo.get(key)
        if hit is not None and self._versions_valid(hit[1]):
            return hit[0]
        derived = self._derive(expression)
        if self.use_feedback:
            observation = self._observations.get(key)
            if observation is not None and self._versions_valid(observation.versions):
                derived = derived.with_cardinality(observation.actual)
        versions = self._versions_for(base_relations(expression))
        self._memo[key] = (derived, versions)
        return derived

    def cardinality(self, expression: Expression) -> float:
        """Estimated output cardinality of ``expression``."""
        return self.stats(expression).cardinality

    def _schema(self, expression: Expression):
        # Lazy import: schema_derivation delegates derive_stats back to this
        # class, so a module-level import would be circular.
        from repro.algebra.schema_derivation import derive_schema

        return derive_schema(expression, self.catalog)

    def _derive(self, expression: Expression) -> TableStats:
        if isinstance(expression, BaseRelation):
            return self.catalog.stats(expression.name)

        if isinstance(expression, Select):
            child = self.stats(expression.child)
            selectivity = self.predicate_selectivity(expression.predicate, child)
            return child.with_cardinality(child.cardinality * selectivity)

        if isinstance(expression, Project):
            child = self.stats(expression.child)
            schema = self._schema(expression)
            kept = {c.name for c in schema.columns}
            cols = {
                n: cs
                for n, cs in child.column_stats.items()
                if n in kept or n.rsplit(".", 1)[-1] in kept
            }
            return TableStats(child.cardinality, schema.tuple_width, cols)

        if isinstance(expression, Join):
            left = self.stats(expression.left)
            right = self.stats(expression.right)
            return self.join_stats(left, right, expression.conditions, expression.residual)

        if isinstance(expression, Aggregate):
            child = self.stats(expression.child)
            groups = self.group_count(child, expression.group_by)
            schema = self._schema(expression)
            cols: Dict[str, ColumnStats] = {}
            for g in expression.group_by:
                base = child.column(g)
                if base is not None:
                    cols[g] = ColumnStats(distinct=min(base.distinct, groups))
                else:
                    cols[g] = ColumnStats(distinct=groups)
            for agg in expression.aggregates:
                cols[agg.alias] = ColumnStats(distinct=groups)
            return TableStats(groups, schema.tuple_width, cols)

        if isinstance(expression, UnionAll):
            parts = [self.stats(i) for i in expression.inputs]
            schema = self._schema(expression)
            cols = merge_column_stats(*[p.column_stats for p in parts])
            return TableStats(union_cardinality(parts), schema.tuple_width, cols)

        if isinstance(expression, Difference):
            left = self.stats(expression.left)
            right = self.stats(expression.right)
            return left.with_cardinality(difference_cardinality(left, right))

        if isinstance(expression, Distinct):
            child = self.stats(expression.child)
            schema = self._schema(expression)
            distinct = self.group_count(child, list(schema.names))
            return child.with_cardinality(distinct)

        raise TypeError(f"unknown expression type {type(expression).__name__}")

    # ----------------------------------------------------------- selectivities

    def predicate_selectivity(self, predicate: Predicate, stats: TableStats) -> float:
        """Estimated selectivity of an arbitrary predicate against ``stats``."""
        selectivity = 1.0
        for part in conjuncts(predicate):
            selectivity *= self._single_selectivity(part, stats)
        return max(0.0, min(1.0, selectivity))

    def _single_selectivity(self, predicate: Predicate, stats: TableStats) -> float:
        if isinstance(predicate, Comparison):
            left, right, op = predicate.left, predicate.right, predicate.op
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                return self.comparison_selectivity(op, stats, left.name, _numeric(right.value))
            if isinstance(left, Literal) and isinstance(right, ColumnRef):
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
                return self.comparison_selectivity(flipped, stats, right.name, _numeric(left.value))
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                # Column-to-column comparison within one input: treat as an
                # equi-restriction using the larger distinct count.
                v = max(stats.distinct(left.name), stats.distinct(right.name))
                return 1.0 / max(1.0, v) if op == "==" else 1.0 / 3.0
        # Unknown predicate shapes get the default restriction factor.
        return 0.25

    def comparison_selectivity(
        self, op: str, stats: TableStats, column: str, value: Optional[float]
    ) -> float:
        """Selectivity of ``column op value``: histogram first, System-R after."""
        if self.use_histograms and value is not None:
            col = stats.column(column)
            if col is not None and col.histogram is not None:
                estimated = self._histogram_selectivity(op, col, float(value))
                if estimated is not None:
                    floor = 1.0 / max(stats.cardinality, 1.0)
                    if estimated in (0.0, 1.0):
                        # Exact 0/1 answers are only trustworthy when the
                        # histogram's covered range is exact; sampled bounds
                        # underestimate the true range, so keep the floor.
                        if not col.sampled:
                            return estimated
                        return min(1.0 - floor, max(floor, estimated))
                    return min(1.0, max(floor, estimated))
        return estimate_selectivity(op, stats, column, value)

    @staticmethod
    def _histogram_selectivity(op: str, col: ColumnStats, value: float) -> Optional[float]:
        histogram = col.histogram
        if histogram is None or histogram.total <= 0:
            return None
        if op == "==":
            return histogram.equal_fraction(value, col.distinct)
        if op == "!=":
            return 1.0 - histogram.equal_fraction(value, col.distinct)
        if op == "<":
            return histogram.fraction_at_most(value, inclusive=False)
        if op == "<=":
            return histogram.fraction_at_most(value, inclusive=True)
        if op == ">":
            return 1.0 - histogram.fraction_at_most(value, inclusive=True)
        if op == ">=":
            return 1.0 - histogram.fraction_at_most(value, inclusive=False)
        return None

    # ------------------------------------------------------------------- joins

    def join_cardinality(
        self,
        left: TableStats,
        right: TableStats,
        conditions: Sequence[Tuple[str, str]],
    ) -> float:
        """Equi-join cardinality under containment of value sets."""
        return estimate_join_cardinality(left, right, conditions)

    def join_stats(
        self,
        left: TableStats,
        right: TableStats,
        conditions: Sequence[Tuple[str, str]],
        residual: Optional[Predicate] = None,
    ) -> TableStats:
        """Full :class:`TableStats` of an equi-join (width, merged columns)."""
        cardinality = self.join_cardinality(left, right, conditions)
        width = left.tuple_width + right.tuple_width
        cols = merge_column_stats(left.column_stats, right.column_stats)
        if residual is not None:
            combined = TableStats(max(cardinality, 1.0), width, cols)
            cardinality *= self.predicate_selectivity(residual, combined)
        # Clamp distinct counts to the join output cardinality.
        return TableStats(cardinality, width, cols).with_cardinality(cardinality)

    # ------------------------------------------------------------ group counts

    def group_count(self, stats: TableStats, group_columns: Sequence[str]) -> float:
        """Estimated group count of a group-by over ``group_columns``."""
        return estimate_group_count(stats, list(group_columns))

    # ---------------------------------------------------- refresh (delta) costs

    def delta_propagation_ratio(self, view: Expression, relation: str) -> float:
        """Estimated view-rows produced per delta-row of ``relation``.

        The differential of a view with respect to a single-relation update
        scales (to first order) with the delta size: a delta of ``n`` tuples
        on ``R`` flows through the view's joins and filters the same way
        ``R``'s own tuples do, producing roughly
        ``n * card(view) / card(R)`` changed view tuples.  The ratio is
        clamped below at a small floor so propagation work never estimates
        to zero — even a fully filtered-out delta costs a probe per tuple.
        """
        relation_cardinality = max(1.0, self.catalog.stats(relation).cardinality)
        view_cardinality = self.cardinality(view)
        return max(0.05, view_cardinality / relation_cardinality)

    def refresh_round_cost(
        self,
        views: Mapping[str, Expression],
        delta_sizes: Mapping[str, Tuple[int, int]],
    ) -> float:
        """Estimated cost of one refresh round, in delta-row-equivalents.

        ``delta_sizes`` maps each updated relation to its ``(inserts,
        deletes)`` bag sizes.  Every non-empty single-relation update pays
        a fixed overhead (:data:`UPDATE_OVERHEAD_ROWS`) for differential
        set-up, and every delta row pays the propagation ratio of each view
        that depends on the updated relation
        (:meth:`delta_propagation_ratio`).

        Nothing in ``src/`` calls this: the stream scheduler flushes on its
        staleness bounds alone, because a coalesced round never prices
        above the eager rounds it replaces.  It stays as an entry point of
        the ``perf/`` benchmark's tracing table.
        """
        cost = 0.0
        for relation, (inserts, deletes) in delta_sizes.items():
            relation_rows = float(inserts) + float(deletes)
            if relation_rows <= 0:
                continue
            # One overhead per non-empty single-relation update (δ+ and δ−
            # are propagated separately, per the paper's 1..2n numbering).
            cost += UPDATE_OVERHEAD_ROWS * ((inserts > 0) + (deletes > 0))
            for view in views.values():
                if relation in base_relations(view):
                    cost += relation_rows * self.delta_propagation_ratio(view, relation)
        return cost

    # ---------------------------------------------------------------- feedback

    def record_actual(
        self,
        expression: Union[Expression, str],
        estimated: float,
        actual: float,
        relations: Optional[Iterable[str]] = None,
    ) -> bool:
        """Record an observed actual cardinality for an expression.

        Returns whether the observation *drifted* — disagreed with the
        estimate in force beyond the drift threshold — in which case callers
        holding plans costed with that estimate should re-optimize.  Any
        memoized estimate whose expression embeds the observed one (canonical
        forms are compositional strings) is invalidated so the correction
        propagates upward on the next derivation.
        """
        if isinstance(expression, Expression):
            key = expression.canonical()
            if relations is None:
                relations = base_relations(expression)
        else:
            key = expression
        actual = float(actual)
        versions = self._versions_for(relations or ())
        existing = self._observations.get(key)
        if existing is not None and existing.actual == actual and existing.versions == versions:
            # Unchanged observation: nothing new to learn, no memo to sweep.
            return qerror(estimated, actual) > self.drift_threshold
        self._observations[key] = Observation(actual, versions)
        for memo_key in [k for k in self._memo if key in k]:
            del self._memo[memo_key]
        return qerror(estimated, actual) > self.drift_threshold

    def observed_cardinality(self, key: str) -> Optional[float]:
        """The currently valid observed cardinality for ``key``, if any."""
        observation = self._observations.get(key)
        if observation is not None and self._versions_valid(observation.versions):
            return observation.actual
        return None

    def plan_drifted(self, snapshot: Mapping[str, float]) -> bool:
        """Whether any of a plan's recorded estimates drifted from observation.

        ``snapshot`` maps canonical expressions to the cardinalities the plan
        was costed with; a plan is stale when a valid observation disagrees
        with one of them beyond the drift threshold.
        """
        if not self.use_feedback:
            return False
        for key, estimated in snapshot.items():
            actual = self.observed_cardinality(key)
            if actual is not None and qerror(estimated, actual) > self.drift_threshold:
                return True
        return False


def _numeric(value) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None
