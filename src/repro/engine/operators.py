"""Physical bag operators.

Each function consumes and produces :class:`~repro.storage.Relation` objects
with multiset semantics.  Every join runs on one kernel: a
:class:`JoinBuild` over one input, probed by the other.  A planned join is
one probe (:func:`hash_join_batch`, whatever join algorithm the cost model
priced it as), a δ-join two probes of one build (:func:`delta_hash_join_batch`)
and a cross product a build on no key column.  The row kernels
:func:`hash_join` and :func:`nested_loop_join` are the references the
interpreter and the interpreted differential use.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import AggregateFunc, AggregateSpec
from repro.algebra.predicates import (
    _OPS as _COMPARISON_OPS,
    Comparison,
    ColumnRef,
    Literal,
    Predicate,
    TruePredicate,
    compile_mask,
    compile_predicate,
)
from repro.catalog.schema import Column, ColumnType, Schema, SchemaError
from repro.storage.columns import NumpyColumnStore, numpy as _np
from repro.storage.relation import VECTOR_BUILD_MIN_ROWS, VECTOR_MIN_ROWS, Relation, Row


# ---------------------------------------------------------------- select / project

def select(relation: Relation, predicate: Predicate) -> Relation:
    """σ_predicate — keep rows satisfying the predicate."""
    schema = relation.schema
    return Relation(schema, [r for r in relation if predicate.evaluate(r, schema)], relation.name)


def select_batch(relation: Relation, predicate: Predicate) -> Relation:
    """Batch σ_predicate over the columnar fast path.

    Over a column store the predicate compiles to a whole-column mask
    (:func:`~repro.algebra.predicates.compile_mask`) and selection is one
    boolean gather over the store.  On small row-backed bags, single
    column-vs-literal comparisons — the dominant selection shape in the
    workloads — are evaluated directly against the column array; every
    other predicate runs as one compiled closure over the row batch.
    Output bags are identical to :func:`select`.
    """
    schema = relation.schema
    store = relation.vector_store(VECTOR_MIN_ROWS)
    if store is not None:
        keep = compile_mask(predicate, schema)(store)
        return Relation.from_store(schema, store.mask(keep), relation.name)
    rows = relation.rows
    if (
        isinstance(predicate, Comparison)
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
        and predicate.right.value is not None
    ):
        # Inlined column-vs-literal comparison; must mirror the semantics of
        # compile_predicate's ColumnRef/Literal branch (None never matches),
        # which the physical-vs-logical property suite pins down.
        op_fn = _COMPARISON_OPS[predicate.op]
        value = predicate.right.value
        column = relation.column_values(predicate.left.name)
        kept = [
            row
            for v, row in zip(column, rows)
            if v is not None and op_fn(v, value)
        ]
        return Relation.from_trusted_rows(schema, kept, relation.name)
    fn = compile_predicate(predicate, schema)
    return Relation.from_trusted_rows(schema, [r for r in rows if fn(r)], relation.name)


def project(relation: Relation, columns: Sequence[str]) -> Relation:
    """π_columns — duplicate-preserving projection."""
    return relation.project(columns)


def reorder(relation: Relation, positions: Sequence[int]) -> Relation:
    """``relation``'s columns at ``positions``, in that order.

    A projection by position, for restoring a join block's column order
    after its leaves were joined in another order: names cannot express it
    when a relation joins itself.  A column store is re-projected by
    reference.
    """
    schema = Schema(tuple(relation.schema.columns[p] for p in positions))
    store = relation.cached_store()
    if store is not None:
        return Relation.from_store(schema, store.take(positions), relation.name)
    getter = itemgetter(*positions)
    if len(positions) == 1:
        return Relation.from_trusted_rows(
            schema, [(getter(row),) for row in relation.rows], relation.name
        )
    return Relation.from_trusted_rows(
        schema, [getter(row) for row in relation.rows], relation.name
    )


# ---------------------------------------------------------------------- joins

def _join_positions(
    left: Schema, right: Schema, conditions: Sequence[Tuple[str, str]]
) -> Tuple[List[int], List[int]]:
    """Resolve equi-join columns to positions.

    Each condition is tried in its written orientation first (first column on
    the left input, second on the right); only if that fails is the swapped
    orientation accepted (joins are commutative, so conditions may be written
    relative to either operand order).  A condition that resolves in neither
    orientation raises a :class:`SchemaError` naming both schemas, instead of
    silently mis-binding columns that happen to exist on both sides.
    """
    left_pos: List[int] = []
    right_pos: List[int] = []
    for a, b in conditions:
        as_written = (_position_of(left, a), _position_of(right, b))
        if as_written[0] is not None and as_written[1] is not None:
            left_pos.append(as_written[0])
            right_pos.append(as_written[1])
            continue
        swapped = (_position_of(left, b), _position_of(right, a))
        if swapped[0] is not None and swapped[1] is not None:
            left_pos.append(swapped[0])
            right_pos.append(swapped[1])
            continue
        raise SchemaError(
            f"join condition {a!r}={b!r} cannot be resolved: neither orientation "
            f"binds to left schema {left.names} and right schema {right.names}"
        )
    return left_pos, right_pos


def _position_of(schema: Schema, name: str) -> Optional[int]:
    """Resolve ``name`` in ``schema``, returning None when missing/ambiguous."""
    try:
        return schema.index_of(name)
    except SchemaError:
        return None


def _output(left: Relation, right: Relation) -> Schema:
    return left.schema.concat(right.schema)


def _residual_filter(
    rows: List[Row], schema: Schema, residual: Optional[Predicate]
) -> List[Row]:
    if residual is None or isinstance(residual, TruePredicate):
        return rows
    fn = compile_predicate(residual, schema)
    return [r for r in rows if fn(r)]


def nested_loop_join(
    left: Relation,
    right: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
) -> Relation:
    """Tuple nested-loop join (also serves as the cross-product operator)."""
    schema = _output(left, right)
    left_pos, right_pos = _join_positions(left.schema, right.schema, conditions)
    out: List[Row] = []
    for lrow in left:
        lkey = tuple(lrow[i] for i in left_pos)
        for rrow in right:
            if tuple(rrow[i] for i in right_pos) == lkey:
                out.append(lrow + rrow)
    return Relation(schema, _residual_filter(out, schema, residual))


def hash_join(
    left: Relation,
    right: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
) -> Relation:
    """Hash join on the equi-join columns (without any, a cross product)."""
    schema = _output(left, right)
    left_pos, right_pos = _join_positions(left.schema, right.schema, conditions)
    # Build on the right input, probe with the left (output order: left ++ right).
    buckets: Dict[Tuple[Any, ...], List[Row]] = defaultdict(list)
    for rrow in right:
        buckets[tuple(rrow[i] for i in right_pos)].append(rrow)
    out: List[Row] = []
    for lrow in left:
        key = tuple(lrow[i] for i in left_pos)
        for rrow in buckets.get(key, ()):
            out.append(lrow + rrow)
    return Relation(schema, _residual_filter(out, schema, residual))


def _residual_mask_store(store, schema: Schema, residual: Optional[Predicate]):
    """Apply a residual predicate to a numpy store (no-op for True/None)."""
    if residual is None or isinstance(residual, TruePredicate):
        return store
    return store.mask(compile_mask(residual, schema)(store))


def _row_keys(relation: Relation, positions: Sequence[int]) -> Sequence[Any]:
    """Each row's dict key: the value itself for one column, else a tuple."""
    if len(positions) == 1:
        return relation.column_at(positions[0])
    return [tuple(row[i] for i in positions) for row in relation.rows]


class JoinBuild:
    """One join input keyed on its join columns, probed by any number of bags.

    Every physical join is a probe of one build: a planned join probes a
    build over its right input with its left (:func:`hash_join_batch`), and
    a δ-join probes one build over its non-delta input with both bags of
    the differential (:func:`delta_hash_join_batch`; the refresh engine
    shares the build across views and rounds).  A cross product is a build
    on zero key columns.

    The build is *columnar* when the input carries a column store whose key
    columns are typed numeric (``int64`` / ``float64``): the key is stably
    argsorted once.  A multi-column key (and the empty key of a cross
    product) is first fused into one ``int64`` code per row over the build
    side's distinct values of each column.  Any other input — row-backed,
    ``object`` or ``NULL``-carrying keys — gets a key → rows dict, built on
    first use; a columnar build builds it too for a probe whose key dtypes
    differ from its own (``int64`` meeting ``float64`` would compare through
    a float conversion that is lossy past 2**53).  Both forms emit the same
    rows in the same order.
    """

    __slots__ = (
        "relation", "positions", "store", "kinds", "uniques", "order", "sorted_key", "_buckets"
    )

    def __init__(self, relation: Relation, positions: Sequence[int]) -> None:
        self.relation = relation
        self.positions = tuple(positions)
        self.store = relation.cached_store()
        self._buckets: Optional[Dict[Any, List[Row]]] = None
        self.sorted_key: Any = None
        if self.store is None:
            return
        keys = [self.store.column(p) for p in self.positions]
        self.kinds = [k.dtype.kind for k in keys]
        if any(kind not in "if" for kind in self.kinds):
            return
        self.uniques = [_np.unique(k) for k in keys] if len(keys) != 1 else []
        if math.prod(len(u) for u in self.uniques) > 2**62:  # the code must fit int64
            return
        key = self._key(keys, len(self.store))
        self.order = _np.argsort(key, kind="stable")
        self.sorted_key = key[self.order]

    def _key(self, columns: Sequence[Any], rows: int) -> Any:
        """The sort key of ``rows`` rows' key ``columns``: the column itself
        when there is one, else the code fused over :attr:`uniques` (``-1``
        where a value is not among the build's, so the row matches
        nothing)."""
        if len(columns) == 1:
            return columns[0]
        code = _np.zeros(rows, dtype=_np.int64)
        hit = _np.ones(rows, dtype=bool)
        for column, uniques in zip(columns, self.uniques):
            at = _np.searchsorted(uniques, column)
            found = at < len(uniques)
            found[found] = uniques[at[found]] == column[found]
            hit &= found
            code = code * len(uniques) + at
        return _np.where(hit, code, -1)

    def probe(
        self,
        bag: Relation,
        positions: Sequence[int],
        bag_is_left: bool,
        residual: Optional[Predicate] = None,
    ) -> Relation:
        """``bag ⋈ build`` on ``bag``'s columns at ``positions``.

        Columns are left ++ right, the bag on the side ``bag_is_left``
        names; rows are probe-major, the build's original order within a
        key — for a bag on the left exactly :func:`hash_join`'s emission.
        """
        build = self.relation
        left, right = (bag, build) if bag_is_left else (build, bag)
        schema = left.schema.concat(right.schema)
        if not len(bag):
            return Relation(schema, [])
        if self.sorted_key is not None:
            bag_store = bag.vector_store()
            keys = [bag_store.column(p) for p in positions]
            if [k.dtype.kind for k in keys] == self.kinds:
                key = self._key(keys, len(bag_store))
                starts = _np.searchsorted(self.sorted_key, key, side="left")
                counts = _np.searchsorted(self.sorted_key, key, side="right") - starts
                offsets = _np.cumsum(counts) - counts
                runs = _np.arange(int(counts.sum())) - _np.repeat(offsets - starts, counts)
                bag_out = bag_store.gather(_np.repeat(_np.arange(len(key)), counts))
                build_out = self.store.gather(self.order[runs])
                out = bag_out.hstack(build_out) if bag_is_left else build_out.hstack(bag_out)
                return Relation.from_store(schema, _residual_mask_store(out, schema, residual))
        if self._buckets is None:
            self._buckets = {}
            setdefault = self._buckets.setdefault
            for key, row in zip(_row_keys(build, self.positions), build.rows):
                setdefault(key, []).append(row)
        get = self._buckets.get
        empty: Tuple[Row, ...] = ()
        pairs = zip(_row_keys(bag, positions), bag.rows)
        if bag_is_left:
            rows = [row + match for key, row in pairs for match in get(key, empty)]
        else:
            rows = [match + row for key, row in pairs for match in get(key, empty)]
        return Relation.from_trusted_rows(schema, _residual_filter(rows, schema, residual))


def hash_join_batch(
    left: Relation,
    right: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
) -> Relation:
    """One probe of a :class:`JoinBuild` over ``right`` by ``left``: the
    same bag, in the same order, as :func:`hash_join`.

    A side with a cached store makes the build columnar, converting
    ``right`` even when small (a delta bag probing a stored table); the
    probe converts ``left`` likewise.  Two row-backed sides convert only
    when both are large enough to amortize a single-use conversion; else
    the dict join wins.
    """
    left_pos, right_pos = _join_positions(left.schema, right.schema, conditions)
    if (
        left.cached_store() is not None
        or right.cached_store() is not None
        or min(len(left), len(right)) >= VECTOR_BUILD_MIN_ROWS
    ):
        right.vector_store()
    return JoinBuild(right, right_pos).probe(left, left_pos, True, residual)


# ------------------------------------------------------------- delta kernels
#
# Differential maintenance evaluates the *same* operator over the insert and
# delete bags of a differential (δ+ and δ−).  A δ-join is §5.3's join with
# one input swapped for a δ bag: both bags probe one :class:`JoinBuild` over
# the non-delta input, so the build is paid once per round (the refresh
# engine caches it across views) instead of once per bag.  Selection and
# projection have no shared setup worth a kernel of their own: the
# differential engine applies :func:`select_batch` / :func:`project` per bag.

def delta_hash_join_batch(
    inserts: Relation,
    deletes: Relation,
    other: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
    delta_side: str = "left",
    build: Optional[JoinBuild] = None,
) -> Tuple[Relation, Relation]:
    """δ-⋈: both bags of a differential probe one build over ``other``.

    ``delta_side`` names which logical join operand the delta bags stand in
    for (``"left"`` or ``"right"``); output column order is always
    left ++ right, matching :func:`hash_join`.  A caller that already holds
    the :class:`JoinBuild` of ``other`` on the join columns — the refresh
    engine caches one per round — passes it as ``build``.
    """
    bag_is_left = delta_side == "left"
    if bag_is_left:
        delta_pos, other_pos = _join_positions(inserts.schema, other.schema, conditions)
    else:
        other_pos, delta_pos = _join_positions(other.schema, inserts.schema, conditions)
    if build is None:
        build = JoinBuild(other, other_pos)
    return (
        build.probe(inserts, delta_pos, bag_is_left, residual),
        build.probe(deletes, delta_pos, bag_is_left, residual),
    )


# ------------------------------------------------------------------ set/bag ops

def union_all(*relations: Relation) -> Relation:
    """Multiset union of any number of inputs."""
    if not relations:
        raise ValueError("union_all needs at least one input")
    result = relations[0]
    for other in relations[1:]:
        result = result.union_all(other)
    return result


def difference(left: Relation, right: Relation) -> Relation:
    """Multiset difference (one copy removed per match)."""
    return left.difference(right)


def distinct(relation: Relation) -> Relation:
    """Duplicate elimination."""
    return relation.distinct()


def semijoin_keys(
    relation: Relation, positions: Sequence[int], keys: "set"
) -> Relation:
    """Rows whose key tuple over ``positions`` is in ``keys`` (a set of tuples).

    The restrict kernel of differential aggregate maintenance: a big stored
    input is filtered down to the affected group keys.  Single typed key
    columns run as one ``np.isin`` pass over the column array; everything
    else (multi-column keys, ``None`` keys, type-mixed probes) keeps the
    row loop, whose set-membership semantics are the reference.

    The vector path engages only on an already-cached store: a semijoin is
    one pass, so building typed arrays just for it costs more than the row
    loop it would replace.
    """
    store = relation.cached_store()
    if len(positions) == 1 and store is not None:
        array = store.column(positions[0])
        if array.dtype != object and keys:
            probe = _np.asarray([k[0] for k in keys])
            if probe.dtype.kind == array.dtype.kind:
                keep = _np.isin(array, probe)
                return Relation.from_store(
                    relation.schema, store.mask(keep), relation.name
                )
    if len(positions) == 1:
        i = positions[0]
        scalar_keys = {k[0] for k in keys}
        kept = [r for r in relation.rows if r[i] in scalar_keys]
    else:
        kept = [r for r in relation.rows if tuple(r[i] for i in positions) in keys]
    return Relation.from_trusted_rows(relation.schema, kept, relation.name)


# ----------------------------------------------------------------- aggregation

def _aggregate_schema(
    input_schema: Schema, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> Schema:
    columns: List[Column] = [input_schema.column(g) for g in group_by]
    for agg in aggregates:
        ctype = ColumnType.INTEGER if agg.func is AggregateFunc.COUNT else ColumnType.FLOAT
        columns.append(Column(agg.alias, ctype))
    return Schema(tuple(columns))


def _compute_aggregate(func: AggregateFunc, values: List[Any], count: int) -> Any:
    if func is AggregateFunc.COUNT:
        return count
    if not values:
        return None
    if func is AggregateFunc.SUM:
        return _stable_sum(values)
    if func is AggregateFunc.MIN:
        return min(values)
    if func is AggregateFunc.MAX:
        return max(values)
    if func is AggregateFunc.AVG:
        return _stable_sum(values) / len(values)
    raise ValueError(f"unknown aggregate {func}")


def _stable_sum(values: List[Any]):
    """Sum that is independent of input order.

    Incremental maintenance recomputes affected groups from rows it sees in a
    different order than full recomputation does; ``math.fsum`` returns the
    correctly rounded float sum regardless of order, so the two strategies
    produce bit-identical aggregate values (integer inputs keep integer sums).
    """
    # Single pass, no per-value isinstance pair: ``type(v) is int`` is both
    # the exact-int test (bools fail it) and cheaper than two isinstance
    # calls — this helper runs once per group per aggregate on the refresh
    # hot path.
    for v in values:
        if type(v) is not int:
            return math.fsum(values)
    return sum(values)


def aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Relation:
    """Hash group-by with the requested aggregate columns.

    With an empty ``group_by`` the result has exactly one row (even over an
    empty input, matching SQL semantics for scalar aggregates — except COUNT
    which is 0 and SUM/MIN/MAX/AVG which are None).
    """
    schema = relation.schema
    group_pos = schema.positions(group_by)
    agg_pos = [schema.index_of(a.column) if a.column else None for a in aggregates]
    out_schema = _aggregate_schema(schema, group_by, aggregates)

    groups: Dict[Tuple[Any, ...], List[Row]] = defaultdict(list)
    for row in relation:
        groups[tuple(row[i] for i in group_pos)].append(row)
    if not group_by and not groups:
        groups[()] = []

    out: List[Row] = []
    for key, rows in groups.items():
        values: List[Any] = list(key)
        for spec, pos in zip(aggregates, agg_pos):
            column_values = [r[pos] for r in rows if pos is not None and r[pos] is not None]
            values.append(_compute_aggregate(spec.func, column_values, len(rows)))
        out.append(tuple(values))
    return Relation(out_schema, out)


def _group_segments(group_arrays: Sequence[Any], n: int):
    """Sort ``n`` (> 0) rows into one contiguous segment per group.

    Group keys factorize to dense int64 codes (multi-column keys fuse by
    successive code combination); one stable sort of the codes turns every
    group into a contiguous run.  Returns ``(order, segment_starts,
    counts)`` — the sorting permutation, each run's start in sorted order
    and its length — or ``None`` for group columns numpy cannot factorize
    (e.g. ``None`` mixed with values).
    """
    codes = _np.zeros(n, dtype=_np.int64)
    capacity = 1
    for array in group_arrays:
        try:
            uniques, inverse = _np.unique(array, return_inverse=True)
        except TypeError:
            return None
        capacity *= max(len(uniques), 1)
        if capacity > 2**62:
            return None
        codes = codes * len(uniques) + inverse
    order = _np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundary = _np.empty(n, dtype=bool)
    boundary[0] = True
    _np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
    segment_starts = _np.flatnonzero(boundary)
    counts = _np.diff(_np.append(segment_starts, n))
    return order, segment_starts, counts


def _vector_aggregate(
    relation: Relation,
    group_pos: Sequence[int],
    agg_pos: Sequence[Optional[int]],
    aggregates: Sequence[AggregateSpec],
    out_schema: Schema,
) -> Optional[Relation]:
    """Whole-column group-by/reduce, or ``None`` when inputs do not qualify.

    :func:`_group_segments` turns every group into a contiguous segment, and
    each aggregate reduces segment-at-a-time: ``bincount``-style counts,
    ``reduceat`` for int SUM / MIN / MAX,
    and per-segment ``math.fsum`` for float SUM/AVG so results stay
    bit-identical to the row oracle's order-independent sums.  Output groups
    are reordered to first-occurrence order, matching the oracle's
    insertion-order group emission exactly.

    Falls back (returns ``None``) for empty inputs (scalar-aggregate
    semantics live on the row path), object-dtype aggregate columns (the
    ``None``-skipping rule needs per-value checks), and group columns numpy
    cannot factorize (e.g. ``None`` mixed with values).
    """
    if len(relation) == 0:
        return None
    column = relation.vector_store().column
    value_arrays: List[Any] = []
    for pos in agg_pos:
        if pos is None:
            value_arrays.append(None)
            continue
        array = column(pos)
        if array.dtype == object:
            return None
        value_arrays.append(array)

    n = len(relation)
    group_arrays = [column(pos) for pos in group_pos]
    segments = _group_segments(group_arrays, n)
    if segments is None:
        return None
    order, segment_starts, counts = segments
    # First-occurrence row of each group: the stable sort keeps original
    # order within a segment, and argsort over those rows recovers the
    # oracle's insertion-order group emission.
    first_rows = order[segment_starts]
    emit = _np.argsort(first_rows, kind="stable")

    out_arrays = [array[first_rows[emit]] for array in group_arrays]
    counts_list = None
    for spec, values in zip(aggregates, value_arrays):
        if spec.func is AggregateFunc.COUNT:
            out_arrays.append(counts[emit])
            continue
        sorted_values = values[order]
        if spec.func is AggregateFunc.MIN:
            out_arrays.append(_np.minimum.reduceat(sorted_values, segment_starts)[emit])
            continue
        if spec.func is AggregateFunc.MAX:
            out_arrays.append(_np.maximum.reduceat(sorted_values, segment_starts)[emit])
            continue
        # SUM / AVG.  Ints reduce exactly in int64 (the workloads stay far
        # from 2^63); floats go through per-segment fsum to match the
        # oracle's correctly rounded order-independent sums bit for bit.
        if sorted_values.dtype.kind == "i":
            sums: Any = _np.add.reduceat(sorted_values, segment_starts)
            if spec.func is AggregateFunc.SUM:
                out_arrays.append(sums[emit])
                continue
            if counts_list is None:
                counts_list = counts.tolist()
            averages = [s / c for s, c in zip(sums.tolist(), counts_list)]
            out_arrays.append(_np.asarray(averages, dtype=_np.float64)[emit])
        else:
            flat = sorted_values.tolist()
            bounds = segment_starts.tolist() + [n]
            sums = [math.fsum(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            if spec.func is AggregateFunc.AVG:
                if counts_list is None:
                    counts_list = counts.tolist()
                sums = [s / c for s, c in zip(sums, counts_list)]
            out_arrays.append(_np.asarray(sums, dtype=_np.float64)[emit])

    out_store = NumpyColumnStore(tuple(out_arrays), len(segment_starts))
    return Relation.from_store(out_schema, out_store)


def aggregate_batch(
    relation: Relation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Relation:
    """Vectorized hash aggregation, bag-identical to :func:`aggregate`.

    Qualifying inputs group-reduce over factorized
    key codes (:func:`_vector_aggregate`).  Otherwise grouping runs over the
    group-by column array (scalar dictionary keys for single-column
    group-bys), and each aggregate is then computed column-at-a-time from
    the grouped row indices.  The same accumulation helpers as the
    row-at-a-time path (:func:`_compute_aggregate`, order-independent sums)
    guarantee bit-identical aggregate values.
    """
    schema = relation.schema
    group_pos = schema.positions(group_by)
    agg_pos = [schema.index_of(a.column) if a.column else None for a in aggregates]
    out_schema = _aggregate_schema(schema, group_by, aggregates)
    result = _vector_aggregate(relation, group_pos, agg_pos, aggregates, out_schema)
    if result is not None:
        return result
    rows = relation.rows

    # Group row indices by key, column-at-a-time.
    single = len(group_pos) == 1
    if single:
        keys: Sequence[Any] = relation.column_at(group_pos[0])
    elif group_pos:
        keys = list(zip(*(relation.column_at(i) for i in group_pos)))
    else:
        keys = [()] * len(rows)
    index_groups: Dict[Any, List[int]] = {}
    setdefault = index_groups.setdefault
    for i, key in enumerate(keys):
        setdefault(key, []).append(i)
    if not group_by and not index_groups:
        index_groups[()] = []

    agg_columns = [
        relation.column_at(pos) if pos is not None else None for pos in agg_pos
    ]
    out: List[Row] = []
    for key, indices in index_groups.items():
        values: List[Any] = [key] if single else list(key)
        for spec, column in zip(aggregates, agg_columns):
            if column is None:
                column_values: List[Any] = []
            else:
                column_values = [column[i] for i in indices if column[i] is not None]
            values.append(_compute_aggregate(spec.func, column_values, len(indices)))
        out.append(tuple(values))
    return Relation.from_trusted_rows(out_schema, out)


# ----------------------------------------------------------- δ-aggregate state

#: Every finite double is an integer multiple of 2**-1074, so ``v * 2**1074``
#: is an exact integer: with ``n, d = v.as_integer_ratio()`` (``d`` a power of
#: two whose exponent is ``d.bit_length() - 1``) it is
#: ``n << (_FLOAT_SHIFT - d.bit_length())``.
_FLOAT_SHIFT = 1075
_FLOAT_ONE = 1 << 1074


def _exact_group_column(array: Any) -> bool:
    """Whether a group column's values are exact dictionary keys.

    ``int64``, finite ``float64`` and all-``str`` object columns; ``None``,
    NaN and int/float blends (``1`` and ``1.0`` are one key with two
    spellings) are not.
    """
    kind = array.dtype.kind
    if kind == "f":
        return bool(_np.isfinite(array).all())
    if kind == "O":
        return set(map(type, array.tolist())) == {str}
    return kind == "i"


def _exact_segment_sums(sorted_values: Any, bounds: Sequence[int]) -> List[int]:
    """Exact per-segment sums: plain ints, floats as integers scaled by 2**1074."""
    flat = sorted_values.tolist()
    if sorted_values.dtype.kind == "i":
        return [sum(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return [
        sum(
            n << (_FLOAT_SHIFT - d.bit_length())
            for n, d in map(float.as_integer_ratio, flat[lo:hi])
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


@dataclass(frozen=True, eq=False)
class AggregateState:
    """Exact, mergeable partials of a SUM/COUNT/AVG group-by over one bag.

    Per group the row count and, per aggregate, the *exact* sum of its input
    column: a Python ``int`` for ``int64`` columns, the exact binary value
    scaled by 2**1074 for ``float64`` ones.  Exact sums add and subtract
    without error, so the state of ``R − δ⁻ ∪ δ⁺`` is ``state(R) −
    state(δ⁻) + state(δ⁺)``, and :meth:`row` finalizes a float sum with one
    correctly rounded ``int / int`` division — the value ``math.fsum``
    returns for the same multiset (both round the same exact rational,
    half-to-even; a zero sum compares equal whatever its sign), which is
    what keeps a δ-maintained view ``==`` to recomputation.

    Instances are immutable; differential maintenance keeps one beside each
    stored aggregate view (:meth:`repro.engine.database.Database.aggregate_state`).
    """

    aggregates: Tuple[AggregateSpec, ...]
    #: Whether there is a group-by; a scalar aggregate has its one row even
    #: over an empty bag.
    grouped: bool
    #: Per aggregate, the dtype kind its sums were built from: ``"i"``,
    #: ``"f"``, or ``""`` for COUNT and for a column no row was seen of yet.
    kinds: Tuple[str, ...]
    #: Group key → ``(rows, exact sum per aggregate…)`` (0 in COUNT's slot).
    groups: Dict[Tuple[Any, ...], Tuple[int, ...]]

    @classmethod
    def of(
        cls,
        relation: Relation,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> Optional["AggregateState"]:
        """The state of one bag (``aggregates`` hold no MIN/MAX), or ``None``.

        ``None`` when the bag is not exactly foldable: an aggregate input
        that is not a finite ``int64``/``float64`` column (object dtype
        carries ``None`` and int/float blends, whose SUM type depends on
        every value), or a group column :func:`_exact_group_column` rejects.
        """
        aggregates = tuple(aggregates)
        n = len(relation)
        if n == 0:
            return cls(aggregates, bool(group_by), ("",) * len(aggregates), {})
        schema = relation.schema
        column = relation.vector_store().column
        group_arrays = [column(pos) for pos in schema.positions(group_by)]
        if not all(map(_exact_group_column, group_arrays)):
            return None
        agg_pos = [
            None if spec.func is AggregateFunc.COUNT else schema.index_of(spec.column)
            for spec in aggregates
        ]
        # Keyed by position: SUM(x) and AVG(x) share one fold of x.
        inputs = {pos: column(pos) for pos in agg_pos if pos is not None}
        for array in inputs.values():
            if array.dtype.kind not in "if" or not _np.isfinite(array).all():
                return None
        segments = _group_segments(group_arrays, n)
        if segments is None:
            return None
        order, segment_starts, counts = segments
        first_rows = order[segment_starts]
        keys = list(zip(*(array[first_rows].tolist() for array in group_arrays))) or [()]
        bounds = segment_starts.tolist() + [n]
        sums: Dict[Optional[int], List[int]] = {None: [0] * len(keys)}
        for pos, array in inputs.items():
            sums[pos] = _exact_segment_sums(array[order], bounds)
        kinds = tuple("" if pos is None else inputs[pos].dtype.kind for pos in agg_pos)
        groups = dict(zip(keys, zip(counts.tolist(), *(sums[pos] for pos in agg_pos))))
        return cls(aggregates, bool(group_by), kinds, groups)

    def merged(
        self, plus: "AggregateState", minus: "AggregateState"
    ) -> Optional["AggregateState"]:
        """The state of ``bag − minus's bag ∪ plus's bag``, or ``None``.

        ``None`` when the three disagree on a column's dtype kind: ints
        meeting floats make the recomputed SUM a float blend the exact
        representation does not model.  Groups whose row count reaches 0
        leave the state; a delete bag that takes more than a group holds
        raises ``ValueError`` instead of leaving a negative count behind.
        """
        kinds = []
        for seen in zip(self.kinds, plus.kinds, minus.kinds):
            known = set(seen) - {""}
            if len(known) > 1:
                return None
            kinds.append(known.pop() if known else "")
        groups = dict(self.groups)
        absent = (0,) * (1 + len(self.aggregates))
        for sign, bag in ((1, plus), (-1, minus)):
            for key, partial in bag.groups.items():
                current = groups.get(key, absent)
                groups[key] = tuple(a + sign * b for a, b in zip(current, partial))
        for key in minus.groups:
            partial = groups[key]
            if partial[0] <= 0:
                if any(partial):
                    raise ValueError(
                        f"delete bag removes rows that group {key!r} does not hold"
                    )
                del groups[key]
        return AggregateState(self.aggregates, self.grouped, tuple(kinds), groups)

    def row(self, key: Tuple[Any, ...]) -> Optional[Row]:
        """The aggregate's output row for ``key`` (``None``: no such group).

        Mirrors :func:`aggregate`: a group exists while it has rows, except
        the scalar aggregate's single group, which reads COUNT 0 / SUM None
        over an empty bag.
        """
        partial = self.groups.get(key)
        if partial is None:
            if self.grouped:
                return None
            partial = (0,) * (1 + len(self.aggregates))
        count = partial[0]
        values = list(key)
        for spec, kind, exact in zip(self.aggregates, self.kinds, partial[1:]):
            if spec.func is AggregateFunc.COUNT:
                values.append(count)
            elif count == 0:
                values.append(None)
            else:
                total = exact if kind == "i" else exact / _FLOAT_ONE
                values.append(total if spec.func is AggregateFunc.SUM else total / count)
        return tuple(values)

    def rows(self) -> List[Row]:
        """Every output row (what the stored view must hold)."""
        return [self.row(key) for key in (self.groups if self.grouped else [()])]


def sort(relation: Relation, columns: Sequence[str]) -> Relation:
    """Sort a relation on ``columns`` ascending."""
    return relation.sorted_by(columns)
