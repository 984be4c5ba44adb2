"""Physical bag operators.

Each function consumes and produces :class:`~repro.storage.Relation` objects
with multiset semantics.  Every planned join runs on one kernel,
:func:`hash_join_batch`, whatever join algorithm the cost model priced it
as; the row kernels :func:`hash_join` and :func:`nested_loop_join` are the
references the interpreter and the interpreted differential use.
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
            if conditions and tuple(rrow[i] for i in right_pos) != lkey:
                continue
            out.append(lrow + rrow)
    return Relation(schema, _residual_filter(out, schema, residual))


def hash_join(
    left: Relation,
    right: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
) -> Relation:
    """Hash join on the equi-join columns (build on the smaller input)."""
    if not conditions:
        return nested_loop_join(left, right, conditions, residual)
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


def _vector_join_keys(left_store, left_pos, right_store, right_pos):
    """Per-side key arrays for the vectorized equi-join, or ``None``.

    Only typed numeric columns of the same kind on both sides qualify —
    object columns can hold ``None`` (whose bucket semantics the dict path
    preserves) and mixed int/float pairs would go through lossy float
    conversion for 2^53+ ints.  Multi-column keys are fused into one int64
    code per row by successive factorization.
    """
    left_keys = [left_store.column(i) for i in left_pos]
    right_keys = [right_store.column(i) for i in right_pos]
    for a, b in zip(left_keys, right_keys):
        if a.dtype.kind not in "if" or b.dtype.kind not in "if" or a.dtype.kind != b.dtype.kind:
            return None
    if len(left_keys) == 1:
        return left_keys[0], right_keys[0]
    n_left = len(left_store)
    lkey = _np.zeros(n_left, dtype=_np.int64)
    rkey = _np.zeros(len(right_store), dtype=_np.int64)
    capacity = 1
    for a, b in zip(left_keys, right_keys):
        uniques, codes = _np.unique(_np.concatenate((a, b)), return_inverse=True)
        capacity *= max(len(uniques), 1)
        if capacity > 2**62:
            return None
        lkey = lkey * len(uniques) + codes[:n_left]
        rkey = rkey * len(uniques) + codes[n_left:]
    return lkey, rkey


def _vector_equi_join(
    left: Relation,
    right: Relation,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
    schema: Schema,
    residual: Optional[Predicate],
) -> Optional[Relation]:
    """Whole-column equi-join, or ``None`` when the inputs do not qualify.

    Sort-based matching over the key arrays: the right side is stably
    sorted once, each left key finds its matching run by binary search, and
    the output indices expand with ``repeat``/cumulative offsets.  Because
    the sort is stable and left rows emit in order, the output ordering is
    *exactly* that of :func:`hash_join` (left order outer, original right
    order within a key) — not just the same bag.
    """
    columnar = left.cached_store() is not None or right.cached_store() is not None
    if max(len(left), len(right)) < VECTOR_MIN_ROWS and not columnar:
        return None
    # A side with a cached store vectorizes for free; once one side is
    # columnar the other converts even when small (delta bags probing a
    # stored table).  Two row-backed sides must both be large enough to
    # amortize a single-use conversion, else the dict join wins.
    build_min = 0 if columnar else VECTOR_BUILD_MIN_ROWS
    left_store = left.vector_store(build_min)
    right_store = right.vector_store(build_min)
    if left_store is None or right_store is None:
        return None
    keys = _vector_join_keys(left_store, left_pos, right_store, right_pos)
    if keys is None:
        return None
    lkey, rkey = keys
    order = _np.argsort(rkey, kind="stable")
    sorted_rkey = rkey[order]
    starts = _np.searchsorted(sorted_rkey, lkey, side="left")
    ends = _np.searchsorted(sorted_rkey, lkey, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_idx = _np.repeat(_np.arange(len(lkey)), counts)
    if total:
        offsets = _np.cumsum(counts) - counts
        positions = _np.arange(total) - _np.repeat(offsets, counts) + _np.repeat(starts, counts)
        right_idx = order[positions]
    else:
        right_idx = _np.zeros(0, dtype=_np.int64)
    out = left_store.gather(left_idx).hstack(right_store.gather(right_idx))
    out = _residual_mask_store(out, schema, residual)
    return Relation.from_store(schema, out)


def hash_join_batch(
    left: Relation,
    right: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
) -> Relation:
    """Vectorized hash join producing the same bag as :func:`hash_join`.

    Qualifying joins (typed numeric keys, large or store-backed inputs) run as
    one whole-column sort/search/gather pass — see :func:`_vector_equi_join`.
    Otherwise build and probe run over column arrays: single-condition
    joins (the common case for foreign-key joins) key the hash table on the
    raw column value — no per-row key-tuple construction — and the probe
    emits matches through one flat list comprehension.  Without conditions
    the join is a cross product, paired by the same kind of comprehension.
    """
    schema = _output(left, right)
    if not conditions:
        out = [lrow + rrow for lrow in left.rows for rrow in right.rows]
        return Relation.from_trusted_rows(schema, _residual_filter(out, schema, residual))
    left_pos, right_pos = _join_positions(left.schema, right.schema, conditions)
    joined = _vector_equi_join(left, right, left_pos, right_pos, schema, residual)
    if joined is not None:
        return joined
    lrows = left.rows
    rrows = right.rows
    buckets: Dict[Any, List[Row]] = {}
    setdefault = buckets.setdefault
    get = buckets.get
    empty: Tuple[Row, ...] = ()
    if len(left_pos) == 1:
        li = left_pos[0]
        ri = right_pos[0]
        for rrow in rrows:
            setdefault(rrow[ri], []).append(rrow)
        out = [lrow + rrow for lrow in lrows for rrow in get(lrow[li], empty)]
    else:
        for rrow in rrows:
            setdefault(tuple(rrow[i] for i in right_pos), []).append(rrow)
        out = [
            lrow + rrow
            for lrow in lrows
            for rrow in get(tuple(lrow[i] for i in left_pos), empty)
        ]
    return Relation.from_trusted_rows(schema, _residual_filter(out, schema, residual))


# ------------------------------------------------------------- delta kernels
#
# Differential maintenance evaluates the *same* operator over the insert and
# delete bags of a differential (δ+ and δ−).  The join kernel runs both bags
# against one hash build over the non-delta join input, so the per-round cost
# is paid once instead of once per bag (and, via the caller-supplied
# ``build``, once per refresh round instead of once per view).  Selection and
# projection have no shared setup worth a kernel of their own: the
# differential engine applies :func:`select_batch` / :func:`project` per bag.

def hash_build(relation: Relation, positions: Sequence[int]) -> Dict[Any, List[Row]]:
    """Key → rows bucket table over ``positions`` (scalar key when single).

    The delta join kernels probe this table; callers that join several delta
    bags against the same input (or share one input across views, as the
    refresh engine's old-value cache does) build it once and pass it in.
    """
    buckets: Dict[Any, List[Row]] = {}
    setdefault = buckets.setdefault
    if len(positions) == 1 and relation.cached_store() is not None:
        # Key off the flat column array: for store-backed inputs the key
        # column decodes in one C-level pass instead of indexing into every
        # materialized row tuple.
        for key, row in zip(relation.column_at(positions[0]), relation.rows):
            setdefault(key, []).append(row)
    elif len(positions) == 1:
        i = positions[0]
        for row in relation.rows:
            setdefault(row[i], []).append(row)
    else:
        for row in relation.rows:
            setdefault(tuple(row[i] for i in positions), []).append(row)
    return buckets


class VectorProbeBuild:
    """Sorted-key probe table over a store-backed join input.

    The columnar analogue of :func:`hash_build`: the non-delta input's key
    column is stably argsorted once, and each delta bag finds its matching
    runs by binary search — no row materialization of the (large) stored
    side at all.  Shareable across both delta bags, across views, and
    across a whole refresh round exactly like the dict build.
    """

    __slots__ = ("store", "key", "order", "sorted_key", "positions")

    def __init__(self, store, key, positions) -> None:
        self.store = store
        self.key = key
        self.positions = tuple(positions)
        self.order = _np.argsort(key, kind="stable")
        self.sorted_key = key[self.order]


def vector_probe_build(
    relation: Relation, positions: Sequence[int]
) -> Optional[VectorProbeBuild]:
    """A :class:`VectorProbeBuild` over ``relation``, or ``None``.

    Requires an already-cached column store (the whole point is skipping row
    materialization), a single join column, and a typed numeric key —
    object keys carry ``None`` whose bucket semantics belong to the dict
    path.
    """
    store = relation.cached_store()
    if len(positions) != 1 or store is None:
        return None
    key = store.column(positions[0])
    if key.dtype.kind not in "if":
        return None
    return VectorProbeBuild(store, key, positions)


def _vector_delta_probe(
    bag: Relation,
    delta_pos: Sequence[int],
    vbuild: VectorProbeBuild,
    schema: Schema,
    residual: Optional[Predicate],
    delta_side: str,
) -> Optional[Relation]:
    """Join one delta bag against a :class:`VectorProbeBuild`, or ``None``.

    Output rows are delta-major (the bag's order outer, the stored input's
    original order within a key) with columns in left ++ right order per
    ``delta_side`` — exactly the dict probe's emission.
    """
    if len(bag) == 0:
        return Relation(schema, [])
    bag_store = bag.vector_store()
    dkey = bag_store.column(delta_pos[0])
    if dkey.dtype.kind != vbuild.key.dtype.kind:
        return None
    starts = _np.searchsorted(vbuild.sorted_key, dkey, side="left")
    ends = _np.searchsorted(vbuild.sorted_key, dkey, side="right")
    counts = ends - starts
    total = int(counts.sum())
    delta_idx = _np.repeat(_np.arange(len(dkey)), counts)
    if total:
        offsets = _np.cumsum(counts) - counts
        positions = _np.arange(total) - _np.repeat(offsets, counts) + _np.repeat(starts, counts)
        other_idx = vbuild.order[positions]
    else:
        other_idx = _np.zeros(0, dtype=_np.int64)
    if delta_side == "left":
        out = bag_store.gather(delta_idx).hstack(vbuild.store.gather(other_idx))
    else:
        out = vbuild.store.gather(other_idx).hstack(bag_store.gather(delta_idx))
    out = _residual_mask_store(out, schema, residual)
    return Relation.from_store(schema, out)


def delta_hash_join_batch(
    inserts: Relation,
    deletes: Relation,
    other: Relation,
    conditions: Sequence[Tuple[str, str]] = (),
    residual: Optional[Predicate] = None,
    delta_side: str = "left",
    build: Optional[object] = None,
) -> Tuple[Relation, Relation]:
    """δ-⋈: join both bags of a differential against one shared input.

    ``delta_side`` names which logical join operand the delta bags stand in
    for (``"left"`` or ``"right"``); output column order is always
    left ++ right, matching :func:`hash_join`.  The hash build always goes
    over ``other`` — the non-delta input — so it is constructed once per
    call regardless of which side the delta is on (plain ``hash_join`` would
    build over ``other`` twice for a left-side delta, and probe it twice
    for a right-side one).  A caller that already holds a build for
    ``other`` keyed on the join columns — a :func:`hash_build` dict or a
    :class:`VectorProbeBuild` — can pass it as ``build``.
    """
    delta_schema = inserts.schema
    if delta_side == "left":
        schema = delta_schema.concat(other.schema)
        delta_pos, other_pos = _join_positions(delta_schema, other.schema, conditions)
    else:
        schema = other.schema.concat(delta_schema)
        other_pos, delta_pos = _join_positions(other.schema, delta_schema, conditions)

    if not conditions:
        orows = other.rows

        def cross(bag: Relation) -> Relation:
            if delta_side == "left":
                rows = [drow + orow for drow in bag.rows for orow in orows]
            else:
                rows = [orow + drow for drow in bag.rows for orow in orows]
            return Relation.from_trusted_rows(schema, _residual_filter(rows, schema, residual))

        return cross(inserts), cross(deletes)

    vbuild: Optional[VectorProbeBuild] = None
    if isinstance(build, VectorProbeBuild):
        vbuild, build = build, None
    elif build is None and len(delta_pos) == 1:
        vbuild = vector_probe_build(other, other_pos)
    if vbuild is not None:
        vector_ins = _vector_delta_probe(
            inserts, delta_pos, vbuild, schema, residual, delta_side
        )
        vector_dels = _vector_delta_probe(
            deletes, delta_pos, vbuild, schema, residual, delta_side
        )
        if vector_ins is not None and vector_dels is not None:
            return vector_ins, vector_dels

    if build is None:
        build = hash_build(other, other_pos)
    get = build.get
    empty: Tuple[Row, ...] = ()
    single = len(delta_pos) == 1

    def probe(bag: Relation) -> Relation:
        brows = bag.rows
        if single:
            di = delta_pos[0]
            if delta_side == "left":
                rows = [drow + orow for drow in brows for orow in get(drow[di], empty)]
            else:
                rows = [orow + drow for drow in brows for orow in get(drow[di], empty)]
        else:
            if delta_side == "left":
                rows = [
                    drow + orow
                    for drow in brows
                    for orow in get(tuple(drow[i] for i in delta_pos), empty)
                ]
            else:
                rows = [
                    orow + drow
                    for drow in brows
                    for orow in get(tuple(drow[i] for i in delta_pos), empty)
                ]
        return Relation.from_trusted_rows(schema, _residual_filter(rows, schema, residual))

    return probe(inserts), probe(deletes)


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
