"""Sharding: partition base relations by key, merge per-shard results.

The parallel engine is data-parallel: every worker holds one horizontal
partition (*shard*) of the sharded base relations plus a full copy of every
other ("broadcast") relation, executes the same plan against its shard, and
the parent merges the per-shard results.  This module owns the three pieces
that make that correct:

* the partition function — a deterministic pure function of the key *value*
  (hash or range), so a base table and a later delta against it always agree
  on where a row lives, keeping co-partitioned joins shard-local;
* the eligibility analysis (:func:`plan_shards`) — which expressions
  distribute over a shard union, and where the merge boundary sits;
* the merge kernels — concatenation for shard-local join results, partial
  group-by re-aggregation for distributive aggregates, and aggregation-input
  merging for SUM/AVG (see below).

Why SUM/AVG merge at the aggregation *input*: the engine's float sums are
``math.fsum`` — correctly rounded and therefore order-independent, but *not*
reassociable: the fsum of per-shard fsums can differ from the fsum of the
whole bag in the last ulp.  Concatenating the pre-aggregate child rows and
aggregating once in the parent reproduces the serial engine's sums bit for
bit, which is what keeps every parallel result bag-identical to the serial
oracle.  COUNT/MIN/MAX partials merge exactly (integer sums, min of mins),
so those re-aggregate without shipping child rows.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
    walk,
)
from repro.catalog.schema import Schema
from repro.engine import operators
from repro.engine.database import Database
from repro.storage.columns import NumpyColumnStore, numpy as _np
from repro.storage.relation import Relation

__all__ = [
    "MERGE_AGGREGATE_INPUT",
    "MERGE_CONCAT",
    "MERGE_REAGGREGATE",
    "MERGE_SERIAL",
    "ShardPlan",
    "ShardSpec",
    "merge_concat",
    "merge_shards",
    "partition_relation",
    "plan_shards",
    "shard_database",
]

#: Merge strategies a :class:`ShardPlan` can carry.
MERGE_CONCAT = "concat"
MERGE_REAGGREGATE = "reaggregate"
MERGE_AGGREGATE_INPUT = "aggregate-input"
MERGE_SERIAL = "serial"

#: Aggregate functions whose partial states merge exactly: COUNT partials
#: sum (integers), MIN/MAX partials reduce by min/max.  SUM/AVG are excluded
#: on purpose — float fsum does not reassociate (module docstring).
_EXACT_PARTIAL_FUNCS = frozenset(
    {AggregateFunc.COUNT, AggregateFunc.MIN, AggregateFunc.MAX}
)


def _stable_hash(value: Any) -> int:
    """Process-independent hash (``hash()`` is salted per interpreter)."""
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def _normalized_key(value: Any) -> Any:
    """Collapse numerically equal keys (``1`` vs ``1.0``) to one shard."""
    if type(value) is float and value.is_integer():
        return int(value)
    return value


@dataclass(frozen=True)
class ShardSpec:
    """How base relations are partitioned across workers.

    ``keys`` maps each *sharded* relation to its partition-key column; every
    relation not named here is broadcast (each worker keeps the full copy —
    the small build sides of the workload's joins).  Two relations whose key
    columns are joined by an equi-join are co-partitioned: the same key value
    lands in the same shard on both sides, so the join is shard-local.

    ``mode`` is ``"hash"`` (default) or ``"range"``; range partitioning
    splits the numeric key domain at ``bounds`` (``workers - 1`` ascending
    split points, shared by every sharded relation so co-partitioning is
    preserved).
    """

    keys: Tuple[Tuple[str, str], ...]
    workers: int = 1
    mode: str = "hash"
    bounds: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in ("hash", "range"):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.mode == "range" and len(self.bounds) != self.workers - 1:
            raise ValueError(
                f"range mode needs workers-1={self.workers - 1} bounds, "
                f"got {len(self.bounds)}"
            )

    @property
    def key_map(self) -> Dict[str, str]:
        """``relation → partition-key column`` as a plain mapping."""
        return dict(self.keys)

    @classmethod
    def for_database(cls, database: Database, workers: int, mode: str = "hash") -> "ShardSpec":
        """The default spec for a loaded database.

        TPC-D databases co-partition ``lineitem`` and ``orders`` on the order
        key (their join is the workload's only sharded-sharded join); any
        other schema shards its largest table on that table's first column —
        with a single sharded relation every distributable plan is correct
        regardless of which column partitions it.
        """
        tables = database.table_names()
        keys: Tuple[Tuple[str, str], ...] = ()
        if "lineitem" in tables:
            keys = (("lineitem", "l_orderkey"),)
            if "orders" in tables:
                keys += (("orders", "o_orderkey"),)
        elif tables:
            largest = max(tables, key=lambda name: len(database.table(name)))
            schema = database.table(largest).schema
            if len(schema):
                keys = ((largest, schema.names[0]),)
        bounds: Tuple[float, ...] = ()
        if mode == "range" and keys:
            anchor, key_column = max(
                ((name, column) for name, column in keys),
                key=lambda item: len(database.table(item[0])),
            )
            bounds = _quantile_bounds(database.table(anchor), key_column, workers)
        return cls(keys, workers=workers, mode=mode, bounds=bounds)

    # ------------------------------------------------------------ assignment

    def shard_of(self, value: Any) -> int:
        """The shard a key value belongs to — pure function of the value."""
        if value is None:
            return 0
        if self.mode == "range":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return bisect_right(self.bounds, value)
            return _stable_hash(value) % self.workers
        value = _normalized_key(value)
        if type(value) is int:
            return value % self.workers
        return _stable_hash(value) % self.workers

    def shard_ids(self, relation: Relation, key_column: str) -> Any:
        """Per-row shard assignment (an ``int64`` array for typed int keys)."""
        position = _key_position(relation.schema, key_column)
        store = relation.cached_store()
        if store is not None and store.column(position).dtype.kind == "i":
            column = store.column(position)
            if self.mode == "range":
                return _np.searchsorted(
                    _np.asarray(self.bounds, dtype=_np.float64), column, side="right"
                )
            return column % self.workers
        values = (
            store.column_native(position)
            if store is not None
            else relation.column_at(position)
        )
        return [self.shard_of(v) for v in values]


def _quantile_bounds(relation: Relation, key_column: str, workers: int) -> Tuple[float, ...]:
    """Equi-depth split points of a relation's key column (range mode)."""
    position = _key_position(relation.schema, key_column)
    values = sorted(
        float(v)
        for v in relation.column_at(position)
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )
    if not values:
        return tuple(float(i) for i in range(1, workers))
    return tuple(
        values[min(len(values) - 1, (i * len(values)) // workers)]
        for i in range(1, workers)
    )


def _key_position(schema: Schema, key_column: str) -> int:
    try:
        return schema.index_of(key_column)
    except Exception:
        suffix = key_column.rsplit(".", 1)[-1]
        for i, name in enumerate(schema.names):
            if name.rsplit(".", 1)[-1] == suffix:
                return i
        raise


# ---------------------------------------------------------------- partitioning

def partition_relation(
    relation: Relation, key_column: str, spec: ShardSpec
) -> List[Relation]:
    """Split a relation into ``spec.workers`` shards by key column.

    Store-backed relations partition through the columnar kernels
    (:meth:`NumpyColumnStore.partition`), so shards stay columnar end-to-end;
    every row lands in exactly one shard and the union of all shards is the
    input bag.
    """
    ids = spec.shard_ids(relation, key_column)
    store = relation.cached_store()
    if store is not None:
        return [
            Relation.from_store(relation.schema, part, relation.name)
            for part in store.partition(ids, spec.workers)
        ]
    buckets: List[List[Any]] = [[] for _ in range(spec.workers)]
    for row, shard in zip(relation.rows, ids):
        buckets[shard].append(row)
    return [
        Relation.from_trusted_rows(relation.schema, bucket, relation.name)
        for bucket in buckets
    ]


def shard_of_relation(
    relation: Relation, key_column: str, spec: ShardSpec, shard: int
) -> Relation:
    """One shard of a relation (what a single worker keeps)."""
    ids = spec.shard_ids(relation, key_column)
    store = relation.cached_store()
    if store is not None:
        keep = _np.asarray(ids, dtype=_np.int64) == shard
        return Relation.from_store(relation.schema, store.mask(keep), relation.name)
    rows = [row for row, i in zip(relation.rows, ids) if i == shard]
    return Relation.from_trusted_rows(relation.schema, rows, relation.name)


def shard_database(database: Database, spec: ShardSpec, shard: int) -> Database:
    """The database one worker executes against.

    Sharded relations are restricted to this worker's partition; broadcast
    relations are shared as-is (relations are immutable — updates replace
    entries in the worker's own table map).  The catalog is copied so worker-
    side statistics refreshes never write into the parent's catalog (the
    inline executor runs workers in-process).  Views and indexes are *not*
    carried: shard-local derived state is recomputed where needed, which is
    cheaper than shipping or splitting it (Litwin's stored/inherited
    relations argument).
    """
    shard_db = Database(database.catalog.copy())
    key_map = spec.key_map
    for name in database.table_names():
        relation = database.table(name)
        if name in key_map:
            relation = shard_of_relation(relation, key_map[name], spec, shard)
        # Private-map assignment on purpose: create_table/load_table would
        # re-measure statistics per table per worker; planning can keep the
        # full-table statistics of the copied catalog.
        shard_db._tables[name] = relation
    return shard_db


# ------------------------------------------------------------------ eligibility

@dataclass(frozen=True)
class ShardPlan:
    """How (and whether) one expression runs across shards.

    ``shard_expression`` is what every worker executes against its shard
    database — the full expression for ``concat``/``reaggregate`` merges,
    the aggregate's child for ``aggregate-input`` (the parent runs the final
    aggregate over the merged child rows), ``None`` when the plan is
    ``serial`` (``reasons`` says why the expression does not distribute).
    """

    expression: Expression
    shard_expression: Optional[Expression]
    sharded: Tuple[str, ...]
    merge: str
    aggregate: Optional[Aggregate] = None
    reasons: Tuple[str, ...] = ()

    @property
    def parallel(self) -> bool:
        """Whether the expression runs across shards at all."""
        return self.merge != MERGE_SERIAL


def plan_shards(expression: Expression, spec: ShardSpec) -> ShardPlan:
    """Decide whether ``expression`` distributes over the shard union.

    An expression is shard-parallelizable when its body (below an optional
    top-level aggregate) is select/project/join over base relations — the
    operators that are linear in each input — and each sharded relation
    appears at most once, with any two sharded relations connected through
    equi-joins on their partition keys (co-partitioning).  Everything else
    (set operations, distinct, nested aggregates, repeated sharded
    relations) falls back to the serial engine, which stays the oracle.
    """
    key_map = spec.key_map
    reasons: List[str] = []
    aggregate = expression if isinstance(expression, Aggregate) else None
    body = aggregate.child if aggregate is not None else expression

    for node in walk(body):
        if isinstance(node, (BaseRelation, Select, Project, Join)):
            continue
        if isinstance(node, Aggregate):
            reasons.append("aggregate below the merge boundary")
        else:
            reasons.append(
                f"{type(node).__name__} does not distribute over a shard union"
            )
    counts = Counter(
        node.name
        for node in walk(body)
        if isinstance(node, BaseRelation) and node.name in key_map
    )
    repeated = sorted(name for name, count in counts.items() if count > 1)
    if repeated:
        reasons.append(
            f"sharded relation(s) {', '.join(repeated)} appear more than once"
        )
    sharded = tuple(sorted(counts))
    if not sharded and not reasons:
        reasons.append("no sharded relation in the expression")
    if len(sharded) > 1 and not reasons and not _co_partitioned(body, sharded, key_map):
        reasons.append("sharded relations are not joined on their partition keys")
    if reasons:
        unique = tuple(dict.fromkeys(reasons))
        return ShardPlan(expression, None, sharded, MERGE_SERIAL, aggregate, unique)
    if aggregate is None:
        return ShardPlan(expression, expression, sharded, MERGE_CONCAT)
    funcs = {agg.func for agg in aggregate.aggregates}
    if funcs <= _EXACT_PARTIAL_FUNCS:
        return ShardPlan(expression, expression, sharded, MERGE_REAGGREGATE, aggregate)
    return ShardPlan(
        expression, aggregate.child, sharded, MERGE_AGGREGATE_INPUT, aggregate
    )


def _co_partitioned(
    body: Expression, sharded: Sequence[str], key_map: Mapping[str, str]
) -> bool:
    """Whether all sharded relations connect through partition-key joins."""
    owner: Dict[str, Optional[str]] = {}
    for name in sharded:
        suffix = key_map[name].rsplit(".", 1)[-1]
        owner[suffix] = name if suffix not in owner else None  # ambiguous → None
    parent = {name: name for name in sharded}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for node in walk(body):
        if not isinstance(node, Join):
            continue
        for a, b in node.conditions:
            left = owner.get(a.rsplit(".", 1)[-1])
            right = owner.get(b.rsplit(".", 1)[-1])
            if left and right and left != right:
                parent[find(left)] = find(right)
    roots = {find(name) for name in sharded}
    return len(roots) == 1


# ----------------------------------------------------------------- merge kernels

def merge_concat(parts: Sequence[Relation]) -> Relation:
    """Bag union of per-shard results (shard-local join/select/project).

    Store-backed parts merge through the columnar ``concat_many`` kernel;
    anything else falls back to row concatenation.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_concat needs at least one part")
    if len(parts) == 1:
        return parts[0]
    schema = parts[0].schema
    stores = [part.cached_store() for part in parts]
    if all(store is not None for store in stores):
        return Relation.from_store(schema, NumpyColumnStore.concat_many(stores))
    rows = [row for part in parts for row in part.rows]
    return Relation.from_trusted_rows(schema, rows)


def _merge_reaggregate(parts: Sequence[Relation], aggregate: Aggregate) -> Relation:
    """Re-aggregate partial group-by states (COUNT/MIN/MAX partials).

    Groups a shard never saw are simply absent from its partial state, so
    the merged group set is the union and vanished groups never resurface;
    COUNT partials merge by integer summation, MIN/MAX by min/max over the
    non-NULL partials — all exact, hence bag-identical to the serial engine.
    """
    merged = merge_concat(parts)
    schema = parts[0].schema
    group_names = list(schema.names[: len(aggregate.group_by)])
    specs = [
        AggregateSpec(
            AggregateFunc.SUM if agg.func is AggregateFunc.COUNT else agg.func,
            agg.alias,
            agg.alias,
        )
        for agg in aggregate.aggregates
    ]
    result = operators.aggregate_batch(merged, group_names, specs)
    # Re-wrap with the partial (= serial output) schema: the COUNT→SUM
    # rewrite must not retype the count column.
    store = result.cached_store()
    if store is not None:
        return Relation.from_store(schema, store)
    return Relation.from_trusted_rows(schema, result.rows)


def _merge_aggregate_input(parts: Sequence[Relation], aggregate: Aggregate) -> Relation:
    """Merge at the aggregation input: concat child rows, aggregate once.

    This is the SUM/AVG merge boundary — ``math.fsum`` is order-independent
    but not reassociable, so the parent aggregates the full merged child bag
    exactly as the serial engine would (module docstring).
    """
    merged = merge_concat(parts)
    return operators.aggregate_batch(
        merged, list(aggregate.group_by), list(aggregate.aggregates)
    )


def merge_shards(plan: ShardPlan, parts: Sequence[Relation]) -> Relation:
    """Merge per-shard results according to the plan's merge strategy."""
    if plan.merge == MERGE_CONCAT:
        return merge_concat(parts)
    if plan.merge == MERGE_REAGGREGATE:
        assert plan.aggregate is not None
        return _merge_reaggregate(parts, plan.aggregate)
    if plan.merge == MERGE_AGGREGATE_INPUT:
        assert plan.aggregate is not None
        return _merge_aggregate_input(parts, plan.aggregate)
    raise ValueError(f"plan is not parallel (merge={plan.merge!r}): {plan.reasons}")
