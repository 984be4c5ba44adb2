"""Table and column statistics, and selectivity estimation.

The optimizer's cardinality estimates follow the classic System-R style
assumptions the paper's prototype (built on a Volcano-style optimizer) uses:

* uniform value distributions within a column,
* independence between predicates,
* containment of value sets for equi-joins (``|R ⋈ S| = |R|·|S| / max(V(R,a),
  V(S,b))``).

Statistics can be *measured* from an actual :class:`~repro.storage.Relation`
or *declared* (for the benchmark harness, which mirrors the paper's TPC-D
scale-0.1 cardinalities without generating 100 MB of data).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.schema import Schema
from repro.storage.columns import numpy as _np
from repro.storage.relation import VECTOR_MIN_ROWS

#: Default selectivity used when a predicate cannot be estimated from stats.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: Measurement parameters for :meth:`TableStats.from_relation`: relations
#: larger than the sample size are measured from a reservoir sample instead
#: of a full per-column scan.
DEFAULT_SAMPLE_SIZE = 4096
DEFAULT_HISTOGRAM_BUCKETS = 32
_MEASUREMENT_SEED = 8191

#: Exact numeric types (bool, although an int subclass, is not a measurement).
_NUMERIC_TYPES = {int, float}


@dataclass(frozen=True)
class Histogram:
    """An equi-depth histogram over a numeric column.

    ``bounds`` has one more entry than ``counts``: bucket ``i`` covers the
    value range ``[bounds[i], bounds[i+1]]`` and holds ``counts[i]`` rows.
    Buckets with ``bounds[i] == bounds[i+1]`` are *spike* buckets — a single
    heavy value that filled a whole equi-depth bucket on its own — and are
    treated exactly during estimation.  Counts are floats so histograms
    built from samples can be scaled to the population size, and so delta
    maintenance can subtract fractional scaled rows.
    """

    bounds: Tuple[float, ...]
    counts: Tuple[float, ...]

    @property
    def total(self) -> float:
        """Total row count the histogram currently accounts for."""
        return sum(self.counts)

    @property
    def min_value(self) -> float:
        """Lowest value covered."""
        return self.bounds[0]

    @property
    def max_value(self) -> float:
        """Highest value covered."""
        return self.bounds[-1]

    @staticmethod
    def from_values(
        values: Sequence[float],
        buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        scale: float = 1.0,
    ) -> Optional["Histogram"]:
        """Build an equi-depth histogram from (possibly sampled) values.

        ``scale`` inflates the per-bucket counts so the histogram totals the
        population size when ``values`` is only a sample of it.  Returns
        ``None`` for an empty value list.
        """
        if isinstance(values, _np.ndarray):
            ordered = _np.sort(values)
        else:
            ordered = sorted(values)
        n = len(ordered)
        if n == 0:
            return None
        buckets = max(1, min(buckets, n))
        bounds: List[float] = [float(ordered[0])]
        counts: List[float] = []
        for i in range(buckets):
            lo = (i * n) // buckets
            hi = ((i + 1) * n) // buckets
            if hi <= lo:
                continue
            counts.append((hi - lo) * scale)
            bounds.append(float(ordered[hi - 1]))
        return Histogram(tuple(bounds), tuple(counts))

    def scaled(self, factor: float) -> "Histogram":
        """Scale every bucket count by ``factor``."""
        return Histogram(self.bounds, tuple(c * factor for c in self.counts))

    def _bucket_of(self, value: float) -> int:
        """Index of the bucket whose range contains ``value`` (clamped)."""
        i = bisect_left(self.bounds, value, lo=1) - 1
        return min(max(i, 0), len(self.counts) - 1)

    def shifted(self, values: Sequence[float], sign: int) -> "Histogram":
        """Fold a bag of inserted (+1) or deleted (−1) values into the counts.

        Inserted values outside the covered range widen the edge buckets;
        counts never go negative (a delete of a value the histogram no
        longer accounts for is dropped).  One sort of the delta values plus
        one bisect per bucket — O(|delta| log |delta| + buckets), never a
        per-value Python loop, so stats maintenance stays cheap on the
        refresh hot path.  A numpy array of values takes the fully
        vectorized route: ``np.sort`` plus a single ``np.searchsorted``
        over all bucket bounds.
        """
        if isinstance(values, _np.ndarray):
            ordered = _np.sort(values.astype(_np.float64, copy=False))
            positions = _np.searchsorted(
                ordered, _np.asarray(self.bounds[1:], dtype=_np.float64), side="right"
            )
        else:
            ordered = sorted(values)
            positions = None
        n = len(ordered)
        if n == 0:
            return self
        bounds = list(self.bounds)
        if sign > 0:
            if ordered[0] < bounds[0]:
                bounds[0] = float(ordered[0])
            if ordered[-1] > bounds[-1]:
                bounds[-1] = float(ordered[-1])
        counts = list(self.counts)
        last = len(counts) - 1
        prev = 0
        for i in range(len(counts)):
            # Bucket i absorbs values up to (and including) its upper bound,
            # matching _bucket_of; the last bucket takes everything beyond.
            if i == last:
                pos = n
            elif positions is not None:
                pos = int(positions[i])
            else:
                pos = bisect_right(ordered, self.bounds[i + 1], prev)
            if pos > prev:
                counts[i] = max(0.0, counts[i] + sign * (pos - prev))
            prev = pos
        return Histogram(tuple(bounds), tuple(counts))

    def fraction_at_most(self, value: float, inclusive: bool = True) -> float:
        """Estimated fraction of rows with ``column <= value`` (or ``<``).

        Exact 0/1 outside the covered range; linear interpolation inside a
        bucket (the continuous-distribution assumption); spike buckets are
        counted exactly, which is where ``inclusive`` matters.
        """
        total = self.total
        if total <= 0:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            if inclusive or value > self.bounds[-1]:
                return 1.0
        below = 0.0
        at = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if hi < value:
                below += count
            elif lo == hi:
                if hi == value:
                    at += count
            elif value >= hi:
                below += count
            elif value > lo:
                below += count * (value - lo) / (hi - lo)
        mass = below + (at if inclusive else 0.0)
        return min(1.0, max(0.0, mass / total))

    def equal_fraction(self, value: float, distinct: Optional[float] = None) -> float:
        """Estimated fraction of rows with ``column == value``.

        Spike buckets answer exactly; otherwise the containing bucket's mass
        is spread over its share of the column's distinct values.
        """
        total = self.total
        if total <= 0:
            return 0.0
        if value < self.bounds[0] or value > self.bounds[-1]:
            return 0.0
        spike = 0.0
        container: Optional[float] = None
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if lo == hi:
                if lo == value:
                    spike += count
            elif lo <= value <= hi and container is None:
                container = count
        if spike > 0:
            return min(1.0, spike / total)
        if container is None:
            return 0.0
        populated = max(1, sum(1 for c in self.counts if c > 0))
        per_bucket_distinct = max(1.0, (distinct or float(populated)) / populated)
        return min(1.0, (container / total) / per_bucket_distinct)


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for a single column.

    Parameters
    ----------
    distinct:
        Estimated number of distinct values.
    min_value / max_value:
        Numeric bounds when known; ``None`` for non-numeric columns.
    null_fraction:
        Fraction of NULLs (we keep it for completeness; TPC-D data has none).
    histogram:
        Optional equi-depth :class:`Histogram` of the value distribution,
        used by the estimator for interpolated range/equality selectivities.
    sampled:
        Whether these statistics were measured from a sample rather than a
        full scan.  Sampled min/max bounds underestimate the true range, so
        estimates must not treat values outside them as matching exactly
        zero rows.
    """

    distinct: float = 1.0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    null_fraction: float = 0.0
    histogram: Optional[Histogram] = None
    sampled: bool = False

    def scaled(self, factor: float) -> "ColumnStats":
        """Scale the distinct count (used when scaling table cardinalities)."""
        distinct = max(1.0, self.distinct * factor)
        if self.histogram is None:
            return self._with_distinct(distinct)
        return ColumnStats(
            distinct,
            self.min_value,
            self.max_value,
            self.null_fraction,
            self.histogram.scaled(factor),
            self.sampled,
        )

    def _with_distinct(self, distinct: float) -> "ColumnStats":
        """These statistics with another distinct count.

        ``self`` when ``distinct`` is the very object already held, whose copy
        would equal it field for field (the common clamp that changes nothing).
        """
        if distinct is self.distinct:
            return self
        return ColumnStats(
            distinct, self.min_value, self.max_value, self.null_fraction, self.histogram, self.sampled
        )


@dataclass(frozen=True)
class TableStats:
    """Statistics for a table or intermediate result.

    Parameters
    ----------
    cardinality:
        Estimated number of tuples.
    tuple_width:
        Width of one tuple in bytes.
    column_stats:
        Per-column statistics keyed by (possibly qualified) column name.
    """

    cardinality: float
    tuple_width: int
    column_stats: Mapping[str, ColumnStats] = field(default_factory=dict)

    @property
    def size_bytes(self) -> float:
        """Estimated size of the result in bytes."""
        return max(0.0, self.cardinality) * self.tuple_width

    def distinct(self, column: str, default: Optional[float] = None) -> float:
        """Distinct count for ``column`` with graceful fallbacks.

        If the column has no recorded statistics, the cardinality itself is
        used for key-like columns; callers can pass ``default`` to override.
        """
        stats = _lookup(self.column_stats, column)
        if stats is not None:
            return max(1.0, min(stats.distinct, max(self.cardinality, 1.0)))
        if default is not None:
            return max(1.0, default)
        return max(1.0, self.cardinality * DEFAULT_EQUALITY_SELECTIVITY)

    def column(self, column: str) -> Optional[ColumnStats]:
        """Return the :class:`ColumnStats` for ``column`` if recorded."""
        return _lookup(self.column_stats, column)

    def with_cardinality(self, cardinality: float) -> "TableStats":
        """Return a copy with a new cardinality, clamping distinct counts."""
        bound = max(cardinality, 1.0)
        new_cols = {
            name: cs._with_distinct(max(1.0, min(cs.distinct, bound)))
            for name, cs in self.column_stats.items()
        }
        return TableStats(max(0.0, cardinality), self.tuple_width, new_cols)

    def scaled(self, factor: float) -> "TableStats":
        """Scale cardinality (and distinct counts) by ``factor``."""
        return self.with_cardinality(self.cardinality * factor)

    def updated_by_delta(self, delta, sign: int) -> "TableStats":
        """Fold one insert (+1) or delete (−1) bag into these statistics.

        ``delta`` is any relation-like object exposing ``schema`` and
        iteration over tuples.  The cardinality moves by the bag size,
        histogram bucket counts shift with the delta values, and inserts
        widen min/max bounds; distinct counts are clamped against the new
        cardinality (they are not otherwise re-estimated — the classic
        ANALYZE trade-off that keeps stats maintenance O(|delta|)).
        """
        count = float(len(delta))
        if count == 0:
            return self
        card = max(0.0, self.cardinality + sign * count)
        column_at = getattr(delta, "column_at", None)
        rows = None if column_at is not None else list(delta)
        store = _vector_store_of(delta)
        new_cols = dict(self.column_stats)
        for idx, column in enumerate(delta.schema.columns):
            found = _lookup_item(self.column_stats, column.name)
            if found is None:
                continue
            name, cs = found
            if cs.histogram is None and cs.min_value is None:
                # Non-numeric column: nothing distributional to maintain.
                continue
            values = None
            if store is not None and store.column(idx).dtype.kind in "if":
                # int64/float64 columns cannot hold None or bool by
                # construction (mixed columns fall back to object dtype),
                # so the per-value type filter is a no-op — feed the array
                # straight into the vectorized histogram shift.
                values = store.column(idx)
            if values is None:
                raw = column_at(idx) if column_at is not None else [row[idx] for row in rows]
                values = [v for v in raw if type(v) in _NUMERIC_TYPES]
            histogram = cs.histogram
            if len(values) and histogram is not None:
                histogram = histogram.shifted(values, sign)
            min_v, max_v = cs.min_value, cs.max_value
            if sign > 0 and len(values):
                if isinstance(values, _np.ndarray):
                    lo, hi = float(values.min()), float(values.max())
                else:
                    lo, hi = float(min(values)), float(max(values))
                min_v = lo if min_v is None else min(min_v, lo)
                max_v = hi if max_v is None else max(max_v, hi)
            # Distinct counts are deliberately left sticky: a transient
            # cardinality dip mid-merge (aggregate deltas delete every
            # affected group before reinserting it) must not collapse them;
            # the caller's final with_cardinality clamp applies the true
            # post-merge bound.
            new_cols[name] = ColumnStats(
                cs.distinct, min_v, max_v, cs.null_fraction, histogram, cs.sampled
            )
        return TableStats(card, self.tuple_width, new_cols)

    @staticmethod
    def from_relation(
        relation,
        schema: Optional[Schema] = None,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        seed: int = _MEASUREMENT_SEED,
    ) -> "TableStats":
        """Measure statistics from an in-memory relation.

        ``relation`` is any object exposing ``schema`` and iteration over
        tuples (duck-typed to avoid a circular import with ``repro.storage``).

        Relations up to ``sample_size`` tuples are measured exactly.  Larger
        ones are measured from a reservoir sample (one pass over the rows,
        per-column work bounded by the sample): distinct counts use the GEE
        sample estimator, min/max and the equi-depth histogram come from the
        sample with bucket counts scaled to the full cardinality.
        """
        sampler = getattr(relation, "sample", None)
        sampled = False
        rows: Optional[list] = None
        column_at = getattr(relation, "column_at", None)
        if sampler is not None and len(relation) > sample_size:
            rows = sampler(sample_size, seed=seed)
            card = float(len(relation))
            observed = float(len(rows))
            sampled = True
        else:
            if column_at is None:
                rows = list(relation)
            card = float(len(relation) if rows is None else len(rows))
            observed = card
        schema = schema or relation.schema
        store = None if rows is not None else _vector_store_of(relation)
        col_stats: Dict[str, ColumnStats] = {}
        for idx, col in enumerate(schema.columns):
            array = None
            if store is not None:
                column = store.column(idx)
                if column.dtype.kind in "if":
                    array = column
            if array is not None:
                # Numeric-dtype store column: by construction it holds no
                # None and no bool, so the exact row-path filters are
                # no-ops and every value is a numeric measurement.
                null_fraction = (1.0 - len(array) / observed) if observed else 0.0
                population = card * (1.0 - null_fraction)
                distinct = float(len(_np.unique(array))) if len(array) else 1.0
                histogram = None
                min_v = max_v = None
                if len(array):
                    min_v, max_v = float(array.min()), float(array.max())
                    histogram = Histogram.from_values(
                        array, buckets=histogram_buckets, scale=1.0
                    )
                col_stats[col.name] = ColumnStats(
                    distinct=distinct,
                    min_value=min_v,
                    max_value=max_v,
                    null_fraction=null_fraction,
                    histogram=histogram,
                    sampled=sampled,
                )
                continue
            if rows is None:
                # Exact measurement straight off the column store: no row
                # materialization for store-backed relations.
                values = [v for v in column_at(idx) if v is not None]
            else:
                values = [row[idx] for row in rows if row[idx] is not None]
            null_fraction = (1.0 - len(values) / observed) if observed else 0.0
            population = card * (1.0 - null_fraction)
            if not sampled:
                distinct = float(len(set(values))) if values else 1.0
            else:
                distinct = _gee_distinct(values, population)
            numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
            histogram = None
            if numeric:
                scale = population / len(values) if values else 1.0
                histogram = Histogram.from_values(
                    numeric, buckets=histogram_buckets, scale=max(scale, 0.0)
                )
            col_stats[col.name] = ColumnStats(
                distinct=distinct,
                min_value=float(min(numeric)) if numeric else None,
                max_value=float(max(numeric)) if numeric else None,
                null_fraction=null_fraction,
                histogram=histogram,
                sampled=sampled,
            )
        return TableStats(card, schema.tuple_width, col_stats)


def _vector_store_of(delta):
    """The delta's column store when one is (or is worth) building.

    Duck-typed like the rest of the stats measurement path: any relation
    that does not expose ``vector_store`` simply stays on the row route.
    """
    vector_store = getattr(delta, "vector_store", None)
    if vector_store is None:
        return None
    return vector_store(VECTOR_MIN_ROWS)


def _gee_distinct(values: Sequence, population: float) -> float:
    """GEE distinct-count estimate from a uniform sample.

    ``D̂ = sqrt(n/k)·f₁ + (d − f₁)`` where ``f₁`` is the number of values
    seen exactly once in a sample of ``k`` out of ``n`` rows and ``d`` the
    sample's distinct count (Charikar et al.); clamped to ``[d, n]``.
    """
    if not values:
        return 1.0
    seen: Dict[object, int] = {}
    for v in values:
        seen[v] = seen.get(v, 0) + 1
    d = float(len(seen))
    f1 = float(sum(1 for c in seen.values() if c == 1))
    k = float(len(values))
    n = max(population, k)
    estimate = math.sqrt(n / k) * f1 + (d - f1)
    return max(1.0, min(max(d, estimate), n))


def _lookup_item(
    stats: Mapping[str, ColumnStats], column: str
) -> Optional[Tuple[str, ColumnStats]]:
    """Resolve a column name in a stats mapping to its ``(key, stats)`` entry.

    An exact (qualified) match always wins.  Unqualified suffix matches fall
    back to deterministic resolution: when several qualified names share the
    suffix, the lexicographically smallest qualified name is chosen rather
    than silently dropping to the magic-constant fallback.
    """
    if column in stats:
        return column, stats[column]
    suffix = column.rsplit(".", 1)[-1]
    matches = [(name, cs) for name, cs in stats.items() if name.rsplit(".", 1)[-1] == suffix]
    if not matches:
        return None
    return min(matches, key=lambda item: item[0])


def _lookup(stats: Mapping[str, ColumnStats], column: str) -> Optional[ColumnStats]:
    """Resolve a column name in a stats mapping, allowing suffix matches."""
    found = _lookup_item(stats, column)
    return found[1] if found is not None else None


def merge_column_stats(*mappings: Mapping[str, ColumnStats]) -> Dict[str, ColumnStats]:
    """Merge several column-stats mappings (later ones win on conflicts)."""
    merged: Dict[str, ColumnStats] = {}
    for mapping in mappings:
        merged.update(mapping)
    return merged


def estimate_selectivity(
    op: str,
    stats: TableStats,
    column: str,
    value: Optional[float] = None,
) -> float:
    """Estimate the selectivity of a simple predicate ``column op value``.

    ``op`` is one of ``==, !=, <, <=, >, >=``.  Uses distinct counts for
    equality and min/max interpolation for ranges, falling back to the
    classic System-R magic constants when statistics are missing.
    """
    col = stats.column(column)
    if op == "==":
        if col is not None:
            return 1.0 / max(1.0, col.distinct)
        return DEFAULT_EQUALITY_SELECTIVITY
    if op == "!=":
        if col is not None:
            return 1.0 - 1.0 / max(1.0, col.distinct)
        return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
    if op in ("<", "<=", ">", ">="):
        if (
            col is not None
            and col.min_value is not None
            and col.max_value is not None
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            v = float(value)
            # Values strictly outside [min, max] have exact selectivity 0 or
            # 1 — clamping them to 1/cardinality would invent matching rows.
            # Bounds measured from a sample underestimate the true range,
            # so the zero side keeps the 1/cardinality floor there.
            floor = 1.0 / max(stats.cardinality, 1.0) if col.sampled else 0.0
            if v < col.min_value:
                return floor if op in ("<", "<=") else 1.0 - floor
            if v > col.max_value:
                return 1.0 - floor if op in ("<", "<=") else floor
            if col.max_value > col.min_value:
                frac = (v - col.min_value) / (col.max_value - col.min_value)
                frac = min(1.0, max(0.0, frac))
                if op in (">", ">="):
                    frac = 1.0 - frac
                return min(1.0, max(1.0 / max(stats.cardinality, 1.0), frac))
            # Degenerate single-point column: v == min == max.
            return 1.0 if op in ("<=", ">=") else 0.0
        return DEFAULT_RANGE_SELECTIVITY
    raise ValueError(f"unknown predicate operator {op!r}")


def join_selectivity(
    left: TableStats, right: TableStats, left_col: str, right_col: str
) -> float:
    """Equi-join selectivity ``1 / max(V(L,a), V(R,b))`` (containment)."""
    v_left = left.distinct(left_col, default=left.cardinality)
    v_right = right.distinct(right_col, default=right.cardinality)
    return 1.0 / max(1.0, v_left, v_right)


def estimate_join_cardinality(
    left: TableStats,
    right: TableStats,
    join_columns: Sequence[tuple],
) -> float:
    """Cardinality of an equi-join over ``join_columns`` pairs.

    Each element of ``join_columns`` is a ``(left_column, right_column)``
    pair; selectivities of independent join predicates multiply.
    """
    cardinality = left.cardinality * right.cardinality
    for left_col, right_col in join_columns:
        cardinality *= join_selectivity(left, right, left_col, right_col)
    return max(0.0, cardinality)


def estimate_group_count(stats: TableStats, group_columns: Sequence[str]) -> float:
    """Estimated number of groups of a group-by over ``group_columns``.

    Product of distinct counts, capped by the input cardinality (the standard
    Volcano/System-R estimate).
    """
    if not group_columns:
        return 1.0 if stats.cardinality > 0 else 0.0
    product = 1.0
    for col in group_columns:
        product *= stats.distinct(col)
    return max(1.0, min(product, max(stats.cardinality, 1.0)))


def union_cardinality(parts: Iterable[TableStats]) -> float:
    """Cardinality of a multiset union (duplicates preserved): plain sum."""
    return sum(p.cardinality for p in parts)


def difference_cardinality(left: TableStats, right: TableStats) -> float:
    """Cardinality of a multiset difference; never negative."""
    return max(0.0, left.cardinality - min(left.cardinality, right.cardinality))


def distinct_cardinality(stats: TableStats, columns: Sequence[str]) -> float:
    """Cardinality of duplicate elimination over ``columns``."""
    return estimate_group_count(stats, list(columns))


def blocks(size_bytes: float, block_size: int) -> float:
    """Number of blocks needed to hold ``size_bytes`` bytes."""
    if size_bytes <= 0:
        return 0.0
    return math.ceil(size_bytes / block_size)
