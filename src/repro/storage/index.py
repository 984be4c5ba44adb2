"""In-memory indexes.

Two access methods back the optimizer's index choices: a hash index (equality
lookups) and a sorted index (equality + range lookups, and a sort order the
optimizer can exploit as a physical property).  Indexes are built over a
:class:`~repro.storage.relation.Relation` and return row positions, so the
same index structure serves both base tables and materialized views.

Both read their keys only through :meth:`Relation.key_columns` and answer
probes through :meth:`Relation.rows_at`, so building, maintaining or probing
an index never materializes the other representation of the relation it
covers (lint ``REPRO-L011``).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.storage.columns import common_dtype
from repro.storage.columns import numpy as _np
from repro.storage.relation import Relation, Row

Key = Tuple[Any, ...]


def _key_tuples(relation: Relation, positions: Sequence[int], start: int = 0) -> Iterator[Key]:
    """Native key tuples of the rows ``start:``, built column-at-a-time."""
    return zip(*(column.tolist() for column in relation.key_columns(positions, start)))


class HashIndex:
    """Equality index mapping key tuples to lists of row positions."""

    kind = "hash"

    def __init__(self, relation: Relation, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self._positions = relation.schema.positions(columns)
        self._relation = relation
        self._buckets: Dict[Key, List[int]] = {}
        for pos, key in enumerate(_key_tuples(relation, self._positions)):
            self._buckets.setdefault(key, []).append(pos)

    def lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose indexed columns equal ``key``."""
        return self._relation.rows_at(self._buckets.get(tuple(key), []))

    def lookup_positions(self, key: Sequence[Any]) -> List[int]:
        """Row positions matching ``key`` (used by delete maintenance)."""
        return list(self._buckets.get(tuple(key), []))

    def clone(self, relation: Relation) -> "HashIndex":
        """An independent copy over ``relation``, which holds the same rows.

        Buckets are copied, no key is re-derived; maintaining either index
        afterwards leaves the other untouched.
        """
        clone = HashIndex.__new__(HashIndex)
        clone.columns = self.columns
        clone._positions = self._positions
        clone._relation = relation
        clone._buckets = {key: list(positions) for key, positions in self._buckets.items()}
        return clone

    # ------------------------------------------------------ delta maintenance

    def retarget(self, relation: Relation) -> None:
        """Point the index at a replacement relation with identical rows.

        Used when an update produced a new :class:`Relation` object without
        changing the bag (e.g. a delete bag that matched nothing) — positions
        stay valid, only the backing object changes.
        """
        self._relation = relation

    def apply_insert(self, relation: Relation, start: int) -> None:
        """Index the rows appended at positions ``start:`` of ``relation``.

        ``relation`` must hold the previous contents unchanged in positions
        ``0..start-1`` (how :meth:`Database.apply_update` builds insert
        results), so existing entries stay valid and only the appended rows'
        key columns are read and hashed.
        """
        self._relation = relation
        setdefault = self._buckets.setdefault
        for pos, key in enumerate(_key_tuples(relation, self._positions, start), start):
            setdefault(key, []).append(pos)

    def apply_delete(self, relation: Relation, old_to_new: Any) -> None:
        """Remap the index after rows were deleted.

        ``old_to_new[p]`` is the new position of the row formerly at ``p``,
        or ``-1`` if it was removed (the delete's keep-mask as an ``int64``
        array — :func:`repro.storage.bagdiff.surviving_positions`).  No key
        is re-hashed — buckets are remapped in place, which is the whole
        point of maintaining instead of rebuilding.
        """
        self._relation = relation
        old_to_new = _np.asarray(old_to_new).tolist()
        for key in list(self._buckets):
            kept = [new for p in self._buckets[key] if (new := old_to_new[p]) >= 0]
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]

    def __contains__(self, key: Sequence[Any]) -> bool:
        return tuple(key) in self._buckets

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values (feeds cardinality estimation)."""
        return len(self._buckets)


def _sort_order(keys: Sequence[Any]) -> Any:
    """Positions of the parallel key columns in key order, ties by position."""
    return _np.lexsort(tuple(reversed(keys)))


def _insertion_points(keys: Sequence[Any], probes: Sequence[Any]) -> Any:
    """``bisect_right`` of every probe key into the sorted key columns.

    One ``searchsorted`` for a single column; a composite key runs the same
    binary search over all probes at once, comparing key tuples
    lexicographically column by column.
    """
    if len(keys) == 1:
        return _np.searchsorted(keys[0], probes[0], side="right")
    lo = _np.zeros(len(probes[0]), dtype=_np.int64)
    hi = _np.full(len(probes[0]), len(keys[0]), dtype=_np.int64)
    while True:
        open_ = _np.flatnonzero(lo < hi)
        if not len(open_):
            return lo
        mid = (lo[open_] + hi[open_]) // 2
        # key[mid] <= probe: no column decides it greater before one decides it less.
        below = _np.ones(len(open_), dtype=bool)
        tied = _np.ones(len(open_), dtype=bool)
        for column, probe in zip(keys, probes):
            left, right = column[mid], probe[open_]
            greater = left > right
            below &= ~(tied & greater)
            tied &= ~(greater | (left < right))
        lo[open_[below]] = mid[below] + 1
        hi[open_[~below]] = mid[~below]


class SortedIndex:
    """Sorted (B-tree-like) index supporting equality and range lookups.

    The index is its key columns in key order plus the ``int64`` permutation
    ``perm`` (``perm[i]`` = row position of the ``i``-th entry), ties in
    position order.  Maintenance is whole-array work: an insert merges the
    sorted tail in by ``searchsorted``, a delete is one gather through the
    old→new remap.  Probes bisect a tuple list built from the key columns on
    first use after a change, so equality and ordering are Python's.
    """

    kind = "btree"

    def __init__(self, relation: Relation, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self._positions = relation.schema.positions(columns)
        self._relation = relation
        keys = relation.key_columns(self._positions)
        order = _sort_order(keys)
        self._sorted: Tuple[Any, ...] = tuple(column[order] for column in keys)
        self._perm = order
        self._tuples: Optional[List[Key]] = None

    @property
    def _keys(self) -> List[Key]:
        """The sorted key tuples probes bisect (built lazily, then cached)."""
        if self._tuples is None:
            self._tuples = list(zip(*(column.tolist() for column in self._sorted)))
        return self._tuples

    def _entries(self, lo: int, hi: int) -> List[Row]:
        """The rows of sorted entries ``lo..hi-1``, in key order."""
        return self._relation.rows_at(self._perm[lo:hi].tolist())

    def lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose indexed columns equal ``key``."""
        key = tuple(key)
        keys = self._keys
        return self._entries(bisect.bisect_left(keys, key), bisect.bisect_right(keys, key))

    def prefix_lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose leading indexed columns equal ``key``.

        Unlike :meth:`lookup`, the probe key may cover only a prefix of the
        index's columns — the sorted order makes the matching run contiguous.
        """
        key = tuple(key)
        width = len(key)
        if width == len(self.columns):
            return self.lookup(key)
        keys = self._keys
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_right(keys, key, lo, key=lambda k: k[:width])
        return self._entries(lo, hi)

    def range(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Row]:
        """Rows whose key lies in the (possibly half-open) range [low, high]."""
        keys = self._keys
        lo = 0
        hi = len(keys)
        if low is not None:
            low = tuple(low)
            lo = bisect.bisect_left(keys, low) if include_low else bisect.bisect_right(keys, low)
        if high is not None:
            high = tuple(high)
            hi = bisect.bisect_right(keys, high) if include_high else bisect.bisect_left(keys, high)
        return self._entries(lo, hi)

    def clone(self, relation: Relation) -> "SortedIndex":
        """An independent copy over ``relation``, which holds the same rows.

        The arrays are shared: maintenance replaces them, never writes them.
        """
        clone = SortedIndex.__new__(SortedIndex)
        clone.columns = self.columns
        clone._positions = self._positions
        clone._relation = relation
        clone._sorted = self._sorted
        clone._perm = self._perm
        clone._tuples = self._tuples
        return clone

    # ------------------------------------------------------ delta maintenance

    def retarget(self, relation: Relation) -> None:
        """Point the index at a replacement relation with identical rows."""
        self._relation = relation

    def apply_insert(self, relation: Relation, start: int) -> None:
        """Index the rows appended at positions ``start:`` of ``relation``.

        The tail's key columns are sorted and merged in at their
        ``bisect_right`` points, so each new entry lands after every equal
        key already indexed and equal new keys keep their position order.
        """
        self._relation = relation
        tail = relation.key_columns(self._positions, start)
        if not len(tail[0]):
            return
        order = _sort_order(tail)
        pairs = [common_dtype(column, new[order]) for column, new in zip(self._sorted, tail)]
        at = _insertion_points([a for a, _ in pairs], [b for _, b in pairs])
        self._sorted = tuple(_np.insert(a, at, b) for a, b in pairs)
        self._perm = _np.insert(self._perm, at, order + start)
        self._tuples = None

    def apply_delete(self, relation: Relation, old_to_new: Any) -> None:
        """Remap the index after rows were deleted.

        Entries of removed rows (``-1`` in ``old_to_new``, an ``int64``
        array) are dropped and surviving positions translated by one gather;
        the key order is untouched, so no re-sort happens.
        """
        self._relation = relation
        remapped = _np.asarray(old_to_new, dtype=_np.int64)[self._perm]
        kept = remapped >= 0
        self._sorted = tuple(column[kept] for column in self._sorted)
        self._perm = remapped[kept]
        self._tuples = None

    def scan_sorted(self) -> Iterator[Row]:
        """Yield all rows in key order (gives the optimizer a sort order)."""
        return iter(self._entries(0, len(self._perm)))

    def __len__(self) -> int:
        return len(self._perm)

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values."""
        if not len(self._perm):
            return 0
        changes = _np.zeros(len(self._perm) - 1, dtype=bool)
        for column in self._sorted:
            changes |= column[1:] != column[:-1]
        return int(changes.sum()) + 1


def build_index(relation: Relation, columns: Sequence[str], kind: str = "hash"):
    """Build an index of the requested ``kind`` over ``columns``."""
    if kind == "hash":
        return HashIndex(relation, columns)
    if kind in ("btree", "sorted"):
        return SortedIndex(relation, columns)
    raise ValueError(f"unknown index kind {kind!r}")
