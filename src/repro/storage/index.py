"""In-memory indexes.

Two access methods back the optimizer's index choices: a hash index (equality
lookups) and a sorted index (equality + range lookups, and a sort order the
optimizer can exploit as a physical property).  Indexes are built over a
:class:`~repro.storage.relation.Relation` and return row positions, so the
same index structure serves both base tables and materialized views.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.storage.relation import Relation, Row

Key = Tuple[Any, ...]


def _column_keys(relation: Relation, positions: Sequence[int]) -> Iterator[Key]:
    """Key tuples over ``positions``, built column-at-a-time.

    One pass over the pre-extracted key columns instead of indexing into
    every row tuple — and for store-backed relations it never materializes
    the row list at all.
    """
    return zip(*(relation.column_at(i) for i in positions))


class HashIndex:
    """Equality index mapping key tuples to lists of row positions."""

    kind = "hash"

    def __init__(self, relation: Relation, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self._positions = relation.schema.positions(columns)
        self._relation = relation
        self._buckets: Dict[Key, List[int]] = {}
        for pos, key in enumerate(_column_keys(relation, self._positions)):
            self._buckets.setdefault(key, []).append(pos)

    def _key(self, row: Row) -> Key:
        return tuple(row[i] for i in self._positions)

    def lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose indexed columns equal ``key``."""
        positions = self._buckets.get(tuple(key), [])
        rows = self._relation.rows
        return [rows[p] for p in positions]

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
        """Index the rows appended at ``relation.rows[start:]``.

        ``relation`` must hold the previous contents unchanged in positions
        ``0..start-1`` (how :meth:`Database.apply_update` builds insert
        results), so existing entries stay valid and only the appended rows
        are hashed.
        """
        self._relation = relation
        rows = relation.rows
        for pos in range(start, len(rows)):
            self._buckets.setdefault(self._key(rows[pos]), []).append(pos)

    def apply_delete(self, relation: Relation, old_to_new: Sequence[int]) -> None:
        """Remap the index after rows were deleted.

        ``old_to_new[p]`` is the new position of the row formerly at ``p``,
        or ``-1`` if it was removed (the delete's keep-mask as positions —
        :func:`repro.storage.bagdiff.surviving_positions`).  No key is
        re-hashed — buckets are remapped in place, which is the whole point
        of maintaining instead of rebuilding.
        """
        self._relation = relation
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


class SortedIndex:
    """Sorted (B-tree-like) index supporting equality and range lookups."""

    kind = "btree"

    def __init__(self, relation: Relation, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self._positions = relation.schema.positions(columns)
        self._relation = relation
        entries = sorted(
            ((key, pos) for pos, key in enumerate(_column_keys(relation, self._positions))),
            key=lambda kp: kp[0],
        )
        self._keys: List[Key] = [k for k, _ in entries]
        self._rowpos: List[int] = [p for _, p in entries]

    def _key(self, row: Row) -> Key:
        return tuple(row[i] for i in self._positions)

    def lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose indexed columns equal ``key``."""
        key = tuple(key)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        rows = self._relation.rows
        return [rows[self._rowpos[i]] for i in range(lo, hi)]

    def prefix_lookup(self, key: Sequence[Any]) -> List[Row]:
        """All rows whose leading indexed columns equal ``key``.

        Unlike :meth:`lookup`, the probe key may cover only a prefix of the
        index's columns — the sorted order makes the matching run contiguous.
        """
        key = tuple(key)
        width = len(key)
        if width == len(self.columns):
            return self.lookup(key)
        rows = self._relation.rows
        out: List[Row] = []
        for i in range(bisect.bisect_left(self._keys, key), len(self._keys)):
            if self._keys[i][:width] != key:
                break
            out.append(rows[self._rowpos[i]])
        return out

    def range(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Row]:
        """Rows whose key lies in the (possibly half-open) range [low, high]."""
        lo = 0
        hi = len(self._keys)
        if low is not None:
            low = tuple(low)
            lo = bisect.bisect_left(self._keys, low) if include_low else bisect.bisect_right(self._keys, low)
        if high is not None:
            high = tuple(high)
            hi = bisect.bisect_right(self._keys, high) if include_high else bisect.bisect_left(self._keys, high)
        rows = self._relation.rows
        return [rows[self._rowpos[i]] for i in range(lo, hi)]

    def clone(self, relation: Relation) -> "SortedIndex":
        """An independent copy over ``relation``, which holds the same rows."""
        clone = SortedIndex.__new__(SortedIndex)
        clone.columns = self.columns
        clone._positions = self._positions
        clone._relation = relation
        clone._keys = list(self._keys)
        clone._rowpos = list(self._rowpos)
        return clone

    # ------------------------------------------------------ delta maintenance

    def retarget(self, relation: Relation) -> None:
        """Point the index at a replacement relation with identical rows."""
        self._relation = relation

    def apply_insert(self, relation: Relation, start: int) -> None:
        """Index the rows appended at ``relation.rows[start:]``.

        Each new ``(key, position)`` entry is spliced into the sorted arrays
        at its insertion point — O(δ·n) list splicing, which beats the
        O(n log n) re-sort while the delta stays a small fraction of the
        relation (the database layer falls back to a rebuild beyond that).
        """
        self._relation = relation
        rows = relation.rows
        for pos in range(start, len(rows)):
            key = self._key(rows[pos])
            at = bisect.bisect_right(self._keys, key)
            self._keys.insert(at, key)
            self._rowpos.insert(at, pos)

    def apply_delete(self, relation: Relation, old_to_new: Sequence[int]) -> None:
        """Remap the index after rows were deleted.

        Entries of removed rows (``-1`` in ``old_to_new``) are dropped and
        surviving positions translated; the key order is untouched, so no
        re-sort happens.
        """
        self._relation = relation
        keys: List[Key] = []
        rowpos: List[int] = []
        for key, pos in zip(self._keys, self._rowpos):
            new_pos = old_to_new[pos]
            if new_pos >= 0:
                keys.append(key)
                rowpos.append(new_pos)
        self._keys = keys
        self._rowpos = rowpos

    def scan_sorted(self) -> Iterator[Row]:
        """Yield all rows in key order (gives the optimizer a sort order)."""
        rows = self._relation.rows
        for pos in self._rowpos:
            yield rows[pos]

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values."""
        distinct = 0
        previous: Optional[Key] = None
        for key in self._keys:
            if key != previous:
                distinct += 1
                previous = key
        return distinct


def build_index(relation: Relation, columns: Sequence[str], kind: str = "hash"):
    """Build an index of the requested ``kind`` over ``columns``."""
    if kind == "hash":
        return HashIndex(relation, columns)
    if kind in ("btree", "sorted"):
        return SortedIndex(relation, columns)
    raise ValueError(f"unknown index kind {kind!r}")
