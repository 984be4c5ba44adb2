"""First-match bag subtraction: the one kernel behind ``R − δ⁻``.

Removing a delete bag from a relation takes away one copy per deleted row,
earliest copies first.  Every caller — :meth:`Relation.difference`, the
database's table and view merges, the row-list subtractions of the stream
layer — gets that from here, as a *keep-mask* over the receiver (so stores,
row lists and index positions are all derived from one answer) or, for plain
row lists, as the surviving rows.

Both routes equal the Counter loop of :func:`first_matches`, which is the
reference and the route of row lists.  A column store narrows the positions
that could match by ``isin`` over its numeric columns; the rows left and the
deletes get a ``uint64`` fingerprint each, equal fingerprints are ranked in
store order and the first ``quota`` of each go, and every removed row is
then checked column-wise against its delete — no Python loop over rows.

A merge may carry several delete steps (a view's differentials logged over
one refresh, :meth:`Relation.merge_steps`): step ``k`` first-matches among
the positions ``[0, prefix_k)`` of the receiver-plus-logged-inserts that no
earlier step removed, which is exactly what merging the steps one after
another removes.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Any, Iterable, List, Sequence, Tuple

from repro.storage.columns import numpy as _np

Row = Tuple[Any, ...]

#: The delete-location routes a store merge reports: every removed row was
#: verified against its delete, or a verification failed (a 64-bit
#: fingerprint collision, or NaN) and the candidates ran :func:`first_matches`.
FINGERPRINT = "fingerprint"
FALLBACK_COLLISION = "fallback:collision"


def first_matches(rows: Iterable[Row], excluded: Iterable[Row]) -> List[int]:
    """Positions in ``rows`` that subtracting the bag ``excluded`` removes.

    One copy per excluded row, earliest position first; excluded rows with
    no match are ignored.  Stops as soon as every excluded row is matched.
    """
    remaining = Counter(excluded)
    quota = sum(remaining.values())
    matched: List[int] = []
    if not quota:
        return matched
    get = remaining.get
    for position, row in enumerate(rows):
        if get(row, 0) > 0:
            remaining[row] -= 1
            matched.append(position)
            if len(matched) == quota:
                break
    return matched


def _mask_without(length: int, removed: Any):
    """Keep-mask over ``length`` rows dropping ``removed``; ``None`` if empty."""
    if not len(removed):
        return None
    keep = _np.ones(length, dtype=bool)
    keep[removed] = False
    return keep


def rows_keep_mask(rows: Sequence[Row], excluded: Iterable[Row]):
    """Keep-mask for a row list minus the bag ``excluded`` (``None``: no match)."""
    return _mask_without(len(rows), first_matches(rows, excluded))


def multiset_subtract(rows: Iterable[Row], excluded: Iterable[Row]) -> List[Row]:
    """``rows`` with one copy removed per row in ``excluded``, order kept."""
    rows = list(rows)
    keep = rows_keep_mask(rows, excluded)
    return rows if keep is None else list(compress(rows, keep.tolist()))


def rows_log_keep(rows: Sequence[Row], steps: Sequence[Tuple[Any, int]]):
    """Keep-mask for a row list after the delete ``steps`` (``None``: no match).

    Each step is ``(deletes, prefix)``: the relation's rows are first-matched
    among ``rows[:prefix]`` not removed by an earlier step.  Also returns the
    rows each step removed.
    """
    removed = bytearray(len(rows))
    counts: List[int] = []
    for deletes, prefix in steps:
        if deletes is None or not len(deletes):
            counts.append(0)
            continue
        eligible = [p for p in range(prefix) if not removed[p]]
        matched = first_matches(map(rows.__getitem__, eligible), deletes.iter_rows())
        for i in matched:
            removed[eligible[i]] = 1
        counts.append(len(matched))
    return _mask_without(len(rows), [p for p, gone in enumerate(removed) if gone]), counts


def store_keep_mask(store, deletes):
    """Keep-mask for a column store minus the bag ``deletes``.

    ``deletes`` is a relation; ``None`` means no row matched.  The one-step
    case of :func:`store_log_keep`: the mask removes exactly the positions
    :func:`first_matches` removes over the whole store.
    """
    return store_log_keep((store,), ((deletes, len(store)),))[0]


def store_log_keep(parts: Sequence[Any], steps: Sequence[Tuple[Any, int]]):
    """Keep-mask over the concatenation of the column stores ``parts``.

    Each step is ``(deletes, prefix)``: the delete relation is matched on its
    own (a union of the steps' bags would lose ``isin`` selectivity) among
    the positions ``< prefix`` that no earlier step removed.  Returns the
    mask (``None``: nothing matched), the rows each step removed and the
    route (:data:`FINGERPRINT`, or :data:`FALLBACK_COLLISION` when any step
    fell back).
    """
    total = sum(len(part) for part in parts)
    removed = None
    counts: List[int] = []
    route = FINGERPRINT
    for deletes, prefix in steps:
        positions, verified = _locate(parts, prefix, removed, deletes)
        if not verified:
            route = FALLBACK_COLLISION
        if len(positions):
            if removed is None:
                removed = _np.zeros(total, dtype=bool)
            removed[positions] = True
        counts.append(len(positions))
    return (None if removed is None else ~removed), counts, route


def _locate(parts, prefix, removed, deletes):
    """Global positions one delete step removes, and whether they verified.

    Numeric columns narrow each part's eligible positions, ``int64``
    columns before ``float64`` ones, each ``isin`` running over the
    surviving candidates only, until no more than ``|δ⁻|`` are left: one
    ``isin`` pass costs a small fraction of fingerprinting a row, so a
    column that removes nothing (one determined by earlier ones) does not
    end the narrowing.  A row outside the candidates equals no deleted row.
    """
    nothing = _np.empty(0, dtype=_np.int64)
    if deletes is None or not len(deletes):
        return nothing, True
    # The deletes' own typed columns: the store's dtype policy never coerces
    # a value (a bare ``asarray`` would turn ``1`` beside ``"a"`` into ``"1"``).
    probes = deletes.vector_store()
    target = len(deletes)
    segments = []
    offsets = []
    offset = 0
    for part in parts:
        limit = min(len(part), prefix - offset)
        if limit > 0:
            candidates = _narrow(part, limit, probes, target)
            if candidates is None and (removed is not None or limit < len(part)):
                candidates = _np.arange(limit)
            if removed is not None:
                candidates = candidates[~removed[offset + candidates]]
            if candidates is None:
                segments.append(part)
                offsets.append(offset + _np.arange(limit))
            elif len(candidates):
                segments.append(part.gather(candidates))
                offsets.append(offset + candidates)
        offset += len(part)
    if not segments:
        return nothing, True
    subset = segments[0]
    for segment in segments[1:]:
        subset = subset.concat(segment)
    positions = offsets[0] if len(offsets) == 1 else _np.concatenate(offsets)
    local = _fingerprint_removed(subset, probes)
    if local is None:
        local = _np.asarray(
            first_matches(subset.iter_rows(), deletes.iter_rows()), dtype=_np.int64
        )
        return positions[local], False
    return positions[local], True


def _narrow(part, limit, probes, target):
    """Positions ``< limit`` of ``part`` that ``isin`` cannot rule out.

    ``None`` when no numeric column pair narrows (every position stays).
    """
    numeric = [
        position
        for position in range(part.arity)
        if part.column(position).dtype.kind in "if"
        and probes.column(position).dtype.kind in "if"
    ]
    numeric.sort(key=lambda position: part.column(position).dtype.kind != "i")
    candidates = None
    for position in numeric:
        column = part.column(position)
        probe = probes.column(position)
        if candidates is None:
            candidates = _np.flatnonzero(_np.isin(column[:limit], probe))
        else:
            candidates = candidates[_np.isin(column[candidates], probe)]
        if len(candidates) <= target:
            break
    return candidates


# ------------------------------------------------------------ fingerprints

_MIX_1 = _np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = _np.uint64(0xC4CEB9FE1A85EC53)
_ROUND = _np.uint64(0x9E3779B97F4A7C15)
_SHIFT = _np.uint64(33)


def _mix(values):
    """A 64-bit finalizer (MurmurHash3's): every input bit moves every output bit."""
    values = values ^ (values >> _SHIFT)
    values = values * _MIX_1
    values = values ^ (values >> _SHIFT)
    values = values * _MIX_2
    return values ^ (values >> _SHIFT)


def _column_bits(column):
    """The cells' own bits as ``uint64`` (``float64`` with ``-0.0`` made ``0.0``)."""
    if column.dtype.kind == "f":
        return (column + 0.0).view(_np.uint64)
    return column.astype(_np.int64, copy=False).view(_np.uint64)


def fingerprints(store, by_value: Sequence[bool]):
    """One ``uint64`` per row of ``store``, equal for rows the Counter loop
    finds equal.

    Columns flagged ``by_value`` (``int64``, ``bool``, ``float64``) mix in
    their bits one by one; the others mix in one Python ``hash`` of the
    tuple of their cells, which keeps ``1``, ``1.0`` and ``True`` equal
    across column kinds.
    """
    result = _np.zeros(len(store), dtype=_np.uint64)
    hashed = [store.column(p).tolist() for p, bits in enumerate(by_value) if not bits]
    if hashed:
        tuples = map(hash, zip(*hashed))
        result = _mix(_np.fromiter(tuples, dtype=_np.int64, count=len(store)).view(_np.uint64))
    for position, bits in enumerate(by_value):
        if bits:
            result = _mix(result * _ROUND ^ _column_bits(store.column(position)))
    return result


def _fingerprint_removed(candidates, probes):
    """Positions of ``candidates`` that subtracting ``probes`` removes.

    Candidates are grouped by fingerprint against the deletes', the first
    ``quota`` of each group go (:func:`_rank_keep`), and every removed row —
    and every delete of a group that removed one — is compared column-wise
    with its group's first delete.  ``None`` when a comparison fails: two
    different rows shared a fingerprint, or a NaN equals nothing.
    """
    by_value = [
        candidates.column(p).dtype.kind == probes.column(p).dtype.kind
        and candidates.column(p).dtype.kind in "bif"
        for p in range(candidates.arity)
    ]
    keys, first, inverse, counts = _np.unique(
        fingerprints(probes, by_value),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    found = fingerprints(candidates, by_value)
    slots = _np.minimum(_np.searchsorted(keys, found), len(keys) - 1)
    groups = _np.where(keys[slots] == found, slots, -1)
    # Group -1 reads the trailing 0: rows matching no delete stay.
    removed = _np.flatnonzero(~_rank_keep(groups, _np.append(counts, 0)))
    if not len(removed):
        return removed
    used = groups[removed]
    inverse = inverse.ravel()
    # Deletes that share a used group with another delete must equal it.
    shared = _np.zeros(len(keys), dtype=bool)
    shared[used] = True
    shared &= counts > 1
    alike = _np.flatnonzero(shared[inverse])
    for position in range(candidates.arity):
        probe = probes.column(position)
        if not (
            _all_equal(candidates.column(position)[removed], probe[first[used]])
            and _all_equal(probe[alike], probe[first[inverse[alike]]])
        ):
            return None
    return removed


def _all_equal(left, right) -> bool:
    """Whether the two columns are equal cell by cell (NaN equals nothing)."""
    return bool(_np.all(left == right))


def _rank_keep(groups, quota):
    """Keep-mask dropping, per group, its first ``quota[group]`` rows.

    Rank of each row among its group in row order: a stable argsort brings
    equal groups together preserving arrival order, so rank = position in
    the run of the sorted sequence, scattered back.
    """
    n = len(groups)
    order = _np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    run_flags = _np.concatenate(([False], sorted_groups[1:] != sorted_groups[:-1]))
    run_ids = _np.cumsum(run_flags)
    starts = _np.concatenate(([0], _np.flatnonzero(run_flags)))
    ranks = _np.empty(n, dtype=_np.int64)
    ranks[order] = _np.arange(n, dtype=_np.int64) - starts[run_ids]
    return ~(ranks < quota[groups])


def surviving_positions(keep):
    """Old position → new position under a keep-mask (``-1``: removed).

    An ``int64`` array: what an index needs to follow a delete without
    re-hashing a key.
    """
    mask = _np.asarray(keep, dtype=bool)
    return _np.where(mask, _np.cumsum(mask) - 1, -1)
