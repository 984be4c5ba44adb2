"""First-match bag subtraction: the one kernel behind ``R − δ⁻``.

Removing a delete bag from a relation takes away one copy per deleted row,
earliest copies first.  Every caller — :meth:`Relation.difference`, the
database's table and view merges, the row-list subtractions of the stream
layer — gets that from here, as a *keep-mask* over the receiver (so stores,
row lists and index positions are all derived from one answer) or, for plain
row lists, as the surviving rows.

Both routes equal the Counter loop of :func:`first_matches`, which is the
reference and the route of row lists.  A column store narrows the positions
that could match by ``isin`` over its numeric columns; the rows left are
hashed against the delete bag's Counter, equal rows are ranked in store
order and the first ``quota`` of each go, with no Python loop over rows.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from typing import Any, Iterable, List, Sequence, Tuple

from repro.storage.columns import numpy as _np

Row = Tuple[Any, ...]


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


def store_keep_mask(store, deletes):
    """Keep-mask for a column store minus the bag ``deletes``.

    ``deletes`` is a relation; ``None`` means no row matched.  Numeric
    columns narrow the positions that could match a delete, ``int64``
    columns before ``float64`` ones, each ``isin`` running over the
    surviving candidates only, until no more than ``|δ⁻|`` are left: one
    ``isin`` pass costs a small fraction of what hashing a row costs, so a
    column that removes nothing (one determined by earlier ones) does not
    end the narrowing.  The candidates left (the whole store when it has no
    numeric column) are hashed against the deletes (:func:`_hashed_mask`).
    A row outside the candidates equals no deleted row, so the mask removes
    exactly the positions :func:`first_matches` removes over the whole store.
    """
    target = len(deletes)
    if not len(store):
        return None
    # The deletes' own typed columns: the store's dtype policy never coerces
    # a value (a bare ``asarray`` would turn ``1`` beside ``"a"`` into ``"1"``).
    probes = deletes.vector_store()
    numeric = [
        position
        for position in range(store.arity)
        if store.column(position).dtype.kind in "if"
        and probes.column(position).dtype.kind in "if"
    ]
    numeric.sort(key=lambda position: store.column(position).dtype.kind != "i")
    candidates = None
    for position in numeric:
        column = store.column(position)
        probe = probes.column(position)
        if candidates is None:
            candidates = _np.flatnonzero(_np.isin(column, probe))
        else:
            candidates = candidates[_np.isin(column[candidates], probe)]
        if not len(candidates):
            return None
        if len(candidates) <= target:
            break
    subset = store if candidates is None else store.gather(candidates)
    removed = _np.flatnonzero(~_hashed_mask(subset.iter_rows(), deletes.iter_rows()))
    if candidates is not None:
        removed = candidates[removed]
    return _mask_without(len(store), removed)


def _hashed_mask(rows: Iterable[Row], excluded: Iterable[Row]):
    """First-match subtraction by hashing whole rows: a keep-mask over ``rows``.

    Each row looks up its group among the distinct excluded rows (``-1``:
    none) in one C-level pass, with the equality :func:`first_matches` uses;
    the ranking then removes each group's first ``quota`` rows.
    """
    counts = Counter(excluded)
    ids = dict(zip(counts, range(len(counts))))
    groups = _np.fromiter(map(ids.get, rows, repeat(-1)), dtype=_np.int64)
    # Group -1 reads the trailing 0: rows matching no excluded row stay.
    quota = _np.fromiter(chain(counts.values(), (0,)), dtype=_np.int64)
    return _rank_keep(groups, quota)


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


def surviving_positions(keep) -> List[int]:
    """Old position → new position under a keep-mask (``-1``: removed).

    What an index needs to follow a delete without re-hashing a key.
    """
    mask = _np.asarray(keep, dtype=bool)
    return _np.where(mask, _np.cumsum(mask) - 1, -1).tolist()
