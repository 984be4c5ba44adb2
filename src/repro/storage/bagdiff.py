"""First-match bag subtraction: the one kernel behind ``R − δ⁻``.

Removing a delete bag from a relation takes away one copy per deleted row,
earliest copies first.  Every caller — :meth:`Relation.difference`, the
database's table and view merges, the row-list subtractions of the stream
layer — gets that from here, as a *keep-mask* over the receiver (so stores,
row lists and index positions are all derived from one answer) or, for plain
row lists, as the surviving rows.

Three routes produce the mask, chosen from the columns at hand and all
equal to the Counter loop of :func:`first_matches`, which is the reference:
numeric columns narrow the candidates by ``isin`` and the loop runs over the
few rows left; otherwise every column is factorized into codes and the
subtraction is array arithmetic; columns numpy cannot factorize faithfully
(``None`` beside strings, NaN deletes) run the loop over every row.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Any, Iterable, List, Optional, Sequence, Tuple

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
    columns narrow the rows that could match a delete (``isin`` per column);
    when few candidates survive only those are gathered as tuples for the
    Counter loop.  With no numeric column (string-keyed views) or a wide
    candidate set the subtraction runs over factorized codes
    (:func:`_codes_mask`), and when the columns cannot be factorized, over
    the remaining candidates or every row.
    """
    target = len(deletes)
    if not len(store):
        return None
    # The deletes' own typed columns: the store's dtype policy never coerces
    # a value (a bare ``asarray`` would turn ``1`` beside ``"a"`` into ``"1"``).
    probes = deletes.vector_store()
    candidates = None
    narrowed = False
    for position in range(store.arity):
        column = store.column(position)
        probe = probes.column(position)
        if column.dtype.kind not in "if" or probe.dtype.kind not in "if":
            continue
        hit = _np.isin(column, probe)
        candidates = hit if candidates is None else candidates & hit
        if int(candidates.sum()) <= 4 * target:
            narrowed = True
            break
    if candidates is not None and not candidates.any():
        return None
    if not narrowed:
        applies, keep = _codes_mask(store, probes)
        if applies:
            return keep
    if candidates is None:
        return _mask_without(
            len(store), first_matches(store.iter_rows(), deletes.iter_rows())
        )
    positions = _np.flatnonzero(candidates)
    matched = first_matches(store.gather(positions).iter_rows(), deletes.iter_rows())
    return _mask_without(len(store), positions[matched])


def _codes_mask(store, probes) -> Tuple[bool, Optional[Any]]:
    """First-match subtraction as array arithmetic: ``(applies, keep-mask)``.

    Each column of ``store ⧺ probes`` (the delete bag's own store) is
    factorized into dense integer codes (``np.unique`` with
    ``return_inverse``), the per-column codes are folded into one row-group
    id, and the delete quota per group is the delete bag's group histogram.  A store row is removed iff its rank among
    equal rows *in store order* is below the quota — the first-match order
    of :func:`first_matches`, with no Python loop over rows.

    Does not apply when the columns cannot be factorized faithfully:
    un-orderable mixed values (``None`` beside strings) make ``np.unique``
    raise, and NaN deletes would collapse under ``np.unique`` even though
    ``Counter`` equality never matches them.
    """
    n = len(store)
    group = None
    for position in range(store.arity):
        column = store.column(position)
        probe = probes.column(position)
        if probe.dtype.kind == "f" and bool(_np.isnan(probe).any()):
            return False, None
        if probe.dtype.kind == "O" and any(
            isinstance(value, float) and value != value for value in probe.tolist()
        ):
            return False, None
        try:
            merged = _np.concatenate([column, probe])
            _, codes = _np.unique(merged, return_inverse=True)
        except (TypeError, ValueError):
            return False, None
        codes = codes.astype(_np.int64, copy=False)
        if group is None:
            group = codes
        else:
            paired = group * _np.int64(int(codes.max()) + 1) + codes
            _, group = _np.unique(paired, return_inverse=True)
            group = group.astype(_np.int64, copy=False)
    if group is None:
        return False, None
    store_groups = group[:n]
    quota = _np.bincount(group[n:], minlength=int(group.max()) + 1)
    if not bool((quota[store_groups] > 0).any()):
        return True, None
    # Rank of each store row among equal rows, in store order: stable
    # argsort groups equal rows together preserving arrival order, so
    # rank = position-in-run of the sorted sequence scattered back.
    order = _np.argsort(store_groups, kind="stable")
    sorted_groups = store_groups[order]
    run_flags = _np.concatenate(([False], sorted_groups[1:] != sorted_groups[:-1]))
    run_ids = _np.cumsum(run_flags)
    starts = _np.concatenate(([0], _np.flatnonzero(run_flags)))
    ranks = _np.empty(n, dtype=_np.int64)
    ranks[order] = _np.arange(n, dtype=_np.int64) - starts[run_ids]
    return True, ~(ranks < quota[store_groups])


def surviving_positions(keep) -> List[int]:
    """Old position → new position under a keep-mask (``-1``: removed).

    What an index needs to follow a delete without re-hashing a key.
    """
    mask = _np.asarray(keep, dtype=bool)
    return _np.where(mask, _np.cumsum(mask) - 1, -1).tolist()
