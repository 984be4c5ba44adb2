"""The column store.

A :class:`~repro.storage.relation.Relation`'s columnar representation is a
:class:`NumpyColumnStore`: one contiguous typed ``numpy`` array per schema
column (``int64`` for pure-int columns, ``float64`` for pure-float columns,
``object`` for everything else: strings, dates, ``None``-bearing or
mixed-type columns).  Typed columns are what the vectorized operator kernels
in ``repro.engine.operators`` run whole-column mask/gather/reduce passes
over.  numpy is a hard requirement; this module is its only importer
(lint ``REPRO-L001``), so the dtype policy below has exactly one owner.

Two invariants the store upholds, because the engine's correctness oracle
compares plain Python tuples:

* ``to_rows``/``iter_rows``/``column_native`` always yield *native* Python
  values (``int``, ``float``, ``str``, ...), never numpy scalars —
  ``np.int64`` is not an ``int`` subclass, and letting it leak into row
  tuples would silently change aggregate and statistics semantics.
* Columns mixing ``int`` and ``float`` stay ``object`` dtype: coercing to
  ``float64`` would turn ``5`` into ``5.0``, changing SUM results from
  ``int`` to ``float`` and breaking bag equality against the row oracle.

Stores are treated as immutable: every operation returns a new store (array
views may be shared — no store ever writes to an array it handed out).
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as _numpy

#: Re-exported: how every other module reaches numpy (lint ``REPRO-L001``).
numpy = _numpy

Row = Tuple[Any, ...]

_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def _typed_array(values: Sequence[Any]) -> Any:
    """Infer the tightest array for ``values`` (see module invariants).

    Pure-``int`` columns land in ``int64`` (falling back to ``object`` when a
    value overflows 64 bits), pure-``float`` columns in ``float64``; any
    other mix — strings, ``None``, ``bool``, dates, int/float blends — keeps
    native objects so no value is coerced.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return _numpy.array(values, dtype=_numpy.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return _numpy.array(values, dtype=_numpy.float64)
    array = _numpy.empty(len(values), dtype=object)
    array[:] = values
    return array


def common_dtype(a: Any, b: Any) -> Tuple[Any, Any]:
    """``a`` and ``b`` in one dtype, without coercing a value.

    Equal dtypes stay; an empty side takes the other's dtype; any other pair
    becomes ``object`` (``astype(object)`` yields native ``int``/``float``).
    """
    if a.dtype == b.dtype:
        return a, b
    if not len(a):
        return a.astype(b.dtype), b
    if not len(b):
        return a, b.astype(a.dtype)
    return a.astype(object), b.astype(object)


def merged_dtypes(base: "NumpyColumnStore", steps: Sequence[Tuple[int, Any]]) -> List[Any]:
    """The column dtypes that concatenating step by step leaves.

    ``steps`` holds, per merge step, the rows left after its deletes and its
    insert store (or ``None``); each step joins like :meth:`concat` — an
    empty side takes the other's dtype, unequal dtypes become ``object`` —
    so a merge of many steps stores each column exactly as the step-by-step
    merges would.
    """
    dtypes = [base.column(position).dtype for position in range(base.arity)]
    for left, tail in steps:
        if tail is None or not len(tail):
            continue
        for position, dtype in enumerate(dtypes):
            added = tail.column(position).dtype
            dtypes[position] = added if not left or added == dtype else _numpy.dtype(object)
    return dtypes


class NumpyColumnStore:
    """Column store backed by typed numpy arrays."""

    __slots__ = ("_arrays", "_length")

    def __init__(self, arrays: Sequence[Any], length: Optional[int] = None) -> None:
        self._arrays: Tuple[Any, ...] = tuple(arrays)
        if length is None:
            length = len(self._arrays[0]) if self._arrays else 0
        self._length = length

    # --------------------------------------------------------- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Row], arity: int) -> "NumpyColumnStore":
        if not rows:
            return cls(
                tuple(_numpy.empty(0, dtype=object) for _ in range(arity)), 0
            )
        columns = zip(*rows)
        return cls(tuple(_typed_array(list(column)) for column in columns), len(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]], arity: int) -> "NumpyColumnStore":
        length = len(columns[0]) if columns else 0
        return cls(tuple(_typed_array(list(column)) for column in columns), length)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._length

    @property
    def arity(self) -> int:
        return len(self._arrays)

    def column(self, position: int) -> Any:
        """The raw backing array (numpy dtype — engine-internal use only)."""
        return self._arrays[position]

    def column_native(self, position: int) -> Tuple[Any, ...]:
        """One column as native Python values (``tolist`` unboxes scalars)."""
        return tuple(self._arrays[position].tolist())

    def to_rows(self) -> List[Row]:
        if not self._arrays:
            return [()] * self._length
        return list(zip(*(array.tolist() for array in self._arrays)))

    def iter_rows(self) -> Iterator[Row]:
        if not self._arrays:
            return iter([()] * self._length)
        return zip(*(array.tolist() for array in self._arrays))

    # ----------------------------------------------------------- operations

    def take(self, positions: Sequence[int]) -> "NumpyColumnStore":
        """Column subset (projection); shares the backing arrays."""
        return NumpyColumnStore(
            tuple(self._arrays[p] for p in positions), self._length
        )

    def gather(self, indices: Any) -> "NumpyColumnStore":
        """Row subset by fancy-index array."""
        return NumpyColumnStore(
            tuple(array[indices] for array in self._arrays), int(len(indices))
        )

    def mask(self, keep: Any) -> "NumpyColumnStore":
        """Row subset by boolean mask (ndarray or any bool sequence)."""
        keep = _numpy.asarray(keep, dtype=bool)
        arrays = tuple(array[keep] for array in self._arrays)
        length = len(arrays[0]) if arrays else int(_numpy.count_nonzero(keep))
        return NumpyColumnStore(arrays, length)

    def concat(self, other: "NumpyColumnStore") -> "NumpyColumnStore":
        """Vertical concatenation preserving per-column value semantics.

        An empty side returns the other store unchanged.  Otherwise each
        column pair joins in the dtype :func:`common_dtype` gives it, with no
        value re-inferred: an ``int64`` column meeting a ``float64`` one
        becomes ``object`` holding native ints and floats instead of silently
        coercing the ints.  The one difference from inferring the joined
        values afresh: an ``object`` column that happens to hold only ints
        (or only floats) stays ``object``, as :meth:`mask` already leaves it.
        """
        if not other._length:
            return self
        if not self._length:
            return other
        arrays = tuple(
            _numpy.concatenate(common_dtype(a, b))
            for a, b in zip(self._arrays, other._arrays)
        )
        return NumpyColumnStore(arrays, self._length + other._length)

    @classmethod
    def kept(
        cls, parts: Sequence["NumpyColumnStore"], keeps: Sequence[Any], dtypes: Sequence[Any]
    ) -> "NumpyColumnStore":
        """The rows each keep-mask leaves of its part, parts in order.

        One gather per part and column, joined in the column's ``dtypes``
        entry (a keep-mask of ``None`` keeps the whole part): a merge builds
        its new store from the stored view and the logged inserts without
        first concatenating them at full width.
        """
        gathers = [
            None if keep is None else _numpy.flatnonzero(keep) for keep in keeps
        ]
        arrays = []
        for position, dtype in enumerate(dtypes):
            pieces = []
            for part, rows in zip(parts, gathers):
                column = part.column(position)
                piece = column if rows is None else column.take(rows)
                if len(piece):
                    pieces.append(piece if piece.dtype == dtype else piece.astype(dtype))
            if not pieces:
                pieces = [_numpy.empty(0, dtype=dtype)]
            arrays.append(pieces[0] if len(pieces) == 1 else _numpy.concatenate(pieces))
        length = sum(
            len(part) if rows is None else len(rows) for part, rows in zip(parts, gathers)
        )
        return cls(arrays, length)

    def hstack(self, other: "NumpyColumnStore") -> "NumpyColumnStore":
        """Horizontal concatenation (join output assembly)."""
        return NumpyColumnStore(self._arrays + other._arrays, self._length)

    # --------------------------------------------- predicate vector protocol

    def full_mask(self, value: bool) -> Any:
        """A constant boolean mask over every row."""
        return _numpy.full(self._length, bool(value))

    def compare_literal(
        self, position: int, op: str, value: Any, reverse: bool = False
    ) -> Any:
        """Column-vs-literal comparison mask (``None`` cells never match)."""
        array = self._arrays[position]
        op_fn = _OPS[op]
        if array.dtype == object:
            if reverse:
                cells = (v is not None and op_fn(value, v) for v in array)
            else:
                cells = (v is not None and op_fn(v, value) for v in array)
            return _numpy.fromiter(cells, dtype=bool, count=self._length)
        result = op_fn(value, array) if reverse else op_fn(array, value)
        if not isinstance(result, _numpy.ndarray):
            # Cross-type ==/!= comparisons collapse to a scalar; broadcast.
            return _numpy.full(self._length, bool(result))
        return result

    def compare_columns(
        self, left_position: int, op: str, right_position: int
    ) -> Any:
        """Column-vs-column comparison mask (``None`` cells never match)."""
        a = self._arrays[left_position]
        b = self._arrays[right_position]
        op_fn = _OPS[op]
        if a.dtype == object or b.dtype == object:
            cells = (
                x is not None and y is not None and op_fn(x, y)
                for x, y in zip(a.tolist(), b.tolist())
            )
            return _numpy.fromiter(cells, dtype=bool, count=self._length)
        result = op_fn(a, b)
        if not isinstance(result, _numpy.ndarray):
            return _numpy.full(self._length, bool(result))
        return result

    def rowwise_mask(self, fn: Callable[[Row], bool]) -> Any:
        """Mask from an arbitrary compiled row predicate (escape hatch)."""
        return _numpy.fromiter(
            (fn(row) for row in self.iter_rows()), dtype=bool, count=self._length
        )


# ``perf/`` (frozen) is the only caller of the two functions below: its tracer
# wraps ``active_backend().from_rows``/``to_rows`` and ``perf/run.py`` gates on
# ``numpy_enabled()``.  Everything else names :class:`NumpyColumnStore` directly.


def active_backend() -> Type[NumpyColumnStore]:
    """The store class (kept for ``perf/``)."""
    return NumpyColumnStore


def numpy_enabled() -> bool:
    """Always true (kept for ``perf/``)."""
    return True
