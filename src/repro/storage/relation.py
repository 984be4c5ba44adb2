"""Multiset (bag) relations.

The paper works in the multiset relational algebra: relations may contain
duplicate tuples, unions keep duplicates, and differences remove one matching
copy per deleted tuple.  :class:`Relation` implements exactly those
semantics, which the differential-maintenance tests rely on to check that
incremental refresh produces the same bag as recomputation.

Storage is dual-representation.  A relation is authoritative either as a
list of Python row tuples (how user code and the interpreted oracle build
bags) or as a :class:`~repro.storage.columns.NumpyColumnStore` (how the
vectorized operators hand results to each other); whichever side is
missing is derived lazily and cached.  Mutation always goes through
:meth:`_invalidate`, which drops every derived columnar view, so a cached
column read can never go stale.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress
from operator import itemgetter as _itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.catalog.schema import Schema
from repro.storage.bagdiff import (
    FINGERPRINT,
    Row,
    rows_keep_mask,
    rows_log_keep,
    store_keep_mask,
    store_log_keep,
)
from repro.storage.columns import NumpyColumnStore, merged_dtypes

#: Bag size from which a kernel builds a column store for a row-backed input
#: it will *scan*: the store is cached on the relation and reused by every
#: later kernel, so the build amortizes.  Below this, array conversion costs
#: more than the row loop saves.  (A relation that already carries a store
#: vectorizes regardless of size — see :meth:`Relation.vector_store`.)
VECTOR_MIN_ROWS = 64

#: Bag size from which a *single-use* kernel (a join of two row-backed
#: inputs, a merge into a row-backed state) converts its input to typed
#: arrays: a one-shot pass only recoups the per-cell dtype inference on bags
#: this large — after which the state stays columnar across every later
#: merge.
VECTOR_BUILD_MIN_ROWS = 4096

#: The merge route of a small row-backed receiver (:meth:`Relation.merge_steps`).
ROWS = "rows"


class Merged(NamedTuple):
    """What :meth:`Relation.merge_steps` made, and how."""

    #: The merged bag (the receiver itself when no step carried a row).
    relation: "Relation"
    #: Keep-mask over the receiver's positions; ``None`` keeps every row.
    keep: Any
    #: Logged insert rows that survived, at the tail of ``relation``.
    appended: int
    #: The bag's length after each step.
    lengths: Tuple[int, ...]
    #: ``rows``, ``fingerprint`` or ``fallback:collision``.
    route: str


class Relation:
    """A named bag of tuples with a schema.

    Tuples are plain Python tuples whose positions correspond to the schema's
    columns.  The bag preserves insertion order (useful for deterministic
    tests) while all comparison helpers use counted multiset semantics.

    Internally the bag lives either as the row list ``_rows`` or as a
    column store ``_store`` (at least one is always present); the other
    representation is derived on first use and cached.  Row tuples exposed
    through :attr:`rows`/:meth:`iter_rows` always carry native Python
    values, whichever representation produced them.
    """

    def __init__(self, schema: Schema, rows: Optional[Iterable[Row]] = None, name: str = "") -> None:
        self.schema = schema
        self.name = name
        self._rows: Optional[List[Row]] = [tuple(r) for r in rows] if rows is not None else []
        #: Column store (``repro.storage.columns``), the columnar
        #: authority when ``_rows`` is None; else a cached derivation.
        self._store = None
        #: Lazily built native column tuples (the columnar read path);
        #: invalidated whenever the bag is mutated.
        self._columns: Optional[Tuple[Tuple[Any, ...], ...]] = None
        #: Per-position column cache for single-column reads, so narrow
        #: accesses to wide relations do not materialize every column.
        self._column_cache: Dict[int, Tuple[Any, ...]] = {}
        arity = len(schema)
        for row in self._rows:
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has arity {len(row)}, schema expects {arity}"
                )

    # ------------------------------------------------------------ constructors

    @staticmethod
    def from_dicts(schema: Schema, dicts: Iterable[Dict[str, Any]], name: str = "") -> "Relation":
        """Build a relation from dictionaries keyed by column name."""
        names = schema.names
        rows = [tuple(d.get(n, d.get(n.rsplit(".", 1)[-1])) for n in names) for d in dicts]
        return Relation(schema, rows, name)

    @staticmethod
    def empty_like(other: "Relation", name: str = "") -> "Relation":
        """An empty relation with the same schema as ``other``."""
        return Relation(other.schema, [], name or other.name)

    @staticmethod
    def _wrap(schema: Schema, rows: Optional[List[Row]], store, name: str) -> "Relation":
        """A relation over the given representations (at least one), unchecked."""
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation.name = name
        relation._rows = rows
        relation._store = store
        relation._columns = None
        relation._column_cache = {}
        return relation

    @staticmethod
    def from_trusted_rows(schema: Schema, rows: List[Row], name: str = "") -> "Relation":
        """Wrap an already-validated list of tuples without copying it.

        Fast-path constructor for operators whose outputs are built from
        existing relation tuples (selection keeps rows, joins concatenate
        tuples), where re-tupling and arity-checking every row would double
        the cost of the hot loop.  The caller must hand over ownership of
        ``rows``.
        """
        return Relation._wrap(schema, rows, None, name)

    @staticmethod
    def from_store(schema: Schema, store, name: str = "") -> "Relation":
        """Wrap a column store; rows are derived lazily on demand.

        The store must not be mutated after being handed over (stores are
        immutable by convention — see ``repro.storage.columns``).
        """
        return Relation._wrap(schema, None, store, name)

    @staticmethod
    def from_columns(
        schema: Schema, columns: Sequence[Sequence[Any]], name: str = ""
    ) -> "Relation":
        """Build a relation from parallel column arrays."""
        if len(columns) != len(schema):
            raise ValueError(
                f"{len(columns)} column arrays do not match schema arity {len(schema)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"column arrays have unequal lengths {sorted(lengths)}")
        store = NumpyColumnStore.from_columns(columns, len(schema))
        return Relation.from_store(schema, store, name)

    # -------------------------------------------------------------- basic bag

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def rows(self) -> List[Row]:
        """The row-tuple list (do not mutate directly).

        Materialized from the column store on first access for store-backed
        relations; native Python values throughout.
        """
        if self._rows is None:
            self._rows = self._store.to_rows()
        return self._rows

    def iter_rows(self) -> Iterator[Row]:
        """Iterate row tuples without forcing the row-list cache.

        Store-backed relations stream straight out of the columns — the lazy
        row view the interpreted oracle and delta coalescing use when one
        pass is all they need.
        """
        if self._rows is not None:
            return iter(self._rows)
        return self._store.iter_rows()

    # ---------------------------------------------------------- columnar access

    def _invalidate(self) -> None:
        """Drop every derived columnar view after a mutation.

        The single chokepoint all mutation goes through: forgetting one of
        these caches means a stale column served after an ``add``.
        """
        self._store = None
        self._columns = None
        self._column_cache.clear()

    def cached_store(self):
        """The column store if one is already built, else ``None`` (no work)."""
        return self._store

    def vector_store(self, min_rows: int = 0):
        """The column store for the vectorized kernels, or ``None``.

        An already-cached store is returned regardless of size; building a
        fresh one requires at least ``min_rows`` rows, since array
        conversion costs more than it saves on tiny bags — callers given
        ``None`` drop to their row paths.
        """
        if self._store is None:
            if len(self._rows) < min_rows:
                return None
            self._store = NumpyColumnStore.from_rows(self._rows, len(self.schema))
        return self._store

    def columns(self) -> Tuple[Tuple[Any, ...], ...]:
        """Column arrays, one tuple of native values per schema column.

        Built lazily from whichever representation is authoritative and
        cached until the bag is mutated; hot operators (selection, join
        build/probe, aggregation) read single columns as flat arrays instead
        of indexing every row.
        """
        if self._columns is None:
            if self._rows is None:
                self._columns = tuple(
                    self._store.column_native(i) for i in range(len(self.schema))
                )
            elif self._rows:
                self._columns = tuple(zip(*self._rows))
            else:
                self._columns = tuple(() for _ in self.schema)
        return self._columns

    def column_at(self, position: int) -> Tuple[Any, ...]:
        """One column (by position) as a flat array of native values.

        Extracts only the requested column — wide intermediate results do
        not pay for materializing every column the way :meth:`columns` does.
        """
        if self._columns is not None:
            return self._columns[position]
        cached = self._column_cache.get(position)
        if cached is None:
            if position >= len(self.schema):
                raise IndexError(f"column position {position} out of range")
            if self._rows is None:
                cached = self._store.column_native(position)
            else:
                cached = tuple([row[position] for row in self._rows])
            self._column_cache[position] = cached
        return cached

    def key_columns(self, positions: Sequence[int], start: int = 0) -> Tuple[Any, ...]:
        """Typed arrays of the columns at ``positions``, over rows ``start:``.

        What indexes read their keys from: a store-backed relation hands out
        (views of) its own columns, a row-backed one converts just those
        columns of just those rows — neither builds its other representation.
        """
        if self._store is not None:
            return tuple(self._store.column(p)[start:] for p in positions)
        tail = self._rows[start:] if start else self._rows
        keys = NumpyColumnStore.from_columns(
            [[row[p] for row in tail] for p in positions], len(positions)
        )
        return tuple(keys.column(i) for i in range(len(positions)))

    def rows_at(self, positions: Sequence[int]) -> List[Row]:
        """The rows at ``positions``, read from the representation held.

        A store-backed relation gathers just those rows; its row list is
        never materialized.
        """
        if self._rows is not None:
            rows = self._rows
            return [rows[p] for p in positions]
        return self._store.gather(positions).to_rows()

    def column_values(self, name: str) -> Tuple[Any, ...]:
        """One column as a flat array (resolved like any schema lookup)."""
        return self.column_at(self.schema.index_of(name))

    def counter(self) -> Counter:
        """Counted multiset view of the bag."""
        return Counter(self.iter_rows())

    def sample(self, k: int, seed: int = 8191) -> List[Row]:
        """A deterministic uniform sample of up to ``k`` rows.

        Used by statistics measurement (:meth:`TableStats.from_relation`) so
        distinct counts and histograms never require a full per-column scan
        of a large relation.  The bag is random-access, so sampling draws
        ``k`` positions directly — O(k) work instead of a full reservoir
        pass, and store-backed relations gather without materializing rows.
        """
        if k >= len(self):
            return list(self.rows)
        positions = sorted(random.Random(seed).sample(range(len(self)), k))
        if self._rows is None:
            return self._store.gather(positions).to_rows()
        rows = self._rows
        return [rows[i] for i in positions]

    def copy(self, name: str = "") -> "Relation":
        """A shallow copy: its own row list, the same (immutable) store."""
        rows = None if self._rows is None else list(self._rows)
        return Relation._wrap(self.schema, rows, self._store, name or self.name)

    def add(self, row: Row) -> None:
        """Append one tuple."""
        row = tuple(row)
        if len(row) != len(self.schema):
            raise ValueError(f"row {row!r} does not match schema arity {len(self.schema)}")
        self.rows.append(row)
        self._invalidate()

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many tuples."""
        target = self.rows
        arity = len(self.schema)
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(f"row {row!r} does not match schema arity {arity}")
            target.append(row)
        self._invalidate()

    # --------------------------------------------------------- bag operations

    def union_all(self, other: "Relation") -> "Relation":
        """Multiset union: concatenation of the two bags.

        The larger side is the state the union extends, and the result keeps
        the representations that state holds: a store when it carries one
        (or is large enough to build one that later merges reuse), the row
        list when it carries that.  Only the smaller side is ever converted.
        """
        self._check_compatible(other)
        state = self if len(self) >= len(other) else other
        rows = store = None
        if state.vector_store(VECTOR_BUILD_MIN_ROWS) is not None:
            store = self.vector_store().concat(other.vector_store())
        if store is None or state._rows is not None:
            rows = self.rows + other.rows
        return Relation._wrap(self.schema, rows, store, self.name)

    def difference_mask(self, other: "Relation"):
        """Keep-mask of ``self − other`` over this bag's positions.

        One copy goes per matching tuple in ``other``, earliest first;
        ``None`` means nothing matched.  A receiver that carries a column
        store (or is large enough to build one) is subtracted columnar-ly,
        without walking its rows; a small row-backed one runs the Counter
        loop — both in :mod:`repro.storage.bagdiff`.
        """
        self._check_compatible(other)
        if not len(other):
            return None
        store = self.vector_store(VECTOR_BUILD_MIN_ROWS)
        if store is None:
            return rows_keep_mask(self._rows, other.iter_rows())
        return store_keep_mask(store, other)

    def masked(self, keep) -> "Relation":
        """The sub-bag at the kept positions (``None`` keeps every row).

        Each representation this relation holds is cut by the same mask, so
        neither is rebuilt from the other.
        """
        if keep is None:
            return self.copy()
        rows = None if self._rows is None else list(compress(self._rows, keep.tolist()))
        store = None if self._store is None else self._store.mask(keep)
        return Relation._wrap(self.schema, rows, store, self.name)

    def merge_steps(
        self, steps: Sequence[Tuple[Optional["Relation"], Optional["Relation"]]]
    ) -> "Merged":
        """This bag after merging each ``(inserts, deletes)`` step in turn.

        Step by step, ``V ← (V − δ⁻) ∪ δ⁺``; done at once.  Step ``k``'s
        deletes first-match among this bag plus the inserts of steps before
        ``k``, minus what earlier steps removed (:mod:`repro.storage.bagdiff`),
        so rows, their order and the stored dtypes equal the step-by-step
        result, phantom deletes included.  The new bag is built in one pass
        per column from this bag and the logged inserts.  A merge of fewer
        than ``VECTOR_BUILD_MIN_ROWS`` rows whose larger side — this bag or
        the logged inserts — carries no store merges row lists (route
        ``rows``); any other merges columns (route ``fingerprint`` or
        ``fallback:collision``).
        """
        steps = [
            (inserts if inserts is not None and len(inserts) else None, deletes)
            for inserts, deletes in steps
        ]
        tails = [inserts for inserts, _ in steps if inserts is not None]
        delete_steps = []
        total = len(self)
        for inserts, deletes in steps:
            delete_steps.append((deletes, total))
            total += len(inserts) if inserts is not None else 0
        # As in union_all, the larger side decides: the receiver unless the
        # logged inserts outweigh it.
        columnar = total >= VECTOR_BUILD_MIN_ROWS or (
            self._store is not None and 2 * len(self) >= total
        )
        if not tails and not any(d is not None and len(d) for d, _ in delete_steps):
            return Merged(self, None, 0, (len(self),) * len(steps), FINGERPRINT if columnar else ROWS)
        rows = None
        if self._rows is not None or not columnar:
            rows = self.rows + [row for inserts in tails for row in inserts.iter_rows()]
        if columnar:
            base = self.vector_store()
            tail = None
            for inserts in tails:
                tail = inserts.vector_store() if tail is None else tail.concat(inserts.vector_store())
            parts = (base,) if tail is None else (base, tail)
            keep, counts, route = store_log_keep(parts, delete_steps)
        else:
            keep, counts = rows_log_keep(rows, delete_steps)
            route = ROWS
        lengths, concats = [], []
        length = len(self)
        for (inserts, _), removed in zip(steps, counts):
            length -= removed
            concats.append((length, inserts.vector_store() if columnar and inserts else None))
            length += len(inserts) if inserts is not None else 0
            lengths.append(length)
        store = None
        if columnar:
            keeps = [
                None if keep is None else keep[start : start + len(part)]
                for part, start in zip(parts, (0, len(self)))
            ]
            store = NumpyColumnStore.kept(parts, keeps, merged_dtypes(base, concats))
        if rows is not None and keep is not None:
            rows = list(compress(rows, keep.tolist()))
        base_keep = None if keep is None else keep[: len(self)]
        if base_keep is not None and base_keep.all():
            base_keep = None
        kept = len(self) if base_keep is None else int(base_keep.sum())
        merged = Relation._wrap(self.schema, rows, store, self.name)
        return Merged(merged, base_keep, len(merged) - kept, tuple(lengths), route)

    def difference(self, other: "Relation") -> "Relation":
        """Multiset difference: remove one copy per matching tuple in ``other``."""
        return self.masked(self.difference_mask(other))

    def apply_delta(self, inserts: Optional["Relation"] = None, deletes: Optional["Relation"] = None) -> "Relation":
        """Return ``self − deletes ∪ inserts`` (the view-update merge step)."""
        result = self
        if deletes is not None and len(deletes):
            result = result.difference(deletes)
        if inserts is not None and len(inserts):
            result = result.union_all(inserts)
        return self.copy() if result is self else result

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-occurrence order."""
        seen = set()
        result = []
        for row in self.iter_rows():
            if row not in seen:
                seen.add(row)
                result.append(row)
        return Relation.from_trusted_rows(self.schema, result, self.name)

    def project(self, columns: Sequence[str]) -> "Relation":
        """Bag projection onto ``columns`` (duplicates preserved)."""
        idxs = self.schema.positions(columns)
        schema = self.schema.project(columns)
        if self._store is not None:
            # Column stores project by reference: no per-row work at all.
            return Relation.from_store(schema, self._store.take(idxs), self.name)
        if len(idxs) == 1:
            i = idxs[0]
            rows = [(row[i],) for row in self._rows]
        else:
            getter = _itemgetter(*idxs)
            rows = [getter(row) for row in self._rows]
        return Relation.from_trusted_rows(schema, rows, self.name)

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Bag selection by an arbitrary row predicate."""
        return Relation.from_trusted_rows(
            self.schema, [r for r in self.rows if predicate(r)], self.name
        )

    def sorted_by(self, columns: Sequence[str]) -> "Relation":
        """Return a copy sorted on ``columns`` (ascending)."""
        idxs = self.schema.positions(columns)
        ordered = sorted(self.rows, key=lambda row: tuple(row[i] for i in idxs))
        return Relation.from_trusted_rows(self.schema, ordered, self.name)

    # ------------------------------------------------------------- comparison

    def same_bag(self, other: "Relation") -> bool:
        """Whether the two relations contain exactly the same multiset of tuples."""
        return self.counter() == other.counter()

    def _check_compatible(self, other: "Relation") -> None:
        if len(self.schema) != len(other.schema):
            raise ValueError(
                f"incompatible schemas: {self.schema.names} vs {other.schema.names}"
            )

    # ----------------------------------------------------------------- display

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name or '<anon>'}, {len(self)} rows, schema={self.schema.names})"

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by fully qualified column names."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]
