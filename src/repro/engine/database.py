"""The database: named base relations, materialized views and indexes.

A :class:`Database` is the runtime counterpart of the
:class:`~repro.catalog.Catalog`: it owns the actual tuple bags.  The
maintenance layer mutates it by applying deltas to base tables and refreshed
contents to materialized views; tests compare the incrementally maintained
views against recomputation over the same database.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog, IndexDef
from repro.catalog.schema import TableDef
from repro.catalog.statistics import TableStats
from repro.storage.bagdiff import surviving_positions
from repro.storage.delta import Delta, DeltaKind
from repro.storage.index import build_index
from repro.storage.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.operators import AggregateState

#: Insert fraction beyond which ``apply_update`` rebuilds a relation's
#: indexes instead of maintaining them.  Incremental maintenance is O(δ) for
#: hash indexes and one merge for sorted ones, cheaper than the rebuild at
#: any size; the threshold stays because the stream scheduler's round-cost
#: model prices the rebuild penalty from it (``refresh_round_cost``).
INCREMENTAL_INDEX_FRACTION = 0.25


class DatabaseError(KeyError):
    """Raised when a relation is not present in the database."""


class Database:
    """Holds base tables, materialized views and their indexes."""

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self.catalog = catalog or Catalog()
        self._tables: Dict[str, Relation] = {}
        self._views: Dict[str, Relation] = {}
        #: Per stored aggregate view: the exact per-group state differential
        #: maintenance keeps beside it (``operators.AggregateState``), paired
        #: with the very ``Relation`` it describes.  States are replaced,
        #: never mutated, and only this module assigns the mapping (lint
        #: ``REPRO-L010``); see :meth:`aggregate_state` for validity.
        self._aggregate_states: Dict[str, Tuple[Relation, "AggregateState"]] = {}
        self._indexes: Dict[Tuple[str, Tuple[str, ...], str], object] = {}

    # ------------------------------------------------------------------ tables

    def create_table(self, table: TableDef, rows: Optional[Iterable] = None) -> Relation:
        """Create (and register in the catalog) a base table."""
        relation = Relation(table.schema, rows or [], name=table.name)
        self._tables[table.name] = relation
        if not self.catalog.has_table(table.name):
            self.catalog.register_table(table)
        self.refresh_statistics(table.name)
        return relation

    def load_table(self, name: str, relation: Relation) -> None:
        """Replace the contents of an existing table (indexes are rebuilt)."""
        if name not in self._tables and not self.catalog.has_table(name):
            raise DatabaseError(f"unknown table {name!r}")
        relation.name = name
        self._tables[name] = relation
        self.rebuild_indexes(name)
        self.refresh_statistics(name)

    def table(self, name: str) -> Relation:
        """Fetch a base table (or a materialized view registered as a source)."""
        if name in self._tables:
            return self._tables[name]
        if name in self._views:
            return self._views[name]
        raise DatabaseError(f"relation {name!r} not loaded")

    def has_relation(self, name: str) -> bool:
        """Whether a table or view with this name is loaded."""
        return name in self._tables or name in self._views

    def table_names(self) -> List[str]:
        """Names of the loaded base tables."""
        return list(self._tables)

    # ------------------------------------------------------------------- views

    def materialize_view(self, name: str, relation: Relation) -> None:
        """Store (or replace) a materialized view's contents.

        Indexes built over a previous materialization of the same view are
        rebuilt, so index probes never serve rows of replaced contents.
        """
        relation.name = name
        self._views[name] = relation
        self._aggregate_states.pop(name, None)
        self.rebuild_indexes(name)
        # A full replacement invalidates the old distributions wholesale
        # (delta merges maintain them incrementally instead), so re-measure.
        # Measurement is reservoir-sampled, so this costs O(sample) per
        # column, not O(|view|) — cheap enough for temporaries that only
        # re-materialize when actually stale.
        self.refresh_statistics(name, full=True)

    def view(self, name: str) -> Relation:
        """Fetch a materialized view's contents."""
        try:
            return self._views[name]
        except KeyError as exc:
            raise DatabaseError(f"view {name!r} not materialized") from exc

    def has_view(self, name: str) -> bool:
        """Whether a view with this name is materialized."""
        return name in self._views

    def drop_view(self, name: str) -> None:
        """Discard a materialized view (used for temporary materializations)."""
        self._views.pop(name, None)
        self._aggregate_states.pop(name, None)
        self.catalog.drop_view_stats(name)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def view_names(self) -> List[str]:
        """Names of all materialized views."""
        return list(self._views)

    def aggregate_state(self, name: str) -> Optional["AggregateState"]:
        """The δ-aggregate state of stored view ``name``, or ``None``.

        A state is honoured only while it is attached to the very
        :class:`Relation` object :meth:`view` returns: :meth:`update_view`
        stores the successor state together with the merged relation, and
        every other write to the view (:meth:`materialize_view`,
        :meth:`drop_view`, an ``update_view`` without a successor) drops it —
        a state can be missing, never stale.
        """
        entry = self._aggregate_states.get(name)
        if entry is not None and entry[0] is self._views.get(name):
            return entry[1]
        return None

    # ----------------------------------------------------------------- indexes

    def build_index(self, index: IndexDef) -> object:
        """Build an index over a loaded relation and register it in the catalog."""
        relation = self.table(index.table)
        built = build_index(relation, index.columns, kind="hash" if index.kind == "hash" else "btree")
        self._indexes[(index.table, index.columns, index.kind)] = built
        self.catalog.register_index(index)
        return built

    def index_for(self, table: str, columns: Sequence[str]) -> Optional[object]:
        """Find a usable index on ``table`` with leading key ``columns``."""
        wanted = tuple(c.rsplit(".", 1)[-1] for c in columns)
        for (tbl, cols, _kind), built in self._indexes.items():
            if tbl != table:
                continue
            key = tuple(c.rsplit(".", 1)[-1] for c in cols)
            if key[: len(wanted)] == wanted:
                return built
        return None

    def rebuild_indexes(self, table: str) -> None:
        """Rebuild every index on ``table`` (after its contents changed)."""
        for (tbl, cols, kind) in list(self._indexes):
            if tbl == table:
                relation = self.table(table)
                self._indexes[(tbl, cols, kind)] = build_index(
                    relation, cols, kind="hash" if kind == "hash" else "btree"
                )

    # ------------------------------------------------------------------ deltas

    def apply_update(self, relation: str, kind: DeltaKind, delta_rows: Relation) -> None:
        """Apply one single-relation update (insert or delete bag) to a base table.

        Indexes on the relation are maintained from the delta bag instead of
        being rebuilt from scratch: insert positions are appended, delete
        positions remapped.  A full rebuild happens when an insert exceeds
        ``INCREMENTAL_INDEX_FRACTION`` of the relation (the penalty the
        stream cost model prices, not a cost cut-over) or an index cannot be
        maintained incrementally.
        """
        current = self.table(relation)
        if kind is DeltaKind.INSERT:
            self._apply_insert(relation, current, delta_rows)
        else:
            self._apply_delete(relation, current, delta_rows)
        sign = 1 if kind is DeltaKind.INSERT else -1
        self.refresh_statistics(relation, full=False, deltas=((delta_rows, sign),))

    def apply_delta(self, delta: Delta) -> None:
        """Apply a full delta (inserts then deletes) to a base table."""
        if len(delta.inserts):
            self.apply_update(delta.relation, DeltaKind.INSERT, delta.inserts)
        if len(delta.deletes):
            self.apply_update(delta.relation, DeltaKind.DELETE, delta.deletes)

    def update_view(
        self,
        name: str,
        inserts: Optional[Relation] = None,
        deletes: Optional[Relation] = None,
        state: Optional["AggregateState"] = None,
    ) -> None:
        """Merge a computed view differential into the stored view (V ← V − δ− ∪ δ+).

        Like :meth:`apply_update`, view indexes are maintained from the delta
        bags rather than rebuilt, and the view's catalog statistics are
        refreshed so reuse costing never reads a stale cardinality.
        ``state`` is the δ-aggregate state of the *merged* view (the
        differential that produced the bags derived it); without one the
        view's previous state is dropped — even by empty bags, which may hide
        a change of the state (a ``NULL`` joins a group whose ``SUM`` skips it).
        """
        current = self.view(name)
        deltas: List[Tuple[Relation, int]] = []
        if deletes is not None and len(deletes):
            current = self._apply_delete(name, current, deletes)
            deltas.append((deletes, -1))
        if inserts is not None and len(inserts):
            current = self._apply_insert(name, current, inserts)
            deltas.append((inserts, 1))
        if state is None:
            self._aggregate_states.pop(name, None)
        else:
            self._aggregate_states[name] = (current, state)
        self.refresh_statistics(name, full=False, deltas=tuple(deltas))

    # ------------------------------------------------- incremental update steps

    def _store(self, name: str, relation: Relation) -> None:
        if name in self._tables:
            self._tables[name] = relation
        else:
            self._views[name] = relation

    def _indexes_on(self, name: str) -> List[Tuple[Tuple[str, Tuple[str, ...], str], object]]:
        return [(key, built) for key, built in self._indexes.items() if key[0] == name]

    def _apply_insert(self, name: str, current: Relation, delta_rows: Relation) -> Relation:
        """Append an insert bag; index the appended tail incrementally."""
        updated = current.union_all(delta_rows)
        updated.name = name
        self._store(name, updated)
        entries = self._indexes_on(name)
        if entries:
            if len(delta_rows) > INCREMENTAL_INDEX_FRACTION * max(1, len(current)):
                self.rebuild_indexes(name)
            else:
                try:
                    for _, built in entries:
                        built.apply_insert(updated, len(current))
                except Exception:
                    # e.g. un-orderable keys a sorted index cannot merge.
                    self.rebuild_indexes(name)
        return updated

    def _apply_delete(self, name: str, current: Relation, delta_rows: Relation) -> Relation:
        """Remove a delete bag (one copy per match) and remap index positions."""
        keep = current.difference_mask(delta_rows)
        updated = current.masked(keep)
        updated.name = name
        self._store(name, updated)
        entries = self._indexes_on(name)
        try:
            if keep is None:
                for _, built in entries:
                    built.retarget(updated)
            elif entries:
                old_to_new = surviving_positions(keep)
                for _, built in entries:
                    built.apply_delete(updated, old_to_new)
        except Exception:
            self.rebuild_indexes(name)
        return updated

    # ------------------------------------------------------------- statistics

    def refresh_statistics(
        self,
        name: str,
        full: bool = True,
        deltas: Sequence[Tuple[Relation, int]] = (),
    ) -> None:
        """Refresh catalog statistics for a loaded base table or view.

        With ``full`` set (table loads, first sighting of a relation) the
        statistics are measured from scratch — via reservoir sampling for
        large relations.  The delta paths pass ``full=False`` plus the
        applied ``(bag, sign)`` pairs: the cardinality — which drives the
        cost model's scan/reuse/materialize formulas — is updated exactly,
        and the delta bags are folded into the column statistics (histogram
        bucket counts shift, inserted values widen min/max), so view and
        table distributions stay fresh the same incremental way the
        cardinalities already do, at O(|delta|) instead of O(|relation|).
        """
        if name in self._tables and self.catalog.has_table(name):
            relation = self._tables[name]
            existing = (
                self.catalog.stats(name)
                if not full and self.catalog.has_table_stats(name)
                else None
            )
            if existing is None:
                stats = TableStats.from_relation(relation)
            else:
                stats = self._maintained(existing, relation, deltas)
            self.catalog.register_table_stats(name, stats)
        elif name in self._views:
            relation = self._views[name]
            existing = None if full else self.catalog.view_stats(name)
            if existing is None:
                stats = TableStats.from_relation(relation)
            else:
                stats = self._maintained(existing, relation, deltas)
            self.catalog.register_view_stats(name, stats)

    @staticmethod
    def _maintained(
        existing: TableStats, relation: Relation, deltas: Sequence[Tuple[Relation, int]]
    ) -> TableStats:
        """Incrementally maintained statistics after applying ``deltas``."""
        stats = existing
        for bag, sign in deltas:
            stats = stats.updated_by_delta(bag, sign)
        # The relation is the ground truth for cardinality, always exact.
        return stats.with_cardinality(float(len(relation)))

    def copy(self) -> "Database":
        """Deep-enough copy: tuple bags are copied, catalog is shared copy.

        Indexes are cloned (no key is re-derived) and the immutable
        δ-aggregate states are shared, each re-attached to the copied
        relation it describes — a rollback to the copy restores both.
        """
        clone = Database(self.catalog.copy())
        clone._tables = {k: v.copy() for k, v in self._tables.items()}
        clone._views = {k: v.copy() for k, v in self._views.items()}
        clone._aggregate_states = {
            name: (clone._views[name], state)
            for name, (relation, state) in self._aggregate_states.items()
            if relation is self._views.get(name)
        }
        for key, built in self._indexes.items():
            if clone.has_relation(key[0]):
                clone._indexes[key] = built.clone(clone.table(key[0]))
        return clone
