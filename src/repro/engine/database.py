"""The database: named base relations, materialized views and indexes.

A :class:`Database` is the runtime counterpart of the
:class:`~repro.catalog.Catalog`: it owns the actual tuple bags.  The
maintenance layer mutates it by applying deltas to base tables and refreshed
contents to materialized views; tests compare the incrementally maintained
views against recomputation over the same database.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.catalog.catalog import Catalog, IndexDef
from repro.catalog.schema import TableDef
from repro.catalog.statistics import TableStats
from repro.storage.bagdiff import surviving_positions
from repro.storage.delta import Delta, DeltaKind
from repro.storage.index import build_index
from repro.storage.relation import Merged, Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.operators import AggregateState

#: One merge step: the bags ``(inserts, deletes)``, either may be ``None``.
Step = Tuple[Optional[Relation], Optional[Relation]]

#: Per merge step, the ``(bag, sign)`` pairs it applied and the relation's
#: length after it: what incremental statistics maintenance replays.
StatsStep = Tuple[Sequence[Tuple[Relation, int]], int]


class DatabaseError(KeyError):
    """Raised when a relation is not present in the database."""


class ViewMerge(NamedTuple):
    """One merge of a view's logged differentials (:meth:`Database.step_log`)."""

    view: str
    #: How the merge located its deletes: ``fingerprint``,
    #: ``fallback:collision`` or ``rows`` (see :meth:`Relation.merge_steps`).
    route: str
    #: Whether a read of the view in the middle of the refresh forced it.
    read_through: bool


@dataclass
class _StepLog:
    """A view's differentials not merged yet, and the state after them."""

    steps: List[Step] = field(default_factory=list)
    state: Optional["AggregateState"] = None


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
        #: While :meth:`step_log` is open: per view, the differentials logged
        #: by :meth:`log_view_step` and not merged yet (``None``: closed).
        self._logs: Optional[Dict[str, _StepLog]] = None
        #: The merges of the open step log, as :meth:`step_log` yields them.
        self._merges: List[ViewMerge] = []

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
            return self.view(name)
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
        if self._logs is not None:
            self._logs.pop(name, None)
        self.rebuild_indexes(name)
        # A full replacement invalidates the old distributions wholesale
        # (delta merges maintain them incrementally instead), so re-measure.
        # Measurement is reservoir-sampled, so this costs O(sample) per
        # column, not O(|view|) — cheap enough for temporaries that only
        # re-materialize when actually stale.
        self.refresh_statistics(name, full=True)

    def view(self, name: str) -> Relation:
        """Fetch a materialized view's contents (merging its logged steps first)."""
        self._settle(name)
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
        if self._logs is not None:
            self._logs.pop(name, None)
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
        a state can be missing, never stale.  While the view has logged
        steps, the state is the one the last step handed over, which their
        merge will attach: reading it forces no merge.
        """
        log = self._logs.get(name) if self._logs is not None else None
        if log is not None:
            return log.state
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
        self._settle(table)
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
        being rebuilt from scratch, whatever the delta's size: insert
        positions are appended, delete positions remapped.  A full rebuild
        happens only when an index cannot be maintained incrementally.
        """
        step: Step = (delta_rows, None) if kind is DeltaKind.INSERT else (None, delta_rows)
        merged = self._merge(relation, self.table(relation), [step])
        self.refresh_statistics(relation, full=False, steps=[(_bags(*step), len(merged.relation))])

    def apply_delta(self, delta: Delta) -> None:
        """Apply a full delta (inserts then deletes) to a base table."""
        if len(delta.inserts):
            self.apply_update(delta.relation, DeltaKind.INSERT, delta.inserts)
        if len(delta.deletes):
            self.apply_update(delta.relation, DeltaKind.DELETE, delta.deletes)

    # ---------------------------------------------------------- view merges

    @contextmanager
    def step_log(self) -> Iterator[List[ViewMerge]]:
        """Log view differentials for the block, merging each view once.

        Inside the block, :meth:`log_view_step` appends a view's
        differential to its log instead of merging it.  A log is merged —
        all its steps in one :meth:`update_view` — by the first read of the
        view (:meth:`view`, :meth:`table`, :meth:`index_for`,
        :meth:`refresh_statistics`, :meth:`copy`), so a read in the middle
        sees exactly the contents step-by-step merging would have left, and
        at the latest when the block exits, also by an exception.
        :meth:`aggregate_state` answers from the log without merging.
        Yields the list of merges, which grows as they happen.
        """
        if self._logs is not None:
            raise RuntimeError("a step log is already open on this database")
        self._logs, self._merges = {}, []
        merges = self._merges
        try:
            yield merges
        finally:
            try:
                for name in list(self._logs):
                    self._settle(name, read_through=False)
            finally:
                self._logs = None

    def log_view_step(
        self,
        name: str,
        inserts: Optional[Relation] = None,
        deletes: Optional[Relation] = None,
        state: Optional["AggregateState"] = None,
    ) -> None:
        """Record one differential of view ``name`` for a later merge.

        Takes what :meth:`update_view` takes.  Outside :meth:`step_log` the
        step is merged at once.
        """
        if self._logs is None:
            self.update_view(name, inserts, deletes, state)
            return
        if name not in self._views:
            raise DatabaseError(f"view {name!r} not materialized")
        if name not in self._logs and not _bags(inserts, deletes):
            # Nothing to merge: the state alone changes hands, as a merge of
            # empty bags would hand it over.
            self._hand_over(name, self._views[name], state)
            self.refresh_statistics(name, full=False, steps=(((), len(self._views[name])),))
            return
        log = self._logs.setdefault(name, _StepLog())
        log.steps.append((inserts, deletes))
        log.state = state

    def update_view(
        self,
        name: str,
        inserts: Optional[Relation] = None,
        deletes: Optional[Relation] = None,
        state: Optional["AggregateState"] = None,
    ) -> str:
        """Merge a computed view differential into the stored view (V ← V − δ− ∪ δ+).

        The view's logged steps (:meth:`log_view_step`), if any, come first:
        all of them and this one are merged together, in one pass over the
        view (:meth:`Relation.merge_steps`), with exactly the rows, row order
        and statistics that merging them one by one gives.  Outside a step
        log this is a one-step merge.

        Like :meth:`apply_update`, view indexes are maintained from the delta
        bags rather than rebuilt, and the view's catalog statistics are
        refreshed so reuse costing never reads a stale cardinality.
        ``state`` is the δ-aggregate state of the *merged* view (the
        differential that produced the bags derived it); without one the
        view's previous state is dropped — even by empty bags, which may hide
        a change of the state (a ``NULL`` joins a group whose ``SUM`` skips it).
        Returns the merge route.
        """
        if name not in self._views:
            raise DatabaseError(f"view {name!r} not materialized")
        log = self._logs.pop(name, None) if self._logs is not None else None
        steps = (log.steps if log is not None else []) + [(inserts, deletes)]
        merged = self._merge(name, self._views[name], steps)
        self._hand_over(name, merged.relation, state)
        self.refresh_statistics(
            name,
            full=False,
            steps=[
                (_bags(inserts, deletes), length)
                for (inserts, deletes), length in zip(steps, merged.lengths)
            ],
        )
        return merged.route

    def _hand_over(self, name: str, relation: Relation, state: Optional["AggregateState"]) -> None:
        """Attach ``state`` to the stored ``relation`` (``None`` drops the old one)."""
        if state is None:
            self._aggregate_states.pop(name, None)
        else:
            self._aggregate_states[name] = (relation, state)

    def _settle(self, name: str, read_through: bool = True) -> None:
        """Merge the logged steps of view ``name``, if it has any.

        The last step is handed to :meth:`update_view` as its own, which
        merges the rest of the log before it.
        """
        log = self._logs.get(name) if self._logs is not None else None
        if log is None:
            return
        inserts, deletes = log.steps.pop()
        route = self.update_view(name, inserts, deletes, log.state)
        self._merges.append(ViewMerge(name, route, read_through))

    # ------------------------------------------------- incremental update steps

    def _indexes_on(self, name: str) -> List[Tuple[Tuple[str, Tuple[str, ...], str], object]]:
        return [(key, built) for key, built in self._indexes.items() if key[0] == name]

    def _merge(self, name: str, current: Relation, steps: Sequence[Step]) -> Merged:
        """Store ``current`` after ``steps`` and follow it with every index.

        Indexes remap the surviving positions of ``current`` and append the
        surviving inserted tail.
        """
        merged = current.merge_steps(steps)
        updated = merged.relation
        if updated is current:
            return merged
        updated.name = name
        if name in self._tables:
            self._tables[name] = updated
        else:
            self._views[name] = updated
        entries = self._indexes_on(name)
        if not entries:
            return merged
        start = len(updated) - merged.appended
        try:
            old_to_new = None if merged.keep is None else surviving_positions(merged.keep)
            for _, built in entries:
                if old_to_new is not None:
                    built.apply_delete(updated, old_to_new)
                if merged.appended:
                    built.apply_insert(updated, start)
                elif old_to_new is None:
                    built.retarget(updated)
        except Exception:
            # e.g. un-orderable keys a sorted index cannot merge.
            self.rebuild_indexes(name)
        return merged

    # ------------------------------------------------------------- statistics

    def refresh_statistics(
        self,
        name: str,
        full: bool = True,
        steps: Sequence[StatsStep] = (),
    ) -> None:
        """Refresh catalog statistics for a loaded base table or view.

        With ``full`` set (table loads, first sighting of a relation) the
        statistics are measured from scratch — via reservoir sampling for
        large relations.  The delta paths pass ``full=False`` plus, per
        merge step, the applied ``(bag, sign)`` pairs and the relation's
        length after the step: the cardinality — which drives the cost
        model's scan/reuse/materialize formulas — is set exactly after each
        step, and the delta bags are folded into the column statistics
        (histogram bucket counts shift, inserted values widen min/max), so
        view and table distributions stay fresh the same incremental way the
        cardinalities already do, at O(|delta|) instead of O(|relation|).
        """
        self._settle(name)
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
                stats = self._maintained(existing, steps)
            self.catalog.register_table_stats(name, stats)
        elif name in self._views:
            relation = self._views[name]
            existing = None if full else self.catalog.view_stats(name)
            if existing is None:
                stats = TableStats.from_relation(relation)
            else:
                stats = self._maintained(existing, steps)
            self.catalog.register_view_stats(name, stats)

    @staticmethod
    def _maintained(existing: TableStats, steps: Sequence[StatsStep]) -> TableStats:
        """Incrementally maintained statistics after applying ``steps``."""
        stats = existing
        for deltas, cardinality in steps:
            for bag, sign in deltas:
                stats = stats.updated_by_delta(bag, sign)
            # The relation is the ground truth for cardinality, always exact.
            stats = stats.with_cardinality(float(cardinality))
        return stats

    def copy(self) -> "Database":
        """Deep-enough copy: tuple bags are copied, catalog is shared copy.

        Indexes are cloned (no key is re-derived) and the immutable
        δ-aggregate states are shared, each re-attached to the copied
        relation it describes — a rollback to the copy restores both.  Logged
        view steps are merged first; the copy has no step log open.
        """
        for name in list(self._logs or ()):
            self._settle(name)
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


def _bags(inserts: Optional[Relation], deletes: Optional[Relation]) -> List[Tuple[Relation, int]]:
    """The non-empty bags of one step as ``(bag, sign)``, deletes first."""
    bags = []
    if deletes is not None and len(deletes):
        bags.append((deletes, -1))
    if inserts is not None and len(inserts):
        bags.append((inserts, 1))
    return bags
