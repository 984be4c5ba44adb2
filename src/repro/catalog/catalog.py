"""The system catalog.

The :class:`Catalog` records table definitions, declared or measured
statistics, and index definitions.  The optimizer and cost model only ever
talk to the catalog — never to the storage layer directly — which is what
lets the benchmark harness run the paper's experiments purely from declared
statistics (as the paper itself did: its numbers are estimated plan costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.schema import Schema, TableDef
from repro.catalog.statistics import TableStats


@dataclass(frozen=True)
class IndexDef:
    """Definition of an index on a stored table or materialized result.

    Parameters
    ----------
    table:
        Name of the indexed table (or materialized view).
    columns:
        Indexed column names, in order.
    kind:
        ``"hash"`` or ``"btree"``; btree indexes additionally provide a sort
        order on their key, which the optimizer models as a physical property.
    unique:
        Whether the key is unique (primary-key indexes are).
    """

    table: str
    columns: Tuple[str, ...]
    kind: str = "btree"
    unique: bool = False

    @property
    def name(self) -> str:
        """A deterministic display name for the index."""
        return f"idx_{self.table}_{'_'.join(c.rsplit('.', 1)[-1] for c in self.columns)}"


class CatalogError(KeyError):
    """Raised when a table or index is not known to the catalog."""


class Catalog:
    """Registry of tables, statistics and indexes known to the optimizer."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableDef] = {}
        self._stats: Dict[str, TableStats] = {}
        self._indexes: Dict[str, List[IndexDef]] = {}
        self._view_stats: Dict[str, TableStats] = {}
        #: Per-relation statistics versions, bumped whenever a table's or
        #: view's statistics are (re)registered.  The cardinality estimator
        #: keys its memo and runtime-feedback observations on these, so
        #: cached estimates never survive a stats change for a relation
        #: they depend on.
        self._stats_versions: Dict[str, int] = {}
        #: :meth:`index_counts`, memoized until an index is added or dropped.
        self._index_counts: Optional[Mapping[str, int]] = None

    def _bump_stats_version(self, name: str) -> None:
        self._stats_versions[name] = self._stats_versions.get(name, 0) + 1

    def stats_version(self, name: str) -> int:
        """Monotonic version of ``name``'s statistics (0 = never registered)."""
        return self._stats_versions.get(name, 0)

    # ------------------------------------------------------------------ tables

    def register_table(
        self,
        table: TableDef,
        stats: Optional[TableStats] = None,
        create_pk_index: bool = False,
    ) -> None:
        """Register a table definition (and optionally statistics and PK index)."""
        self._tables[table.name] = table
        self._indexes.setdefault(table.name, [])
        if stats is not None:
            self._stats[table.name] = stats
            self._bump_stats_version(table.name)
        if create_pk_index and table.primary_key:
            self.register_index(
                IndexDef(table.name, tuple(table.primary_key), kind="btree", unique=True)
            )

    def register_table_stats(self, name: str, stats: TableStats) -> None:
        """Attach or replace statistics for a registered table."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        self._stats[name] = stats
        self._bump_stats_version(name)

    def table(self, name: str) -> TableDef:
        """Look up a table definition."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"unknown table {name!r}") from exc

    def has_table(self, name: str) -> bool:
        """Whether ``name`` is a registered table."""
        return name in self._tables

    def tables(self) -> List[TableDef]:
        """All registered table definitions."""
        return list(self._tables.values())

    def schema(self, name: str) -> Schema:
        """Schema of a registered table."""
        return self.table(name).schema

    def has_table_stats(self, name: str) -> bool:
        """Whether ``name`` has declared or measured statistics recorded."""
        return name in self._stats

    def stats(self, name: str) -> TableStats:
        """Statistics for a table; synthesizes defaults when none declared."""
        if name in self._stats:
            return self._stats[name]
        table = self.table(name)
        return TableStats(cardinality=1000.0, tuple_width=table.tuple_width, column_stats={})

    # ----------------------------------------------------------------- indexes

    def register_index(self, index: IndexDef) -> None:
        """Register an index; duplicates (same table+columns+kind) are ignored."""
        existing = self._indexes.setdefault(index.table, [])
        for idx in existing:
            if idx.columns == index.columns and idx.kind == index.kind:
                return
        existing.append(index)
        self._index_counts = None

    def drop_index(self, index: IndexDef) -> None:
        """Remove an index if present."""
        existing = self._indexes.get(index.table, [])
        self._indexes[index.table] = [
            idx for idx in existing if not (idx.columns == index.columns and idx.kind == index.kind)
        ]
        self._index_counts = None

    def indexes(self, table: str) -> List[IndexDef]:
        """All indexes on ``table``."""
        return list(self._indexes.get(table, []))

    def all_indexes(self) -> List[IndexDef]:
        """Every registered index."""
        return [idx for idxs in self._indexes.values() for idx in idxs]

    def index_counts(self) -> Mapping[str, int]:
        """Read-only map of table -> number of indexes, for tables with any."""
        if self._index_counts is None:
            counts: Dict[str, int] = {}
            for idx in self.all_indexes():
                counts[idx.table] = counts.get(idx.table, 0) + 1
            self._index_counts = MappingProxyType(counts)
        return self._index_counts

    def has_index_on(self, table: str, columns: Sequence[str]) -> bool:
        """Whether an index exists whose leading key matches ``columns``."""
        wanted = tuple(c.rsplit(".", 1)[-1] for c in columns)
        for idx in self._indexes.get(table, []):
            key = tuple(c.rsplit(".", 1)[-1] for c in idx.columns)
            if key[: len(wanted)] == wanted:
                return True
        return False

    # -------------------------------------------------------- view statistics

    def register_view_stats(self, name: str, stats: TableStats) -> None:
        """Attach or replace measured statistics for a materialized view.

        Views are not registered tables (their schemas are derived, not
        declared), so their statistics live in their own namespace; the
        planner consults them when costing reuse of a stored view, and the
        refresher keeps them current as view deltas are merged.
        """
        self._view_stats[name] = stats
        self._bump_stats_version(name)

    def view_stats(self, name: str) -> Optional[TableStats]:
        """Measured statistics for a materialized view, if recorded."""
        return self._view_stats.get(name)

    def drop_view_stats(self, name: str) -> None:
        """Forget a view's statistics (when the view is dropped)."""
        if name in self._view_stats:
            del self._view_stats[name]
            self._bump_stats_version(name)

    # ------------------------------------------------------------------- misc

    def foreign_keys(self) -> List[Tuple[str, str, str, str]]:
        """All foreign keys as ``(table, column, referenced_table, referenced_column)``."""
        result = []
        for table in self._tables.values():
            for col, ref_table, ref_col in table.foreign_keys:
                result.append((table.name, col, ref_table, ref_col))
        return result

    def copy(self) -> "Catalog":
        """A shallow copy: tables, statistics and index lists are new containers.

        ``Database.copy`` is the only caller, so a copied database can add
        indexes and refresh statistics without touching the original's
        catalog.  Greedy never copies the catalog: it tries an index through
        ``MaintenanceCostEngine.add_index``.
        """
        clone = Catalog()
        clone._tables = dict(self._tables)
        clone._stats = dict(self._stats)
        clone._indexes = {k: list(v) for k, v in self._indexes.items()}
        clone._view_stats = dict(self._view_stats)
        clone._stats_versions = dict(self._stats_versions)
        return clone

    def scale_statistics(self, factor: float, tables: Optional[Iterable[str]] = None) -> None:
        """Scale the cardinalities of (some) tables by ``factor`` in place."""
        names = list(tables) if tables is not None else list(self._stats)
        for name in names:
            if name in self._stats:
                self._stats[name] = self._stats[name].scaled(factor)
                self._bump_stats_version(name)
