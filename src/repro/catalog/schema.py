"""Relational schemas.

A :class:`Schema` is an ordered list of named, typed columns.  Columns are
identified by a possibly-qualified name (``"orders.o_orderkey"`` or just
``"o_orderkey"``); resolution is by suffix match so that expressions written
against base-table column names keep working on join results whose schema
concatenates the inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class ColumnType(enum.Enum):
    """Logical column types.

    Only the width matters to the cost model; values are ordinary Python
    objects at execution time.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOLEAN = "boolean"

    def default_width(self) -> int:
        """Return the default on-disk width in bytes used by the cost model."""
        return _DEFAULT_WIDTHS[self]


_DEFAULT_WIDTHS = {
    ColumnType.INTEGER: 4,
    ColumnType.FLOAT: 8,
    ColumnType.STRING: 24,
    ColumnType.DATE: 4,
    ColumnType.BOOLEAN: 1,
}


@dataclass(frozen=True)
class Column:
    """A single column of a schema.

    Parameters
    ----------
    name:
        Column name, optionally qualified as ``table.column``.
    ctype:
        Logical type, used for default widths.
    width:
        On-disk width in bytes; defaults to the type's default width.
    """

    name: str
    ctype: ColumnType = ColumnType.INTEGER
    width: Optional[int] = None

    @property
    def byte_width(self) -> int:
        """Width in bytes as seen by the cost model."""
        if self.width is not None:
            return self.width
        return self.ctype.default_width()

    @property
    def unqualified(self) -> str:
        """The column name without any table qualifier."""
        return self.name.rsplit(".", 1)[-1]

    def renamed(self, new_name: str) -> "Column":
        """Return a copy of the column with a different name."""
        return Column(new_name, self.ctype, self.width)


class SchemaError(ValueError):
    """Raised when a column cannot be resolved or schemas are incompatible."""


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Column` objects.

    Schemas are immutable; operations that change them return new schemas.
    """

    columns: Tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    @staticmethod
    def of(*columns: Column) -> "Schema":
        """Build a schema from column objects."""
        return Schema(tuple(columns))

    @staticmethod
    def from_names(names: Sequence[str], ctype: ColumnType = ColumnType.INTEGER) -> "Schema":
        """Build a schema where every column has the same type."""
        return Schema(tuple(Column(n, ctype) for n in names))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    @cached_property
    def names(self) -> Tuple[str, ...]:
        """Fully qualified column names in order (computed once: the schema
        and its columns are immutable)."""
        return tuple(c.name for c in self.columns)

    @property
    def tuple_width(self) -> int:
        """Total tuple width in bytes (used by the cost model)."""
        return sum(c.byte_width for c in self.columns) or 1

    def index_of(self, name: str) -> int:
        """Resolve ``name`` to a column position.

        Exact matches win; otherwise a unique suffix match on the unqualified
        name is accepted.  Raises :class:`SchemaError` if the name is missing
        or ambiguous.
        """
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        target = name.rsplit(".", 1)[-1]
        matches = [i for i, col in enumerate(self.columns) if col.unqualified == target]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise SchemaError(f"column {name!r} not found in schema {self.names}")
        raise SchemaError(f"column {name!r} is ambiguous in schema {self.names}")

    def column(self, name: str) -> Column:
        """Return the column object for ``name``."""
        return self.columns[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema containing only ``names`` (in the given order)."""
        return Schema(tuple(self.columns[self.index_of(n)] for n in names))

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (as a join does)."""
        return Schema(self.columns + other.columns)

    def rename_prefix(self, prefix: str) -> "Schema":
        """Return a schema with every column re-qualified under ``prefix``."""
        return Schema(tuple(c.renamed(f"{prefix}.{c.unqualified}") for c in self.columns))

    def positions(self, names: Iterable[str]) -> List[int]:
        """Resolve many names at once."""
        return [self.index_of(n) for n in names]


@dataclass(frozen=True)
class TableDef:
    """Definition of a stored base table.

    Parameters
    ----------
    name:
        Table name.
    schema:
        Table schema; column names should be qualified with the table name
        when used in multi-table expressions (the TPC-D schema uses globally
        unique column prefixes, so unqualified names are fine there).
    primary_key:
        Names of the primary-key columns, if any.
    foreign_keys:
        Mapping from a local column name to ``(referenced_table,
        referenced_column)``.  Used by the optional foreign-key pruning of
        empty differentials (paper §5.3).
    """

    name: str
    schema: Schema
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[Tuple[str, str, str], ...] = ()

    @property
    def tuple_width(self) -> int:
        """Width of one tuple of the table in bytes."""
        return self.schema.tuple_width
