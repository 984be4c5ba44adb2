"""Bag-relational storage layer.

Provides the multiset :class:`Relation` the execution engine operates on
(rows and/or typed numpy columns; see ``repro.storage.columns``), delta
relations capturing inserts and deletes (the paper's δ+ and δ−), in-memory
hash and sorted indexes, and a buffer-pool descriptor consumed by the cost
model.
"""

from repro.storage.columns import NumpyColumnStore
from repro.storage.relation import Relation
from repro.storage.delta import Delta, DeltaKind, DeltaStore
from repro.storage.index import HashIndex, SortedIndex, build_index
from repro.storage.buffer import BufferPool

__all__ = [
    "Relation",
    "NumpyColumnStore",
    "Delta",
    "DeltaKind",
    "DeltaStore",
    "HashIndex",
    "SortedIndex",
    "build_index",
    "BufferPool",
]
