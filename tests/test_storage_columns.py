"""The column store and the Relation store lifecycle.

Covers the store operations the engine relies on, the invalidation
chokepoint (satellite of the columnar-engine PR: a mutation after a cached
column read must never serve stale columns), and the store hand-over APIs
the database update path relies on.
"""

import pytest

from repro.catalog.schema import Schema
from repro.storage.columns import NumpyColumnStore
from repro.storage.relation import Relation

SCHEMA = Schema.of(("a", "INTEGER"), ("b", "VARCHAR"), ("c", "DOUBLE"))
ROWS = [
    (1, "x", 1.5),
    (2, "y", -0.5),
    (2, None, 2.25),
    (None, "z", None),
]

#: Keeps the ``[numpy]`` ids these tests were recorded under (the test floor
#: and CI history name them); there is one store, so nothing to vary.
numpy_id = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def _store(rows=ROWS):
    return NumpyColumnStore.from_rows(rows, 3)


# ------------------------------------------------------------ store operations


@numpy_id
def test_round_trip_preserves_rows_and_nulls():
    store = _store()
    assert len(store) == len(ROWS)
    assert store.arity == 3
    assert store.to_rows() == ROWS
    assert list(store.iter_rows()) == ROWS


@numpy_id
def test_column_native_returns_python_values():
    store = _store()
    column = store.column_native(0)
    assert tuple(column) == (1, 2, 2, None)
    # Native values, not numpy scalars: ints hash/compare like dict keys.
    assert all(v is None or type(v) is int for v in column)


@numpy_id
def test_take_reorders_columns_by_reference():
    store = _store()
    assert store.take([2, 0]).to_rows() == [(r[2], r[0]) for r in ROWS]


@numpy_id
def test_gather_mask_concat_hstack():
    store = _store()
    assert store.gather([3, 1, 1]).to_rows() == [ROWS[3], ROWS[1], ROWS[1]]
    assert store.mask([True, False, True, False]).to_rows() == [ROWS[0], ROWS[2]]
    doubled = store.concat(store)
    assert doubled.to_rows() == ROWS + ROWS
    wide = store.hstack(store)
    assert wide.arity == 6
    assert wide.to_rows() == [r + r for r in ROWS]


@numpy_id
def test_empty_store():
    store = _store(rows=[])
    assert len(store) == 0
    assert store.to_rows() == []
    assert store.mask([]).to_rows() == []


def test_numpy_mask_accepts_plain_bool_lists():
    store = _store()
    assert store.mask([False, True, False, True]).to_rows() == [ROWS[1], ROWS[3]]


# ------------------------------------------ invalidation regression (satellite)


@numpy_id
def test_mutation_after_cached_column_read_never_serves_stale_columns():
    relation = Relation(SCHEMA, list(ROWS))
    # Populate every derived representation a reader can cache.
    assert relation.column_at(0) == (1, 2, 2, None)
    assert relation.columns()[1] == ("x", "y", None, "z")
    assert relation.vector_store() is not None
    relation.add((7, "w", 0.0))
    assert relation.column_at(0) == (1, 2, 2, None, 7)
    assert relation.columns()[1] == ("x", "y", None, "z", "w")
    assert relation.vector_store().to_rows()[-1] == (7, "w", 0.0)
    relation.extend([(8, "v", 1.0)])
    assert relation.column_at(0)[-1] == 8
    assert relation.cached_store() is None


# --------------------------------------------------------- store hand-over APIs


def test_copy_shares_the_cached_store():
    # Stores are immutable: a copy owns its row list but shares the columns,
    # so Database.copy() does not cost a dtype re-inference per table.
    relation = Relation(SCHEMA, list(ROWS))
    store = relation.vector_store()
    clone = relation.copy()
    assert clone.cached_store() is store
    clone.add((9, "q", 2.0))
    assert clone.cached_store() is None  # mutation still invalidates the copy
    assert relation.cached_store() is store and relation.rows == ROWS


def test_from_store_rows_are_lazy_and_identical():
    store = NumpyColumnStore.from_rows(ROWS, 3)
    relation = Relation.from_store(SCHEMA, store)
    assert len(relation) == len(ROWS)
    assert list(relation.iter_rows()) == ROWS
    assert relation.rows == ROWS


@numpy_id
def test_vector_store_gates():
    relation = Relation(SCHEMA, list(ROWS))
    small = relation.vector_store(min_rows=100)
    assert small is None  # below the build threshold, never built
    assert relation.cached_store() is None
    store = relation.vector_store(min_rows=0)
    assert isinstance(store, NumpyColumnStore)
    assert relation.cached_store() is store
    # Cached stores are returned regardless of any later threshold.
    assert relation.vector_store(min_rows=10**6) is store


# ------------------------------------------------------ concat dtype rule


def _column(kind, values):
    """A one-column store whose column has the dtype ``kind`` names."""
    if kind == "object-int":
        # Holds only ints but stays object, as a masked None-bearing column does.
        return NumpyColumnStore.from_rows([(v,) for v in values + [None]], 1).mask(
            [True] * len(values) + [False]
        )
    return NumpyColumnStore.from_rows([(v,) for v in values], 1)


_KINDS = {
    "int64": [3, -1, 2**40],
    "float64": [0.5, -2.25, 3.0],
    "object-str": ["a", "bb", ""],
    "object-none": [1, None, 2.5],
    "object-bigint": [2**70, 1],
    "object-int": [7, 8],
    "empty": [],
}


@pytest.mark.parametrize("left", sorted(_KINDS))
@pytest.mark.parametrize("right", sorted(_KINDS))
def test_concat_matches_reinferring_the_joined_values(left, right):
    from repro.storage.columns import _typed_array

    a, b = _column(left, _KINDS[left]), _column(right, _KINDS[right])
    joined = a.concat(b).column(0)
    expected = _typed_array(a.column(0).tolist() + b.column(0).tolist())
    values, reference = joined.tolist(), expected.tolist()
    assert values == reference
    assert [type(v) for v in values] == [type(v) for v in reference]
    # The one documented difference: an object column holding only ints
    # stays object instead of being re-inferred as int64.
    if "object-int" in (left, right):
        assert joined.dtype == object
    else:
        assert joined.dtype == expected.dtype
