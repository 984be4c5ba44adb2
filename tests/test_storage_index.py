"""Unit tests for hash and sorted indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Schema
from repro.storage.bagdiff import surviving_positions
from repro.storage.columns import NumpyColumnStore
from repro.storage.columns import numpy as NP
from repro.storage.index import HashIndex, SortedIndex, build_index
from repro.storage.relation import Relation

SCHEMA = Schema.from_names(["k", "g", "v"])
ROWS = [(1, "a", 10), (2, "a", 20), (3, "b", 30), (2, "b", 40)]


@pytest.fixture
def relation():
    return Relation(SCHEMA, ROWS)


def test_hash_index_lookup(relation):
    index = HashIndex(relation, ["k"])
    assert sorted(index.lookup((2,))) == [(2, "a", 20), (2, "b", 40)]
    assert index.lookup((99,)) == []


def test_hash_index_contains_and_len(relation):
    index = HashIndex(relation, ["k"])
    assert (1,) in index
    assert (99,) not in index
    assert len(index) == 4
    assert index.distinct_keys == 3


def test_hash_index_positions(relation):
    index = HashIndex(relation, ["g"])
    assert index.lookup_positions(("a",)) == [0, 1]


def test_sorted_index_equality_lookup(relation):
    index = SortedIndex(relation, ["k"])
    assert sorted(index.lookup((2,))) == [(2, "a", 20), (2, "b", 40)]
    assert index.lookup((99,)) == []


def test_sorted_index_range_queries(relation):
    index = SortedIndex(relation, ["k"])
    assert sorted(index.range(low=(2,), high=(3,))) == [(2, "a", 20), (2, "b", 40), (3, "b", 30)]
    assert sorted(index.range(low=(2,), include_low=False)) == [(3, "b", 30)]
    assert sorted(index.range(high=(1,))) == [(1, "a", 10)]


def test_sorted_index_scan_order(relation):
    index = SortedIndex(relation, ["k"])
    keys = [row[0] for row in index.scan_sorted()]
    assert keys == sorted(keys)
    assert index.distinct_keys == 3
    assert len(index) == 4


def test_composite_key_index(relation):
    index = HashIndex(relation, ["k", "g"])
    assert index.lookup((2, "b")) == [(2, "b", 40)]


def test_build_index_factory(relation):
    assert isinstance(build_index(relation, ["k"], "hash"), HashIndex)
    assert isinstance(build_index(relation, ["k"], "btree"), SortedIndex)
    with pytest.raises(ValueError):
        build_index(relation, ["k"], "bitmap")


# -------------------------------------------------- incremental maintenance
#
# apply_insert/apply_delete must leave the index indistinguishable from one
# rebuilt over the updated relation — same lookups, same lengths, and (for
# sorted indexes) the same scan order.


def assert_same_index(maintained, rebuilt, probe_keys):
    assert len(maintained) == len(rebuilt)
    assert maintained.distinct_keys == rebuilt.distinct_keys
    for key in probe_keys:
        assert sorted(maintained.lookup(key)) == sorted(rebuilt.lookup(key))


@pytest.mark.parametrize("kind", ["hash", "btree"])
def test_apply_insert_matches_rebuild(relation, kind):
    index = build_index(relation, ["k"], kind)
    appended = Relation(SCHEMA, ROWS + [(2, "c", 50), (9, "z", 60)])
    index.apply_insert(appended, start=len(ROWS))
    rebuilt = build_index(appended, ["k"], kind)
    assert_same_index(index, rebuilt, [(1,), (2,), (3,), (9,), (99,)])


@pytest.mark.parametrize("kind", ["hash", "btree"])
def test_apply_delete_matches_rebuild(relation, kind):
    index = build_index(relation, ["k"], kind)
    # Remove positions 1 and 2 ((2, "a", 20) and (3, "b", 30)): the survivors
    # shift down, so every retained entry's position must be remapped.
    keep = [True, False, False, True]
    shrunk = Relation(SCHEMA, [ROWS[0], ROWS[3]])
    assert surviving_positions(keep).tolist() == [0, -1, -1, 1]
    index.apply_delete(shrunk, old_to_new=surviving_positions(keep))
    rebuilt = build_index(shrunk, ["k"], kind)
    assert_same_index(index, rebuilt, [(1,), (2,), (3,), (99,)])
    assert index.lookup((3,)) == []


def test_sorted_index_apply_insert_keeps_scan_order(relation):
    index = SortedIndex(relation, ["k"])
    appended = Relation(SCHEMA, ROWS + [(0, "q", 5), (2, "q", 45)])
    index.apply_insert(appended, start=len(ROWS))
    keys = [row[0] for row in index.scan_sorted()]
    assert keys == sorted(keys)


@pytest.mark.parametrize("kind", ["hash", "btree"])
def test_clone_answers_like_rebuilt_and_is_independent(relation, kind):
    index = build_index(relation, ["k"], kind)
    copied = relation.copy()
    clone = index.clone(copied)
    probes = [(1,), (2,), (3,), (9,), (99,)]
    assert type(clone) is type(index) and clone.columns == index.columns
    assert_same_index(clone, build_index(copied, ["k"], kind), probes)
    if kind == "btree":
        assert clone.range(low=(2,)) == index.range(low=(2,))

    # Maintaining the original afterwards does not reach the clone ...
    appended = Relation(SCHEMA, ROWS + [(2, "c", 50), (9, "z", 60)])
    index.apply_insert(appended, start=len(ROWS))
    index.apply_delete(
        Relation(SCHEMA, appended.rows[1:]), surviving_positions([False] + [True] * 5)
    )
    assert_same_index(clone, build_index(copied, ["k"], kind), probes)
    # ... and the clone is maintainable on its own.
    clone.apply_insert(Relation(SCHEMA, ROWS + [(9, "y", 70)]), start=len(ROWS))
    assert clone.lookup((9,)) == [(9, "y", 70)]
    assert sorted(index.lookup((9,))) == [(9, "z", 60)]


def test_retarget_keeps_positions(relation):
    index = HashIndex(relation, ["k"])
    replacement = Relation(SCHEMA, list(ROWS))
    index.retarget(replacement)
    assert sorted(index.lookup((2,))) == [(2, "a", 20), (2, "b", 40)]


# ------------------------------------------- store-only relations stay lazy


@pytest.mark.parametrize("kind", ["hash", "btree"])
def test_store_only_relation_is_never_materialized(kind):
    def store_only(rows):
        return Relation.from_store(SCHEMA, NumpyColumnStore.from_rows(rows, 3))

    relation = store_only(ROWS)
    index = build_index(relation, ["k"], kind)
    grown = relation.union_all(store_only([(2, "c", 50), (9, "z", 60)]))
    index.apply_insert(grown, start=len(ROWS))
    shrunk = grown.masked(NP.array([True, False, True, True, True, True]))
    index.apply_delete(shrunk, surviving_positions([True, False, True, True, True, True]))
    assert sorted(index.lookup((2,))) == [(2, "b", 40), (2, "c", 50)]
    if kind == "btree":
        assert index.range(low=(3,)) == [(3, "b", 30), (9, "z", 60)]
        assert index.prefix_lookup((9,)) == [(9, "z", 60)]
        assert [row[0] for row in index.scan_sorted()] == [1, 2, 2, 3, 9]
    for each in (relation, grown, shrunk):
        assert each._rows is None


# ------------------------------------ sorted index: maintained == rebuilt

KEYS = {
    # Composite int keys with many ties, and string keys.
    "ints": (Schema.from_names(["a", "b", "p"]), ["a", "b"],
             st.tuples(st.integers(0, 3), st.integers(-2, 2), st.integers(0, 9))),
    "strings": (Schema.from_names(["s", "p"]), ["s"],
                st.tuples(st.sampled_from(["", "a", "ab", "b"]), st.integers(0, 9))),
}


@st.composite
def index_histories(draw):
    label = draw(st.sampled_from(sorted(KEYS)))
    schema, columns, row = KEYS[label]
    initial = draw(st.lists(row, max_size=12))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.lists(row, min_size=1, max_size=6)),
            st.tuples(st.just("delete"), st.lists(st.booleans(), min_size=40, max_size=40)),
            st.tuples(st.just("clone"), st.none()),
        ),
        max_size=8,
    ))
    return schema, columns, initial, ops, draw(st.booleans())


def _sorted_reference(relation, columns):
    """Rows in key order, ties in position order — the order a rebuild gives."""
    positions = relation.schema.positions(columns)
    rows = list(relation.iter_rows())
    return sorted(rows, key=lambda row: tuple(row[i] for i in positions))


def _assert_like_rebuild(index, relation, columns):
    rebuilt = SortedIndex(relation, columns)
    assert len(index) == len(rebuilt) == len(relation)
    assert index.distinct_keys == rebuilt.distinct_keys
    assert list(index.scan_sorted()) == list(rebuilt.scan_sorted())
    assert list(index.scan_sorted()) == _sorted_reference(relation, columns)
    keys = sorted({tuple(row[i] for i in relation.schema.positions(columns))
                   for row in relation.iter_rows()})
    for key in keys:
        assert index.lookup(key) == rebuilt.lookup(key)
        assert index.prefix_lookup(key[:1]) == rebuilt.prefix_lookup(key[:1])
    for low, high in zip([None] + keys, keys[::-1] + [None]):
        for closed in (True, False):
            assert index.range(low, high, closed, closed) == rebuilt.range(low, high, closed, closed)


@given(index_histories())
@settings(max_examples=150, deadline=None)
def test_sorted_index_maintenance_equals_rebuild(history):
    schema, columns, initial, ops, columnar = history
    relation = Relation(schema, initial)
    if columnar:
        relation = Relation.from_store(schema, relation.vector_store())
    index = SortedIndex(relation, columns)
    frozen = []  # (index, relation) pairs left behind by clone
    for op, arg in ops:
        if op == "insert":
            grown = relation.union_all(Relation(schema, arg))
            index.apply_insert(grown, start=len(relation))
            relation = grown
        elif op == "delete":
            keep = NP.array(arg[: len(relation)], dtype=bool)
            relation = relation.masked(keep)
            index.apply_delete(relation, surviving_positions(keep))
        else:
            frozen.append((index, relation, list(index.scan_sorted())))
            relation = relation.copy()
            index = index.clone(relation)
        _assert_like_rebuild(index, relation, columns)
    for old, old_relation, scan in frozen:
        assert list(old.scan_sorted()) == scan
        _assert_like_rebuild(old, old_relation, columns)
