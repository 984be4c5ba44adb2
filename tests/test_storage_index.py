"""Unit tests for hash and sorted indexes."""

import pytest

from repro.catalog.schema import Schema
from repro.storage.bagdiff import surviving_positions
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
    assert surviving_positions(keep) == [0, -1, -1, 1]
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
