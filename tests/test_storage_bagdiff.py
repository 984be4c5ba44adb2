"""``store_keep_mask`` against the reference loop ``first_matches``.

Every path the column-store subtraction can take — int-first ``isin``
narrowing, narrowing continued past ``4·|δ⁻|``, no numeric column to narrow
on, ``None`` beside strings or NaN deletes, cells equal across types, and a
fingerprint collision that falls back — must remove exactly the positions
the Counter loop removes over the whole store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Schema
from repro.storage import bagdiff
from repro.storage.bagdiff import first_matches, store_keep_mask
from repro.storage.columns import NumpyColumnStore
from repro.storage.columns import numpy as np
from repro.storage.relation import Relation

#: Value pools per column kind.  Small pools make duplicates, matches and
#: over-deletes common; ``int-wide`` is nearly unique, so ``isin`` narrows.
POOLS = {
    "int": st.integers(0, 4),
    "int-wide": st.integers(0, 10_000),
    "float": st.sampled_from([0.5, 1.0, 2.5, -3.0]),
    "float-nan": st.sampled_from([0.5, 1.0, float("nan")]),
    "str": st.sampled_from(["a", "b", "cc"]),
    "str-none": st.sampled_from(["a", "b", None]),
}
#: Values outside every pool: deletes built from them match nothing.
UNMATCHED = {"int": 99, "int-wide": -1, "float": 7.25, "float-nan": 7.25,
             "str": "zz", "str-none": "zz"}


def _own_nans(rows):
    """A fresh object per NaN cell, as rows read out of a store have."""
    return [
        tuple(float("nan") if isinstance(v, float) and v != v else v for v in row)
        for row in rows
    ]


def _removed(store, delete_rows):
    schema = Schema.from_names([f"c{i}" for i in range(store.arity)])
    keep = store_keep_mask(store, Relation(schema, delete_rows))
    return [] if keep is None else np.flatnonzero(~keep).tolist()


@st.composite
def store_and_deletes(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(*(POOLS[k] for k in kinds)), min_size=1, max_size=60))
    hits = draw(st.lists(st.sampled_from(rows), max_size=len(rows) + 5))
    over = draw(st.lists(st.sampled_from(rows), max_size=3)) * 3
    unmatched = [tuple(UNMATCHED[k] for k in kinds)] * draw(st.integers(0, 2))
    deletes = draw(st.permutations(hits + over + unmatched))
    return kinds, _own_nans(rows), _own_nans(deletes)


@given(store_and_deletes())
@settings(max_examples=300, deadline=None)
def test_store_keep_mask_removes_the_first_match_positions(case):
    _kinds, rows, deletes = case
    store = NumpyColumnStore.from_rows(rows, len(rows[0]))
    assert _removed(store, deletes) == first_matches(store.to_rows(), deletes)


# ------------------------------------------------------------ route coverage


class _IsinSpy:
    """numpy with ``isin`` recorded as ``(dtype kind, length)`` per call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def isin(self, column, probe):
        self.calls.append((column.dtype.kind, len(column)))
        return np.isin(column, probe)


@pytest.fixture
def routes(monkeypatch):
    """Record the isin passes and fingerprinted row counts of one call."""
    seen = {"hashed": []}
    spy = _IsinSpy()
    seen["isin"] = spy.calls
    fingerprinted = bagdiff._fingerprint_removed

    def fingerprint_spy(candidates, probes):
        seen["hashed"].append(len(candidates))
        return fingerprinted(candidates, probes)

    monkeypatch.setattr(bagdiff, "_np", spy)
    monkeypatch.setattr(bagdiff, "_fingerprint_removed", fingerprint_spy)
    return seen


def _check(rows, deletes):
    store = NumpyColumnStore.from_rows(rows, len(rows[0]))
    assert _removed(store, deletes) == first_matches(rows, deletes)


def test_route_int_columns_narrow_before_float_ones(routes):
    rows = [(i % 3 * 0.5, i % 50, "x") for i in range(200)]
    deletes = [rows[7], rows[7], rows[150], (0.5, 99, "x")]
    _check(rows, deletes)
    # The int column runs first over the whole store, the float one over the
    # eight rows it left; only the six the float column keeps are hashed.
    assert routes["isin"] == [("i", 200), ("f", 8)]
    assert routes["hashed"] == [6]


def test_route_narrowing_continues_past_four_times_the_deletes(routes):
    rows = [(i % 100, i % 50, i, i % 3) for i in range(400)]
    deletes = [rows[i] for i in range(0, 40, 4)]
    _check(rows, deletes)
    # The first column narrows 400 → 40 = 4·|δ⁻|.  The second, determined by
    # the first, removes nothing and does not stop the narrowing; the third
    # leaves the 10 deleted rows, and with |δ⁻| candidates left the fourth
    # never runs.
    assert routes["isin"] == [("i", 400), ("i", 40), ("i", 40)]
    assert routes["hashed"] == [10]


def test_route_string_columns_hash_the_whole_store(routes):
    rows = [(s, t) for s in "abcd" for t in "xyz"] * 5
    deletes = [("a", "x"), ("a", "x"), ("d", "z"), ("q", "q")]
    _check(rows, deletes)
    assert routes["isin"] == [] and routes["hashed"] == [60]


@pytest.mark.parametrize(
    "rows, deletes, walked",
    [
        # None beside strings: the 30 candidates the int column left are
        # hashed, None equal to None as in the Counter loop.
        ([(s, i % 2) for i, s in enumerate(["a", None, "b"] * 10)],
         [("a", 0), (None, 1), (None, 1)], 30),
        # A NaN delete matches nothing, in isin as in the Counter loop; the
        # ten 1.0 rows isin left are hashed.
        ([(float(i % 3), "x") for i in range(30)] + [(float("nan"), "x")],
         [(1.0, "x"), (float("nan"), "x")], 10),
    ],
    ids=["none-beside-strings", "nan-delete"],
)
def test_route_none_and_nan_are_hashed_like_the_counter_loop(
    routes, rows, deletes, walked
):
    _check(rows, deletes)
    assert routes["hashed"] == [walked]


# ------------------------------------------------------------- fingerprints

#: Column kinds whose cells compare equal across types: ``1 == 1.0 == True``
#: and ``-0.0 == 0.0`` in the Counter loop, big ints and ``None`` only in an
#: ``object`` column, NaN equal to nothing.
MIXED_POOLS = {
    "int": st.integers(-2, 2),
    "float": st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, float("nan")]),
    "object": st.sampled_from([0, 1, 1.0, -0.0, True, None, "1", 2**70, -(2**64)]),
    "big-int": st.sampled_from([1, 2**63, 2**64 + 1, -(2**70)]),
}


def _equal_other_type(value, flip):
    """A value the Counter loop finds equal to ``value``, of another type."""
    if not flip or isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int) and abs(value) < 2**53:
        return float(value)
    if isinstance(value, float) and value == value and value.is_integer():
        return -0.0 if value == 0 else int(value)
    return value


@st.composite
def mixed_store_and_deletes(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(MIXED_POOLS)), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(*(MIXED_POOLS[k] for k in kinds)), min_size=1, max_size=40))
    hits = draw(st.lists(st.sampled_from(rows), max_size=len(rows) + 3))
    flips = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    # Deletes of one column kind typed apart from the store's (1.0 for 1,
    # -0.0 for 0) make the fingerprint hash that column by value, not bits.
    deletes = [
        tuple(_equal_other_type(v, flip) for v, flip in zip(row, flips)) for row in hits
    ]
    deletes += draw(st.lists(st.tuples(*(MIXED_POOLS[k] for k in kinds)), max_size=3))
    return _own_nans(rows), _own_nans(draw(st.permutations(deletes)))


@given(mixed_store_and_deletes())
@settings(max_examples=100, deadline=None)
def test_fingerprints_remove_what_the_counter_loop_removes(case):
    rows, deletes = case
    store = NumpyColumnStore.from_rows(rows, len(rows[0]))
    assert _removed(store, deletes) == first_matches(store.to_rows(), deletes)


def _collided(store, deletes):
    """``store_log_keep`` with every row given the same fingerprint."""
    schema = Schema.from_names([f"c{i}" for i in range(store.arity)])
    original = bagdiff.fingerprints
    bagdiff.fingerprints = lambda part, by_value: np.zeros(len(part), dtype=np.uint64)
    try:
        keep, counts, route = bagdiff.store_log_keep(
            (store,), ((Relation(schema, deletes), len(store)),)
        )
    finally:
        bagdiff.fingerprints = original
    return ([] if keep is None else np.flatnonzero(~keep).tolist()), counts, route


@given(mixed_store_and_deletes())
@settings(max_examples=60, deadline=None)
def test_a_fingerprint_collision_still_removes_the_first_matches(case):
    # Every row collides: whatever the grouping removes, the column-wise
    # check must catch a wrong pair and fall back to first_matches.
    rows, deletes = case
    store = NumpyColumnStore.from_rows(rows, len(rows[0]))
    removed, counts, _route = _collided(store, deletes)
    assert removed == first_matches(store.to_rows(), deletes)
    assert counts == [len(removed)]


def test_route_colliding_deletes_are_checked_against_each_other():
    # Both rows equal the first delete, but the second delete differs: one
    # group with quota 2 would remove both rows; the Counter loop removes one.
    store = NumpyColumnStore.from_rows([(2, "a"), (2, "a")], 2)
    removed, _counts, route = _collided(store, [(2, "a"), (2, "b")])
    assert removed == [0] and route == bagdiff.FALLBACK_COLLISION


def test_route_a_collision_is_reported():
    # isin leaves both rows; the first one is grouped with the delete, the
    # check sees "a" != "b", and the Counter loop removes the second.
    store = NumpyColumnStore.from_rows([(2, "a"), (2, "b")], 2)
    assert _collided(store, [(2, "b")]) == ([1], [1], bagdiff.FALLBACK_COLLISION)


def test_route_nan_rows_fall_back_and_match_nothing():
    # The int column leaves |δ⁻| candidates, so the float column never
    # narrows: a NaN row and the NaN delete share their bits, but NaN equals
    # nothing, so the check fails and the Counter loop removes no NaN row.
    rows = [(1, float("nan")), (1, 2.0), (1, float("nan"))]
    deletes = [(1, float("nan")), (1, 2.0), (9, 9.0)]
    schema = Schema.from_names(["i", "f"])
    store = NumpyColumnStore.from_rows(rows, 2)
    keep, counts, route = bagdiff.store_log_keep(
        (store,), ((Relation(schema, deletes), 3),)
    )
    assert np.flatnonzero(~keep).tolist() == [1] and counts == [1]
    assert route == bagdiff.FALLBACK_COLLISION
