"""``store_keep_mask`` against the reference loop ``first_matches``.

Every path the column-store subtraction can take — int-first ``isin``
narrowing, narrowing continued past ``4·|δ⁻|``, no numeric column to narrow
on, and ``None`` beside strings or NaN deletes — must remove exactly the
positions the Counter loop removes over the whole store."""

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
    """Record the isin passes and hashed row counts of one call."""
    seen = {"hashed": []}
    spy = _IsinSpy()
    seen["isin"] = spy.calls
    hashed = bagdiff._hashed_mask

    def hashed_spy(rows, excluded):
        rows = list(rows)
        seen["hashed"].append(len(rows))
        return hashed(rows, excluded)

    monkeypatch.setattr(bagdiff, "_np", spy)
    monkeypatch.setattr(bagdiff, "_hashed_mask", hashed_spy)
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
