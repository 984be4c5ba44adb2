"""Property-based tests for the multiset relation algebra (hypothesis)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Schema
from repro.storage.bagdiff import multiset_subtract
from repro.storage.columns import NumpyColumnStore
from repro.storage.relation import Relation

SCHEMA = Schema.from_names(["k", "v"])

rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=3)),
    max_size=30,
)


def bag(rel: Relation) -> Counter:
    return rel.counter()


@given(rows, rows)
@settings(max_examples=80, deadline=None)
def test_union_counts_add(a, b):
    left, right = Relation(SCHEMA, a), Relation(SCHEMA, b)
    assert bag(left.union_all(right)) == Counter(a) + Counter(b)


@given(rows, rows)
@settings(max_examples=80, deadline=None)
def test_difference_is_counted_subtraction(a, b):
    left, right = Relation(SCHEMA, a), Relation(SCHEMA, b)
    assert bag(left.difference(right)) == Counter(a) - Counter(b)


@given(rows, rows)
@settings(max_examples=80, deadline=None)
def test_union_then_difference_restores_original(a, b):
    left, right = Relation(SCHEMA, a), Relation(SCHEMA, b)
    assert bag(left.union_all(right).difference(right)) == Counter(a)


@given(rows, rows)
@settings(max_examples=80, deadline=None)
def test_apply_delta_equals_manual_composition(a, b):
    base, delta = Relation(SCHEMA, a), Relation(SCHEMA, b)
    combined = base.apply_delta(inserts=delta, deletes=delta)
    assert bag(combined) == (Counter(a) - Counter(b)) + Counter(b)


@given(rows)
@settings(max_examples=80, deadline=None)
def test_distinct_is_idempotent_and_support_preserving(a):
    relation = Relation(SCHEMA, a)
    distinct = relation.distinct()
    assert set(distinct.rows) == set(a)
    assert max(Counter(distinct.rows).values(), default=0) <= 1
    assert distinct.distinct().same_bag(distinct)


@given(rows)
@settings(max_examples=80, deadline=None)
def test_projection_preserves_cardinality(a):
    relation = Relation(SCHEMA, a)
    assert len(relation.project(["v"])) == len(relation)


@given(rows)
@settings(max_examples=80, deadline=None)
def test_sort_is_a_permutation(a):
    relation = Relation(SCHEMA, a)
    assert relation.sorted_by(["k", "v"]).same_bag(relation)


# ---------------------------------------------- one kernel, one row sequence
#
# The properties above compare Counters.  The merge step must also keep the
# *order* (first-match copies go, survivors stay in place) and the survivors'
# own values (``1`` stays ``1`` when ``1.0`` was deleted), whichever
# representation the receiver holds and whichever kernel route that selects.

NAN = float("nan")

#: Small domains so duplicates, matches and over-deletes are the common case;
#: ``k`` blends ints with floats, ``v`` mixes strings with ints and ``None``.
mixed_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 1.0, 2.5, None, NAN]),
        st.sampled_from(["a", "b", "", 1, None]),
    ),
    max_size=40,
)
typed_rows = st.lists(  # typed columns: the isin-narrowing and codes routes
    st.tuples(st.integers(0, 4), st.sampled_from([0.5, 1.0, NAN]), st.sampled_from("ab")),
    max_size=40,
)


def _own_nans(bag_rows):
    """Give every NaN cell its own object: NaN never matches *by value*, and
    a shared object would let the row loop match it by identity."""
    return [
        tuple(float("nan") if isinstance(v, float) and v != v else v for v in row)
        for row in bag_rows
    ]


@given(st.one_of(st.tuples(mixed_rows, mixed_rows), st.tuples(typed_rows, typed_rows)))
@settings(max_examples=300, deadline=None)
def test_difference_row_sequence_is_representation_independent(pair):
    a, b = pair
    arity = len((a + b + [(0, 0)])[0])
    # Deletes that certainly hit: every third row, and the head three times over.
    a, b = _own_nans(a), _own_nans(b + a[::3] + a[:2] * 3)
    schema = Schema.from_names([f"c{i}" for i in range(arity)])
    both = Relation(schema, a)
    both.vector_store()
    receivers = {
        "rows": Relation(schema, a),
        "store": Relation.from_store(schema, NumpyColumnStore.from_rows(a, arity)),
        "rows+store": both,
    }
    deletes = Relation(schema, b)
    # repr: NaN-safe, and tells 1 from 1.0.
    expected = [repr(row) for row in multiset_subtract(a, b)]
    for label, receiver in receivers.items():
        assert [repr(row) for row in receiver.difference(deletes).rows] == expected, label
