"""Property tests: every columnar kernel ≡ its row-at-a-time oracle.

The columnar engine may only change *how* a bag is computed, never the bag:
for random inputs — including NULL join keys, NULL aggregate inputs and
deltas that make whole groups vanish — each batch kernel must produce
exactly the bag its row-based oracle produces.  The whole-column paths are
what runs here (mask/gather select, sort-probe joins, code-based
group-reduce, ``VectorProbeBuild`` delta probes).

Inputs are deliberately pushed over the vectorization thresholds by
pre-building stores (``vector_store``), so the vector paths engage even on
hypothesis-sized bags.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import AggregateFunc, AggregateSpec
from repro.algebra.predicates import eq, gt, lit
from repro.catalog.schema import Schema
from repro.engine import operators
from repro.storage.relation import Relation

LEFT_SCHEMA = Schema.from_names(["l_key", "l_value", "l_tag"])
RIGHT_SCHEMA = Schema.from_names(["r_key", "r_label"])

key = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
value = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
tag = st.sampled_from(["a", "b", "c"])
label = st.sampled_from(["p", "q"])

left_rows = st.lists(st.tuples(key, value, tag), min_size=0, max_size=30)
right_rows = st.lists(st.tuples(key, label), min_size=0, max_size=20)

#: Keeps the ``[numpy]`` ids these tests were recorded under (the test floor
#: and CI history name them); there is one store, so nothing to vary.
numpy_id = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def bag(relation: Relation) -> Counter:
    return Counter(relation.iter_rows())


def _columnar(schema: Schema, rows) -> Relation:
    """A relation with its store pre-built."""
    relation = Relation(schema, [tuple(r) for r in rows])
    relation.vector_store()
    return relation


@numpy_id
@settings(max_examples=60, deadline=None)
@given(rows=left_rows, threshold=st.integers(min_value=-50, max_value=50))
def test_select_batch_matches_row_select(rows, threshold):
    predicate = gt("l_value", lit(threshold))
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.select(Relation(LEFT_SCHEMA, list(rows)), predicate))
    assert bag(operators.select_batch(relation, predicate)) == expected


@numpy_id
@settings(max_examples=40, deadline=None)
@given(rows=left_rows)
def test_project_preserves_duplicates(rows):
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = Counter((r[2], r[0]) for r in rows)
    assert bag(relation.project(["l_tag", "l_key"])) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(lrows=left_rows, rrows=right_rows)
def test_hash_join_batch_matches_row_join(lrows, rrows):
    conditions = [("l_key", "r_key")]
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(RIGHT_SCHEMA, rrows)
    expected = bag(
        operators.hash_join(
            Relation(LEFT_SCHEMA, list(lrows)),
            Relation(RIGHT_SCHEMA, list(rrows)),
            conditions,
        )
    )
    assert bag(operators.hash_join_batch(left, right, conditions)) == expected


@numpy_id
@settings(max_examples=40, deadline=None)
@given(lrows=left_rows, rrows=right_rows, threshold=st.integers(min_value=-50, max_value=50))
def test_hash_join_batch_with_residual(lrows, rrows, threshold):
    conditions = [("l_key", "r_key")]
    residual = gt("l_value", lit(threshold))
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(RIGHT_SCHEMA, rrows)
    joined = operators.hash_join(
        Relation(LEFT_SCHEMA, list(lrows)), Relation(RIGHT_SCHEMA, list(rrows)), conditions
    )
    expected = bag(operators.select(joined, residual))
    assert bag(operators.hash_join_batch(left, right, conditions, residual)) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(rows=left_rows)
def test_aggregate_batch_matches_row_aggregate(rows):
    specs = [
        AggregateSpec(AggregateFunc.SUM, "l_value", "total"),
        AggregateSpec(AggregateFunc.COUNT, None, "n"),
        AggregateSpec(AggregateFunc.MIN, "l_value", "low"),
        AggregateSpec(AggregateFunc.MAX, "l_value", "high"),
    ]
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, list(rows)), ["l_key"], specs))
    assert bag(operators.aggregate_batch(relation, ["l_key"], specs)) == expected


@numpy_id
@settings(max_examples=30, deadline=None)
@given(rows=left_rows)
def test_aggregate_batch_global_group(rows):
    specs = [AggregateSpec(AggregateFunc.SUM, "l_value", "total")]
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, list(rows)), [], specs))
    assert bag(operators.aggregate_batch(relation, [], specs)) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(ins=left_rows, dels=left_rows, other=right_rows)
def test_delta_hash_join_batch_matches_plain_joins(ins, dels, other):
    """δ-⋈ both bags — the path that exercises ``VectorProbeBuild`` probes."""
    conditions = [("l_key", "r_key")]
    inserts = _columnar(LEFT_SCHEMA, ins)
    deletes = _columnar(LEFT_SCHEMA, dels)
    stored = _columnar(RIGHT_SCHEMA, other)
    got_ins, got_dels = operators.delta_hash_join_batch(
        inserts, deletes, stored, conditions, delta_side="left"
    )
    oracle = Relation(RIGHT_SCHEMA, list(other))
    assert bag(got_ins) == bag(
        operators.hash_join(Relation(LEFT_SCHEMA, list(ins)), oracle, conditions)
    )
    assert bag(got_dels) == bag(
        operators.hash_join(Relation(LEFT_SCHEMA, list(dels)), oracle, conditions)
    )


@numpy_id
@settings(max_examples=40, deadline=None)
@given(ins=right_rows, dels=right_rows, other=left_rows)
def test_delta_hash_join_batch_right_side_delta(ins, dels, other):
    conditions = [("l_key", "r_key")]
    inserts = _columnar(RIGHT_SCHEMA, ins)
    deletes = _columnar(RIGHT_SCHEMA, dels)
    stored = _columnar(LEFT_SCHEMA, other)
    got_ins, got_dels = operators.delta_hash_join_batch(
        inserts, deletes, stored, conditions, delta_side="right"
    )
    oracle = Relation(LEFT_SCHEMA, list(other))
    assert bag(got_ins) == bag(
        operators.hash_join(oracle, Relation(RIGHT_SCHEMA, list(ins)), conditions)
    )
    assert bag(got_dels) == bag(
        operators.hash_join(oracle, Relation(RIGHT_SCHEMA, list(dels)), conditions)
    )


@numpy_id
@settings(max_examples=30, deadline=None)
@given(lrows=left_rows, rrows=right_rows)
def test_vector_probe_build_emits_dict_probe_order(lrows, rrows):
    """Not just the same bag: the vector probe preserves emission *order*."""
    conditions = [("l_key", "r_key")]
    stored = _columnar(RIGHT_SCHEMA, rrows)
    inserts = _columnar(LEFT_SCHEMA, lrows)
    empty = _columnar(LEFT_SCHEMA, [])
    got_ins, _ = operators.delta_hash_join_batch(
        inserts, empty, stored, conditions, delta_side="left"
    )
    reference, _ = operators.delta_hash_join_batch(
        Relation(LEFT_SCHEMA, list(lrows)),
        Relation(LEFT_SCHEMA, []),
        Relation(RIGHT_SCHEMA, list(rrows)),
        conditions,
        delta_side="left",
        build=operators.hash_build(Relation(RIGHT_SCHEMA, list(rrows)), [1 - 1]),
    )
    assert list(got_ins.iter_rows()) == list(reference.iter_rows())


@numpy_id
@settings(max_examples=40, deadline=None)
@given(rows=left_rows, dels=st.data())
def test_vanishing_groups_after_difference(rows, dels):
    """Deleting every row of a group must erase the group, not zero it."""
    removed = dels.draw(st.lists(st.sampled_from(rows), max_size=len(rows)) if rows else st.just([]))
    specs = [AggregateSpec(AggregateFunc.COUNT, None, "n")]
    relation = _columnar(LEFT_SCHEMA, rows)
    survivors = relation.difference(Relation(LEFT_SCHEMA, list(removed)))
    got = operators.aggregate_batch(survivors, ["l_key"], specs)
    remaining = Counter(map(tuple, rows))
    remaining.subtract(Counter(map(tuple, removed)))
    expected_rows = list((+remaining).elements())
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, expected_rows), ["l_key"], specs))
    assert bag(got) == expected
    present_keys = {r[0] for r in expected_rows}
    assert {r[0] for r in got.iter_rows()} == present_keys


@numpy_id
@settings(max_examples=40, deadline=None)
@given(lrows=left_rows, rrows=left_rows)
def test_union_and_difference_round_trip(lrows, rrows):
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(LEFT_SCHEMA, rrows)
    union = left.union_all(right)
    assert bag(union) == Counter(map(tuple, lrows)) + Counter(map(tuple, rrows))
    back = union.difference(right)
    assert bag(back) == Counter(map(tuple, lrows))


@numpy_id
@settings(max_examples=30, deadline=None)
@given(rows=left_rows)
def test_distinct_and_eq_predicate(rows):
    relation = _columnar(LEFT_SCHEMA, rows)
    assert bag(operators.distinct(relation)) == Counter(set(map(tuple, rows)))
    predicate = eq("l_tag", lit("a"))
    expected = Counter(r for r in map(tuple, rows) if r[2] == "a")
    assert bag(operators.select_batch(relation, predicate)) == expected
