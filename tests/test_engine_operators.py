"""Unit tests for the physical bag operators."""

import pytest

from repro.algebra.expressions import AggregateFunc, AggregateSpec
from repro.algebra.predicates import eq, gt
from repro.catalog.schema import Schema
from repro.engine import operators
from repro.storage.relation import Relation

LEFT_SCHEMA = Schema.from_names(["l_id", "l_key", "l_val"])
RIGHT_SCHEMA = Schema.from_names(["r_key", "r_val"])

LEFT = Relation(LEFT_SCHEMA, [(1, "a", 10), (2, "b", 20), (3, "a", 30), (4, "c", 40)])
RIGHT = Relation(RIGHT_SCHEMA, [("a", 100), ("b", 200), ("a", 300)])


def expected_join_rows():
    return sorted(
        [
            (1, "a", 10, "a", 100),
            (1, "a", 10, "a", 300),
            (3, "a", 30, "a", 100),
            (3, "a", 30, "a", 300),
            (2, "b", 20, "b", 200),
        ]
    )


def test_select_and_project():
    filtered = operators.select(LEFT, gt("l_val", 15))
    assert len(filtered) == 3
    projected = operators.project(LEFT, ["l_key"])
    assert projected.rows.count(("a",)) == 2


@pytest.mark.parametrize(
    "join_fn", [operators.nested_loop_join, operators.hash_join, operators.hash_join_batch]
)
def test_join_algorithms_agree(join_fn):
    result = join_fn(LEFT, RIGHT, [("l_key", "r_key")])
    assert sorted(result.rows) == expected_join_rows()


def test_join_with_swapped_condition_sides():
    result = operators.hash_join(LEFT, RIGHT, [("r_key", "l_key")])
    assert sorted(result.rows) == expected_join_rows()


def test_join_with_residual_predicate():
    result = operators.hash_join(LEFT, RIGHT, [("l_key", "r_key")], residual=gt("r_val", 150))
    assert sorted(result.rows) == sorted(
        [(1, "a", 10, "a", 300), (3, "a", 30, "a", 300), (2, "b", 20, "b", 200)]
    )


def test_cross_product_via_empty_conditions():
    result = operators.nested_loop_join(LEFT, RIGHT, [])
    assert len(result) == len(LEFT) * len(RIGHT)
    # hash_join falls back to nested loops for cross products
    assert len(operators.hash_join(LEFT, RIGHT, [])) == len(LEFT) * len(RIGHT)
    # The batch kernel pairs a cross product itself: same bag, residual too.
    assert operators.hash_join_batch(LEFT, RIGHT, []).same_bag(result)
    residual = gt("r_val", 150)
    assert operators.hash_join_batch(LEFT, RIGHT, [], residual).same_bag(
        operators.nested_loop_join(LEFT, RIGHT, [], residual)
    )


def test_union_all_and_difference():
    combined = operators.union_all(LEFT, LEFT)
    assert len(combined) == 8
    assert len(operators.difference(combined, LEFT)) == 4
    with pytest.raises(ValueError):
        operators.union_all()


def test_distinct_and_sort():
    duplicated = operators.union_all(LEFT, LEFT)
    assert len(operators.distinct(duplicated)) == 4
    ordered = operators.sort(LEFT, ["l_val"])
    assert [row[2] for row in ordered] == [10, 20, 30, 40]


def test_aggregate_group_by():
    result = operators.aggregate(
        LEFT,
        ["l_key"],
        [
            AggregateSpec(AggregateFunc.SUM, "l_val", "total"),
            AggregateSpec(AggregateFunc.COUNT, None, "n"),
            AggregateSpec(AggregateFunc.MIN, "l_val", "lo"),
            AggregateSpec(AggregateFunc.MAX, "l_val", "hi"),
            AggregateSpec(AggregateFunc.AVG, "l_val", "avg"),
        ],
    )
    rows = {row[0]: row[1:] for row in result.rows}
    assert rows["a"] == (40, 2, 10, 30, 20.0)
    assert rows["b"] == (20, 1, 20, 20, 20.0)
    assert rows["c"] == (40, 1, 40, 40, 40.0)


def test_scalar_aggregate_over_empty_input():
    empty = Relation(LEFT_SCHEMA, [])
    result = operators.aggregate(
        empty, [], [AggregateSpec(AggregateFunc.COUNT, None, "n"), AggregateSpec(AggregateFunc.SUM, "l_val", "s")]
    )
    assert result.rows == [(0, None)]


def test_grouped_aggregate_over_empty_input_has_no_rows():
    empty = Relation(LEFT_SCHEMA, [])
    result = operators.aggregate(empty, ["l_key"], [AggregateSpec(AggregateFunc.COUNT, None, "n")])
    assert result.rows == []


def test_aggregate_ignores_null_values():
    relation = Relation(LEFT_SCHEMA, [(1, "a", None), (2, "a", 10)])
    result = operators.aggregate(relation, ["l_key"], [AggregateSpec(AggregateFunc.SUM, "l_val", "s"), AggregateSpec(AggregateFunc.COUNT, None, "n")])
    assert result.rows == [("a", 10, 2)]


def test_hash_join_batch_handles_none_keys_like_hash_join():
    left = Relation(Schema.from_names(["a", "x"]), [(1, 10), (None, 20), (2, 30)])
    right = Relation(Schema.from_names(["b", "y"]), [(None, 100), (1, 200)])
    batched = operators.hash_join_batch(left, right, [("a", "b")])
    hashed = operators.hash_join(left, right, [("a", "b")])
    assert batched.same_bag(hashed)
    # None keys match each other, mirroring hash-bucket semantics.
    assert (None, 20, None, 100) in batched.rows
