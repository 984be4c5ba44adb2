"""Unit tests for logical-expression evaluation over a database."""

import pytest

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Difference,
    Distinct,
    Join,
    Project,
    Select,
    UnionAll,
)
from repro.algebra.predicates import eq, gt, lit
from repro.engine.executor import MaterializedRegistry, evaluate
from repro.storage.relation import Relation


def test_base_relation_evaluation(star_database):
    result = evaluate(BaseRelation("sales"), star_database)
    assert len(result) == 6


def test_join_evaluation(star_database):
    expression = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    result = evaluate(expression, star_database)
    assert len(result) == 6
    # Every output row carries both sides' columns.
    assert len(result.schema) == 5 + 4


def test_three_way_join_and_select(star_database):
    expression = Select(
        Join(
            Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]),
            BaseRelation("stores"),
            [("store_id", "st_id")],
        ),
        eq("st_region", lit("north")),
    )
    result = evaluate(expression, star_database)
    assert len(result) == 4


def test_projection_and_distinct(star_database):
    expression = Distinct(Project(BaseRelation("sales"), ["product_id"]))
    result = evaluate(expression, star_database)
    assert sorted(result.rows) == [(10,), (11,), (12,)]


def test_aggregate_evaluation(star_database):
    expression = Aggregate(
        BaseRelation("sales"),
        ["store_id"],
        [AggregateSpec(AggregateFunc.SUM, "amount", "revenue")],
    )
    result = evaluate(expression, star_database)
    revenue = dict(result.rows)
    assert revenue[100] == pytest.approx(215.0)
    assert revenue[101] == pytest.approx(40.0)
    assert revenue[102] == pytest.approx(30.0)


def test_union_and_difference_evaluation(star_database):
    sales = BaseRelation("sales")
    union = UnionAll([sales, sales])
    assert len(evaluate(union, star_database)) == 12
    difference = Difference(union, sales)
    assert len(evaluate(difference, star_database)) == 6


def test_materialized_registry_is_used(star_database):
    expression = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    registry = MaterializedRegistry()
    fake = Relation(evaluate(expression, star_database).schema, [])
    star_database.materialize_view("cached_join", fake)
    registry.register(expression, "cached_join")
    result = evaluate(expression, star_database, materialized=registry)
    # The (empty) cached contents are returned instead of recomputation.
    assert len(result) == 0
    registry.unregister(expression)
    assert len(evaluate(expression, star_database, materialized=registry)) == 6


def test_registry_lookup_and_len(star_database):
    registry = MaterializedRegistry()
    expression = BaseRelation("sales")
    registry.register(expression, "v")
    assert registry.lookup(BaseRelation("sales")) == "v"
    assert len(registry) == 1


def test_unknown_expression_type_raises(star_database):
    with pytest.raises(TypeError):
        evaluate(object(), star_database)  # type: ignore[arg-type]
