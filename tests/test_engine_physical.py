"""Unit tests for the physical execution subsystem.

Covers plan compilation (every join label runs the one hash join, reuse
resolution through the materialized registry), the end-to-end
``evaluate``-shaped entry point, schema conformance after join
reassociation, and the ``PhysicalPlanError`` raised where the interpreter
fallback used to hide a failure.
"""

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
from repro.catalog.catalog import CatalogError
from repro.engine.executor import MaterializedRegistry, evaluate
from repro.engine.physical import (
    Filter,
    HashJoin,
    MaterializedScan,
    PhysicalExecutor,
    PhysicalPlanError,
    TableScan,
    compile_plan,
    evaluate_physical,
    execute_plan,
)
from repro.optimizer.dag import Operator, OperatorKind
from repro.optimizer.plans import PlanNode, reuse_plan
from repro.storage.relation import Relation


def scan_plan(table: str, node_id: int = 0) -> PlanNode:
    return PlanNode(
        description=f"scan({table})",
        node_id=node_id,
        cost=1.0,
        cardinality=1.0,
        algorithm="scan",
        operator=Operator(OperatorKind.SCAN, relation=table),
        expression=BaseRelation(table),
    )


def join_plan(algorithm: str, conditions=(("product_id", "p_id"),)) -> PlanNode:
    return PlanNode(
        description="⋈",
        node_id=10,
        cost=1.0,
        cardinality=6.0,
        algorithm=algorithm,
        operator=Operator(OperatorKind.JOIN, conditions=tuple(conditions)),
        children=[scan_plan("sales", 1), scan_plan("products", 2)],
        expression=Join(BaseRelation("sales"), BaseRelation("products"), list(conditions)),
    )


# ----------------------------------------------------------------- compilation

def test_scan_compiles_to_table_scan(star_database):
    pipeline = compile_plan(scan_plan("sales"), star_database)
    assert isinstance(pipeline, TableScan)
    assert len(pipeline.execute()) == 6


@pytest.mark.parametrize(
    "algorithm, operator_type",
    [
        # The algorithm is a cost-model label: every one compiles to the
        # one hash join.
        ("hash", HashJoin),
        ("merge", HashJoin),
        ("nested_loop", HashJoin),
        ("index_nested_loop_right", HashJoin),
        ("index_nested_loop_left", HashJoin),
        ("", HashJoin),
    ],
)
def test_every_join_algorithm_executes_identically(star_database, algorithm, operator_type):
    plan = join_plan(algorithm)
    pipeline = compile_plan(plan, star_database)
    assert isinstance(pipeline, operator_type)
    expected = evaluate(plan.expression, star_database)
    assert pipeline.execute().same_bag(expected)


def test_index_nested_loop_left_preserves_column_order(star_database):
    # A plan costed with the index on the LEFT child still outputs
    # left ++ right, like every other join.
    plan = join_plan("index_nested_loop_left")
    result = compile_plan(plan, star_database).execute()
    assert result.schema.names[:5] == ("sale_id", "product_id", "store_id", "quantity", "amount")
    assert result.same_bag(evaluate(plan.expression, star_database))


def test_filter_and_aggregate_compile(star_database):
    select_node = PlanNode(
        description="σ",
        node_id=3,
        cost=1.0,
        cardinality=3.0,
        algorithm="filter",
        operator=Operator(OperatorKind.SELECT, predicate=gt("amount", 25.0)),
        children=[scan_plan("sales")],
        expression=Select(BaseRelation("sales"), gt("amount", 25.0)),
    )
    pipeline = compile_plan(select_node, star_database)
    assert isinstance(pipeline, Filter)
    assert pipeline.execute().same_bag(evaluate(select_node.expression, star_database))


# ------------------------------------------------------------------ reuse

def test_reuse_resolves_through_view_name(star_database):
    stored = Relation(star_database.table("sales").schema, [(9, 9, 9, 9, 9.0)])
    star_database.materialize_view("t_shared", stored)
    plan = reuse_plan(5, "t_shared", 0.1, star_database.catalog.stats("sales"))
    pipeline = compile_plan(plan, star_database)
    assert isinstance(pipeline, MaterializedScan)
    assert pipeline.execute().same_bag(stored)


def test_reuse_resolves_through_registry(star_database):
    expression = Select(BaseRelation("sales"), gt("amount", 25.0))
    contents = evaluate(expression, star_database)
    star_database.materialize_view("t_reg", contents)
    registry = MaterializedRegistry()
    registry.register(expression, "t_reg")
    plan = reuse_plan(
        5, "e5", 0.1, star_database.catalog.stats("sales"), expression=expression
    )
    pipeline = compile_plan(plan, star_database, registry)
    assert isinstance(pipeline, MaterializedScan)
    assert pipeline.view_name == "t_reg"


def test_unresolvable_reuse_raises_in_strict_mode(star_database):
    plan = reuse_plan(5, "missing_view", 0.1, star_database.catalog.stats("sales"))
    with pytest.raises(PhysicalPlanError):
        compile_plan(plan, star_database)


def test_unresolvable_reuse_with_expression_raises_p006(star_database):
    # Carrying a logical expression does not make the step recomputable:
    # there is no interpreter fallback, the unmaterialized reuse is named.
    plan = reuse_plan(
        5, "missing_view", 0.1, star_database.catalog.stats("sales"),
        expression=BaseRelation("sales"),
    )
    with pytest.raises(PhysicalPlanError, match="REPRO-P006.*missing_view"):
        execute_plan(plan, star_database)


# ------------------------------------------------------------- end-to-end path

STAR_EXPRESSIONS = [
    BaseRelation("sales"),
    Select(BaseRelation("sales"), gt("amount", 25.0)),
    Project(BaseRelation("sales"), ["product_id", "amount"]),
    Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]),
    Select(
        Join(
            Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]),
            BaseRelation("stores"),
            [("store_id", "st_id")],
        ),
        eq("st_region", lit("north")),
    ),
    Aggregate(
        Join(BaseRelation("sales"), BaseRelation("stores"), [("store_id", "st_id")]),
        ["st_region"],
        [
            AggregateSpec(AggregateFunc.SUM, "amount", "revenue"),
            AggregateSpec(AggregateFunc.COUNT, None, "n"),
            AggregateSpec(AggregateFunc.AVG, "quantity", "avg_qty"),
        ],
    ),
    Distinct(Project(BaseRelation("sales"), ["product_id"])),
    UnionAll(
        [
            Project(BaseRelation("sales"), ["product_id"]),
            Project(BaseRelation("products"), ["p_id"]),
        ]
    ),
    Difference(
        Project(BaseRelation("sales"), ["store_id"]),
        Project(BaseRelation("stores"), ["st_id"]),
    ),
]


@pytest.mark.parametrize("expression", STAR_EXPRESSIONS, ids=lambda e: e.canonical()[:48])
def test_evaluate_physical_matches_interpreter(star_database, expression):
    logical = evaluate(expression, star_database)
    physical = evaluate_physical(expression, star_database)
    assert physical.same_bag(logical)
    # Column order must match the logical schema exactly, not just the bag.
    assert physical.schema.names == logical.schema.names


def test_physical_executor_uses_materialized_views(star_database):
    expression = Join(
        BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]
    )
    registry = MaterializedRegistry()
    # Materialize a *wrong* result under the registered name: if the physical
    # path really reuses the view, we will see the marker bag.
    marker = Relation(
        star_database.table("sales").schema.concat(star_database.table("products").schema),
        [],
    )
    star_database.materialize_view("v_joined", marker)
    registry.register(expression, "v_joined")
    result = evaluate_physical(expression, star_database, registry)
    assert len(result) == 0


def test_plan_cache_reused(star_database):
    executor = PhysicalExecutor(star_database)
    expression = Join(
        BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]
    )
    first_plan, _ = executor.plan(expression)
    second_plan, _ = executor.plan(expression)
    assert first_plan is second_plan


def test_strict_mode_raises_for_unknown_relation(star_database):
    with pytest.raises(PhysicalPlanError):
        evaluate_physical(BaseRelation("nonexistent"), star_database)


def test_unknown_catalog_entry_raises_p009_naming_the_relation(star_database):
    # A stored view the catalog does not know cannot be planned as a base
    # relation; the error names it instead of silently interpreting.
    extra = Relation(star_database.table("stores").schema, [(900, "x", "west")])
    star_database.materialize_view("aux_stores", extra)
    with pytest.raises(PhysicalPlanError, match="REPRO-P009.*aux_stores") as excinfo:
        evaluate_physical(BaseRelation("aux_stores"), star_database)
    assert isinstance(excinfo.value.__cause__, CatalogError)


def test_operator_defects_surface_unchanged(star_database, monkeypatch):
    # A bare KeyError out of planning is a defect, not a resolution failure:
    # it must not be dressed up as a PhysicalPlanError.
    executor = PhysicalExecutor(star_database)

    def broken_plan(expression, materialized=None):
        raise KeyError("planner bug")

    monkeypatch.setattr(executor, "plan", broken_plan)
    with pytest.raises(KeyError, match="planner bug") as excinfo:
        executor.evaluate(BaseRelation("sales"))
    assert not isinstance(excinfo.value, PhysicalPlanError)


# ------------------------------------------- review regressions (edge semantics)

def test_union_of_permuted_same_name_branches_stays_positional(star_database):
    # Union is positional: branches carrying the same column names in a
    # different order must NOT be reordered to match each other.
    expression = UnionAll(
        [
            Project(BaseRelation("sales"), ["product_id", "store_id"]),
            Project(BaseRelation("sales"), ["store_id", "product_id"]),
        ]
    )
    logical = evaluate(expression, star_database)
    physical = evaluate_physical(expression, star_database)
    assert physical.same_bag(logical)


def test_reuse_step_naming_a_base_table_scans_it(star_database):
    plan = reuse_plan(5, "products", 0.1, star_database.catalog.stats("products"))
    pipeline = compile_plan(plan, star_database)
    assert isinstance(pipeline, TableScan)
    assert pipeline.execute().same_bag(star_database.table("products"))


def test_plan_cache_invalidated_by_registry_rebinding(star_database):
    # Re-registering the same view name for a different expression must not
    # replay a cached reuse plan against the re-purposed view.
    executor = PhysicalExecutor(star_database)
    join = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    query = Select(join, gt("amount", 25.0))

    registry = MaterializedRegistry()
    contents = evaluate(join, star_database)
    star_database.materialize_view("t_slot", contents)
    registry.register(join, "t_slot")
    first = executor.evaluate(query, registry)
    assert first.same_bag(evaluate(query, star_database, registry))

    # Re-purpose the slot for a different expression.
    registry.unregister(join)
    other = Select(join, gt("amount", 1000.0))
    star_database.materialize_view("t_slot", evaluate(other, star_database))
    registry.register(other, "t_slot")
    second = executor.evaluate(query, registry)
    assert second.same_bag(evaluate(query, star_database))


def test_index_nested_loop_sorted_probe_with_none_key(star_database):
    # A probe key containing None in a join costed as an index probe runs
    # like the interpreter's hash join.
    sales = star_database.table("sales")
    with_null = Relation(sales.schema, list(sales.rows) + [(7, None, 100, 1, 5.0)])
    star_database.load_table("sales", with_null)
    try:
        plan = join_plan("index_nested_loop_right")
        result = compile_plan(plan, star_database).execute()
        expected = evaluate(plan.expression, star_database)
        assert result.same_bag(expected)
    finally:
        star_database.load_table("sales", Relation(sales.schema, sales.rows))


def test_conform_preserves_duplicate_column_names(star_database):
    from repro.catalog.schema import Column, ColumnType, Schema
    from repro.engine.physical import _conform

    produced = Relation(
        Schema.of(
            Column("b", ColumnType.INTEGER),
            Column("id", ColumnType.INTEGER),
            Column("a", ColumnType.INTEGER),
            Column("id", ColumnType.INTEGER),
        ),
        [(10, 1, 20, 2)],
    )
    expected = Schema.of(
        Column("a", ColumnType.INTEGER),
        Column("id", ColumnType.INTEGER),
        Column("b", ColumnType.INTEGER),
        Column("id", ColumnType.INTEGER),
    )
    conformed = _conform(produced, expected)
    # Occurrence-order mapping: both distinct 'id' values survive.
    assert conformed.rows == [(20, 1, 10, 2)]
