"""Sharding layer: partitioning, eligibility, merge kernels, static checks.

The load-bearing property throughout: partition → execute → merge is
**bag-identical** to serial execution, including NULL shard keys, empty
shards, and groups that exist only on some shards.  The serial engine stays the oracle.
"""

import pytest

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Distinct,
    Join,
)
from repro.analysis.diagnostics import errors
from repro.analysis.planlint import verify_shard_plan
from repro.catalog.schema import Schema
from repro.engine.executor import evaluate
from repro.parallel.shard import (
    MERGE_AGGREGATE_INPUT,
    MERGE_CONCAT,
    MERGE_REAGGREGATE,
    MERGE_SERIAL,
    ShardPlan,
    ShardSpec,
    merge_concat,
    merge_shards,
    partition_relation,
    plan_shards,
    shard_database,
)
from repro.storage.relation import Relation
from repro.workloads import queries
from repro.workloads.datagen import TpcdDataGenerator

#: Keeps the ``[numpy]`` ids these tests were recorded under (the test floor
#: and CI history name them); there is one store, so nothing to vary.
numpy_id = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def workload_views():
    combined = {}
    combined.update(queries.standalone_join_view())
    combined.update(queries.standalone_agg_view())
    combined.update(queries.view_set_plain())
    combined.update(queries.view_set_aggregate())
    combined.update(queries.large_view_set())
    return combined


# ------------------------------------------------------------- shard assignment

def test_shard_of_is_a_pure_function_of_the_value():
    spec = ShardSpec((("t", "k"),), workers=4)
    again = ShardSpec((("t", "k"),), workers=4)
    for value in [0, 1, 7, -3, "abc", ("x", 2), 2.5]:
        assert spec.shard_of(value) == again.shard_of(value)
        assert 0 <= spec.shard_of(value) < 4


def test_shard_of_normalizes_integral_floats():
    spec = ShardSpec((("t", "k"),), workers=4)
    # 7 and 7.0 are the same key value — they must land on the same shard,
    # or a float-typed delta would miss its int-typed base rows.
    assert spec.shard_of(7) == spec.shard_of(7.0)


def test_null_keys_go_to_shard_zero():
    spec = ShardSpec((("t", "k"),), workers=4)
    assert spec.shard_of(None) == 0


def test_range_mode_uses_bounds():
    spec = ShardSpec((("t", "k"),), workers=3, mode="range", bounds=(10.0, 20.0))
    assert spec.shard_of(5) == 0
    assert spec.shard_of(10) == 1  # bisect_right: bound value moves up
    assert spec.shard_of(15) == 1
    assert spec.shard_of(99) == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        ShardSpec((), workers=0)
    with pytest.raises(ValueError):
        ShardSpec((), workers=2, mode="round-robin")
    with pytest.raises(ValueError):
        ShardSpec((), workers=3, mode="range", bounds=(1.0,))


# ----------------------------------------------------------------- partitioning

@numpy_id
def test_partition_is_exact_including_null_keys_and_empty_shards():
    schema = Schema.from_names(["k", "v"])
    rows = [(0, "a"), (4, "b"), (None, "c"), (8, "d"), (None, "e"), (12, "f")]
    relation = Relation.from_trusted_rows(schema, rows, "t")
    relation.vector_store()  # exercise the store-backed kernel path
    spec = ShardSpec((("t", "k"),), workers=4)
    parts = partition_relation(relation, "k", spec)
    assert len(parts) == 4
    # Every key here is ≡ 0 (mod 4) or NULL → everything lands on shard 0,
    # shards 1..3 are empty — and the union is still the exact input bag.
    assert len(parts[0]) == len(rows)
    assert all(len(part) == 0 for part in parts[1:])
    assert merge_concat(parts).same_bag(relation)


@numpy_id
def test_partition_round_trips_the_bag():
    schema = Schema.from_names(["k", "v"])
    rows = [(i % 7, i) for i in range(100)] + [(None, -1)] * 3
    relation = Relation.from_trusted_rows(schema, rows, "t")
    relation.vector_store()
    for mode, bounds in (("hash", ()), ("range", (2.0, 4.0))):
        spec = ShardSpec((("t", "k"),), workers=3, mode=mode, bounds=bounds)
        parts = partition_relation(relation, "k", spec)
        assert sum(len(part) for part in parts) == len(relation)
        assert merge_concat(parts).same_bag(relation)


def test_partition_agrees_between_store_and_row_paths():
    schema = Schema.from_names(["k", "v"])
    rows = [(i, i * 10) for i in range(50)] + [(None, -1)]
    spec = ShardSpec((("t", "k"),), workers=4)
    row_backed = Relation.from_trusted_rows(schema, list(rows), "t")
    assert row_backed.cached_store() is None
    row_parts = partition_relation(row_backed, "k", spec)
    store_backed = Relation.from_trusted_rows(schema, list(rows), "t")
    store_backed.vector_store()
    store_parts = partition_relation(store_backed, "k", spec)
    for row_part, store_part in zip(row_parts, store_parts):
        assert row_part.same_bag(store_part)


# ------------------------------------------------------------------ eligibility

@numpy_id
def test_plan_shards_on_the_workload():
    spec = ShardSpec((("lineitem", "l_orderkey"), ("orders", "o_orderkey")), workers=2)
    merges = {
        name: plan_shards(expression, spec).merge
        for name, expression in workload_views().items()
    }
    # Join views concat; SUM aggregates merge at the aggregation input;
    # views over broadcast-only relations stay serial.
    assert merges["v_order_details"] == MERGE_CONCAT
    assert merges["v_revenue_by_nation"] == MERGE_AGGREGATE_INPUT
    assert merges["v05_part_supply"] == MERGE_SERIAL
    parallel = [m for m in merges.values() if m != MERGE_SERIAL]
    assert len(parallel) >= 15, merges


def test_count_min_max_aggregates_reaggregate():
    spec = ShardSpec((("lineitem", "l_orderkey"),), workers=2)
    expression = Aggregate(
        BaseRelation("lineitem"),
        ["l_orderkey"],
        [
            AggregateSpec(AggregateFunc.COUNT, None, "n"),
            AggregateSpec(AggregateFunc.MIN, "l_quantity", "lo"),
            AggregateSpec(AggregateFunc.MAX, "l_quantity", "hi"),
        ],
    )
    assert plan_shards(expression, spec).merge == MERGE_REAGGREGATE


def test_serial_fallbacks_carry_reasons():
    spec = ShardSpec((("lineitem", "l_orderkey"),), workers=2)
    distinct = plan_shards(Distinct(BaseRelation("lineitem")), spec)
    assert distinct.merge == MERGE_SERIAL
    assert any("Distinct" in reason for reason in distinct.reasons)

    self_join = plan_shards(
        Join(
            BaseRelation("lineitem"),
            BaseRelation("lineitem"),
            [("l_orderkey", "l_orderkey")],
        ),
        spec,
    )
    assert self_join.merge == MERGE_SERIAL
    assert any("more than once" in reason for reason in self_join.reasons)

    broadcast_only = plan_shards(BaseRelation("nation"), spec)
    assert broadcast_only.merge == MERGE_SERIAL
    assert any("no sharded relation" in reason for reason in broadcast_only.reasons)


def test_non_co_partitioned_join_falls_back():
    # orders is partitioned on o_custkey but joined to lineitem on the
    # order key — the join is not shard-local, so the plan must be serial.
    spec = ShardSpec((("lineitem", "l_orderkey"), ("orders", "o_custkey")), workers=2)
    expression = queries.chain_join(["lineitem", "orders"])
    plan = plan_shards(expression, spec)
    assert plan.merge == MERGE_SERIAL
    assert any("partition keys" in reason for reason in plan.reasons)


# ----------------------------------------------- partition → execute → merge

@pytest.fixture(scope="module")
def tpcd_database():
    return TpcdDataGenerator(scale_factor=0.001, seed=3).populate()


def _parallel_oracle_check(database, spec, expression):
    plan = plan_shards(expression, spec)
    assert plan.parallel, plan.reasons
    serial = evaluate(expression, database)
    parts = [
        evaluate(plan.shard_expression, shard_database(database, spec, shard))
        for shard in range(spec.workers)
    ]
    merged = merge_shards(plan, parts)
    assert merged.same_bag(serial), "parallel result diverged from serial"
    assert merged.schema.names == serial.schema.names


@numpy_id
def test_every_parallel_workload_view_matches_serial(tpcd_database):
    spec = ShardSpec(
        (("lineitem", "l_orderkey"), ("orders", "o_orderkey")), workers=3
    )
    for name, expression in workload_views().items():
        plan = plan_shards(expression, spec)
        if not plan.parallel:
            continue
        _parallel_oracle_check(tpcd_database, spec, expression)


@numpy_id
def test_range_partitioning_matches_serial(tpcd_database):
    spec = ShardSpec.for_database(tpcd_database, workers=3, mode="range")
    assert spec.mode == "range" and len(spec.bounds) == 2
    for expression in (
        queries.standalone_join_view()["v_order_details"],
        queries.standalone_agg_view()["v_revenue_by_nation"],
    ):
        _parallel_oracle_check(tpcd_database, spec, expression)


@numpy_id
def test_groups_present_on_a_single_shard_survive_the_merge():
    # Aggregate over a relation where whole groups live on one shard and
    # other shards are empty: re-aggregation must keep exactly the serial
    # group set — no vanished groups, no resurrected ones.
    from repro.catalog.catalog import Catalog
    from repro.catalog.schema import TableDef
    from repro.engine.database import Database

    schema = Schema.from_names(["k", "q"])
    rows = [(0, 1), (0, 2), (1, 5), (2, 7), (2, 7), (5, 9)]
    database = Database(Catalog())
    database.create_table(TableDef("t", schema), rows)
    spec = ShardSpec((("t", "k"),), workers=4)
    expression = Aggregate(
        BaseRelation("t"),
        ["k"],
        [
            AggregateSpec(AggregateFunc.COUNT, None, "n"),
            AggregateSpec(AggregateFunc.MIN, "q", "lo"),
        ],
    )
    _parallel_oracle_check(database, spec, expression)


# --------------------------------------------------------------- static checks

def test_verify_shard_plan_clean_on_real_plans(tpcd_database):
    spec = ShardSpec((("lineitem", "l_orderkey"), ("orders", "o_orderkey")), workers=2)
    for expression in workload_views().values():
        plan = plan_shards(expression, spec)
        assert errors(verify_shard_plan(plan, spec, tpcd_database)) == []


def test_verify_shard_plan_flags_merge_shape_mismatch(tpcd_database):
    spec = ShardSpec((("lineitem", "l_orderkey"),), workers=2)
    expression = queries.standalone_agg_view()["v_revenue_by_nation"]
    # A SUM aggregate wrongly planned as concat: P010.
    bad = ShardPlan(expression, expression, ("lineitem",), MERGE_CONCAT)
    codes = [d.code for d in errors(verify_shard_plan(bad, spec, tpcd_database))]
    assert "REPRO-P010" in codes


def test_verify_shard_plan_flags_non_co_partitioned(tpcd_database):
    spec = ShardSpec((("lineitem", "l_orderkey"), ("orders", "o_custkey")), workers=2)
    expression = queries.chain_join(["lineitem", "orders"])
    # Force a (wrong) parallel plan past the eligibility analysis: P011.
    bad = ShardPlan(expression, expression, ("lineitem", "orders"), MERGE_CONCAT)
    codes = [d.code for d in errors(verify_shard_plan(bad, spec, tpcd_database))]
    assert "REPRO-P011" in codes


def test_verify_shard_plan_flags_missing_partition_key(tpcd_database):
    spec = ShardSpec((("lineitem", "no_such_column"),), workers=2)
    expression = queries.standalone_join_view()["v_order_details"]
    plan = ShardPlan(expression, expression, ("lineitem",), MERGE_CONCAT)
    codes = [d.code for d in errors(verify_shard_plan(plan, spec, tpcd_database))]
    assert "REPRO-P012" in codes
