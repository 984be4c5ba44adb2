"""Tests for the maintenance cost engine (compcost / diffCost / maintcost)."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    Difference,
    Distinct,
    Join,
    Project,
    Select,
)
from repro.algebra.predicates import lt
from repro.maintenance.candidates import Candidate, enumerate_candidates
from repro.maintenance.cost_engine import MaintenanceCostEngine
from repro.maintenance.diff_dag import DifferentialAnnotations, ResultKey
from repro.maintenance.update_spec import UpdateSpec
from repro.optimizer.dag_builder import build_dag
from repro.workloads import queries, tpcd


@pytest.fixture(scope="module")
def catalog():
    return tpcd.tpcd_catalog(scale_factor=0.1)


def make_engine(catalog, views, percentage=0.10):
    from repro.algebra.expressions import base_relations

    dag = build_dag(views, catalog)
    relations = sorted({r for e in views.values() for r in base_relations(e)})
    spec = UpdateSpec.uniform(percentage, relations)
    engine = MaintenanceCostEngine(dag, catalog, spec)
    engine.set_materialized(ResultKey(dag.roots[name].id, 0) for name in views)
    return dag, engine


@pytest.fixture(scope="module")
def join_view_engine(catalog):
    return make_engine(catalog, queries.standalone_join_view())


@pytest.fixture(scope="module")
def agg_view_engine(catalog):
    return make_engine(catalog, queries.standalone_agg_view())


def test_compcost_positive_and_stable(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    first = engine.compcost(root.id)
    assert first > 0
    assert engine.compcost(root.id) == first  # memoized, deterministic


def test_diffcost_zero_for_unrelated_relation(catalog):
    # Two views over disjoint relations: updates of one view's relations
    # yield empty (zero-cost) differentials for the other view.
    views = {
        "v_oc": queries.chain_join(["orders", "customer"]),
        "v_sn": queries.chain_join(["supplier", "nation"]),
    }
    dag, engine = make_engine(catalog, views)
    oc_root = dag.roots["v_oc"]
    nation_update = next(u for u in engine.annotations.updates() if u.relation == "nation")
    assert engine.diffcost(oc_root.id, nation_update.number) == 0.0


def test_diffcost_smaller_than_recompute_at_low_update_rate(catalog):
    dag, engine = make_engine(catalog, queries.standalone_agg_view(), percentage=0.01)
    root = dag.roots["v_revenue_by_nation"]
    assert engine.maintcost(root.id) < engine.recompute_cost(root.id)


def test_recompute_wins_at_very_high_update_rate(catalog):
    dag, engine = make_engine(catalog, queries.standalone_join_view(), percentage=0.8)
    root = dag.roots["v_order_details"]
    assert engine.prefers_recomputation(root.id)


def test_total_diff_cost_sums_updates(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    total = engine.total_diff_cost(root.id)
    manual = sum(
        engine.diffcost(root.id, u.number)
        for u in engine.annotations.updates()
        if u.relation in root.base_relations
    )
    assert total == pytest.approx(manual)
    assert engine.maintcost(root.id) == pytest.approx(total + engine.merge_cost(root.id))


def test_materializing_full_result_reduces_consumer_compcost(catalog):
    views = {
        "v1": queries.chain_join(["lineitem", "orders", "customer"]),
        "v2": queries.chain_join(["lineitem", "orders", "customer", "nation"]),
    }
    dag, engine = make_engine(catalog, views)
    inner = dag.roots["v1"]
    outer = dag.roots["v2"]
    before = engine.compcost(outer.id)
    engine.add_materialized(ResultKey(inner.id, 0))  # already materialized as a view; idempotent
    shared = next(
        n for n in dag.equivalence_nodes if n.base_relations == frozenset({"lineitem", "orders"})
    )
    engine.add_materialized(ResultKey(shared.id, 0))
    after = engine.compcost(outer.id)
    assert after <= before + 1e-9


def test_adding_index_reduces_diffcost(catalog):
    dag, engine = make_engine(catalog, queries.standalone_join_view())
    root = dag.roots["v_order_details"]
    orders_node = next(n for n in dag.equivalence_nodes if n.key == "orders")
    update = next(u for u in engine.annotations.updates() if str(u) == "δ+customer")
    before = engine.diffcost(root.id, update.number)
    engine.add_index(orders_node.id, ("o_custkey",))
    after = engine.diffcost(root.id, update.number)
    assert after <= before + 1e-9
    engine.remove_index(orders_node.id, ("o_custkey",))
    assert engine.diffcost(root.id, update.number) == pytest.approx(before)


def test_index_on_view_reduces_merge_cost(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    with engine.speculative():
        before = engine.merge_cost(root.id)
        engine.add_index(root.id, ("l_orderkey",))
        after = engine.merge_cost(root.id)
        assert after < before


def test_materializing_differential_enables_reuse(catalog):
    views = {
        "v1": queries.chain_join(["lineitem", "orders", "customer"]),
        "v2": queries.chain_join(["lineitem", "orders", "customer", "nation"]),
    }
    dag, engine = make_engine(catalog, views)
    shared = dag.roots["v1"]
    update = next(u for u in engine.annotations.updates() if str(u) == "δ+lineitem")
    plain = engine.diff_input_cost(shared.id, update.number)
    engine.add_materialized(ResultKey(shared.id, update.number))
    reused = engine.diff_input_cost(shared.id, update.number)
    assert reused <= plain + 1e-9


def test_speculative_rolls_back_state(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    baseline = engine.total_cost()
    shared = next(
        n for n in dag.equivalence_nodes if n.base_relations == frozenset({"lineitem", "orders"})
    )
    tables = _memo_tables(engine)
    with engine.speculative():
        engine.add_materialized(ResultKey(shared.id, 0))
        engine.add_index(root.id, ("l_orderkey",))
        inside = engine.total_cost()
        assert inside != baseline
        assert engine._full_descriptors[shared.id].stored
        assert _memo_tables(engine) != tables
    assert _memo_tables(engine) == tables
    assert engine.total_cost() == pytest.approx(baseline)
    assert ResultKey(shared.id, 0) not in engine.materialized


def _memo_tables(engine):
    """Copies of the memo tables that depend on the materialized set."""
    return (
        dict(engine._result_cost),
        dict(engine._full_descriptors),
        dict(engine._delta_descriptors),
    )


def test_incremental_invalidation_matches_full_recompute(catalog):
    views = queries.view_set_plain()
    dag, engine = make_engine(catalog, views)
    shared = next(
        n for n in dag.equivalence_nodes if n.base_relations == frozenset({"orders", "customer"})
    )
    # Incrementally updated costs...
    engine.add_materialized(ResultKey(shared.id, 0))
    incremental_total = engine.total_cost()
    # ...must equal costs computed from scratch with the same materialized set.
    fresh = MaintenanceCostEngine(dag, catalog, engine.spec, annotations=engine.annotations)
    fresh.set_materialized(set(engine.materialized))
    assert incremental_total == fresh.total_cost()


def test_result_cost_for_differentials(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    update = engine.annotations.updates()[0]
    key = ResultKey(root.id, update.number)
    assert engine.result_cost(key) == pytest.approx(
        engine.diffcost(root.id, update.number) + engine.matcost(root.id, update.number)
    )


def test_aggregate_diff_depends_on_materialization(catalog):
    dag, engine = make_engine(catalog, queries.standalone_agg_view(), percentage=0.05)
    root = dag.roots["v_revenue_by_nation"]
    update = next(u for u in engine.annotations.updates() if str(u) == "δ+lineitem")
    materialized_cost = engine.diffcost(root.id, update.number)
    engine.remove_materialized(ResultKey(root.id, 0))
    unmaterialized_cost = engine.diffcost(root.id, update.number)
    assert unmaterialized_cost > materialized_cost
    engine.add_materialized(ResultKey(root.id, 0))


def test_index_cost_positive_for_updated_targets(join_view_engine):
    dag, engine = join_view_engine
    orders_node = next(n for n in dag.equivalence_nodes if n.key == "orders")
    assert engine.index_cost(orders_node.id, ("o_custkey",)) > 0
    root = dag.roots["v_order_details"]
    assert engine.index_cost(root.id, ("l_orderkey",)) > 0


def test_total_cost_includes_index_maintenance(join_view_engine):
    dag, engine = join_view_engine
    root = dag.roots["v_order_details"]
    with engine.speculative():
        base = engine.total_cost()
        without_index_costs = engine.total_cost(index_costs=False)
        assert base == pytest.approx(without_index_costs)
        orders_node = next(n for n in dag.equivalence_nodes if n.key == "orders")
        engine.add_index(orders_node.id, ("o_custkey",))
        assert engine.total_cost() >= engine.total_cost(index_costs=False)


# --------------------------------------------- incremental cost update (§6.2)

def operator_mix_views():
    """Every operation that reads a changing input in full: a difference, a
    distinct, and joins whose inputs share relations, over aggregates and
    over projections."""
    lo = queries.chain_join(["lineitem", "orders"])
    loc = queries.chain_join(["lineitem", "orders", "customer"])
    revenue = AggregateSpec(AggregateFunc.SUM, "l_extendedprice", "revenue")
    lines = AggregateSpec(AggregateFunc.COUNT, None, "lines")
    return {
        "v_dropped_orders": Difference(
            Project(Select(lo, lt("o_totalprice", 100000.0)), ["o_orderkey"]),
            Project(Select(lo, lt("o_totalprice", 10000.0)), ["o_orderkey"]),
        ),
        "v_nations": Distinct(Project(loc, ["c_nationkey"])),
        "v_revenue_vs_lines": Join(
            Aggregate(lo, ["o_custkey"], [revenue]),
            Aggregate(loc, ["c_custkey"], [lines]),
            [("o_custkey", "c_custkey")],
        ),
        "v_customer_lines": Join(
            Project(lo, ["o_custkey", "l_extendedprice"]),
            Project(loc, ["c_custkey", "c_nationkey"]),
            [("o_custkey", "c_custkey")],
        ),
    }


INVALIDATION_VIEW_SETS = {
    "plain": queries.view_set_plain,
    "aggregate": queries.view_set_aggregate,
    "large_aggregate": partial(queries.large_view_set, with_aggregates=True),
    "example_3_1": queries.example_3_1_queries,
    "selection_variants": queries.selection_variant_views,
    "operator_mix": operator_mix_views,
}


@pytest.fixture(scope="module")
def invalidation_setups(catalog):
    """Per view set: the DAG, its annotations, the views and every candidate
    (the views themselves included, so that removing one is a step too)."""
    setups = {}
    for name, views in INVALIDATION_VIEW_SETS.items():
        dag, engine = make_engine(catalog, views())
        candidates = enumerate_candidates(
            dag, catalog, engine.annotations, engine.materialized, include_differentials=True
        )
        candidates += [Candidate("result", key.node_id, key) for key in engine.materialized]
        setups[name] = (dag, engine.annotations, set(engine.materialized), candidates)
    return setups


def _apply(engine, candidate, remove=False):
    if candidate.kind == "index":
        if remove:
            engine.remove_index(candidate.node_id, candidate.columns)
        else:
            engine.add_index(candidate.node_id, candidate.columns)
    elif remove:
        engine.remove_materialized(candidate.key)
    else:
        engine.add_materialized(candidate.key)


def _assert_cache_matches_fresh_engine(engine, dag, catalog):
    fresh = MaintenanceCostEngine(dag, catalog, engine.spec, annotations=engine.annotations)
    fresh.set_materialized(engine.materialized)
    for node_id, column_sets in engine.indexes.items():
        for columns in column_sets:
            fresh.add_index(node_id, columns)
    for node_id, cost in engine._full_cost.items():
        assert fresh.compcost(node_id) == cost, f"compcost e{node_id}"
        assert fresh._full_choice[node_id] == engine._full_choice[node_id]
    for (node_id, update), cost in engine._diff_cost.items():
        assert fresh.diffcost(node_id, update) == cost, f"diffcost e{node_id}, update {update}"
        assert fresh._diff_choice[(node_id, update)] == engine._diff_choice[(node_id, update)]
    for key, cost in engine._result_cost.items():
        assert fresh.result_cost(key) == cost, f"cost({key.describe(dag)}, M)"
    for node_id, descriptor in engine._full_descriptors.items():
        expected = fresh._full_descriptor(dag.node(node_id))
        assert _descriptor_fields(descriptor) == _descriptor_fields(expected), f"full e{node_id}"
    for (node_id, update), descriptor in engine._delta_descriptors.items():
        expected = fresh._delta_descriptor(dag.node(node_id), engine.annotations.update_by_number(update))
        assert descriptor == expected, f"delta e{node_id}, update {update}"


def _descriptor_fields(descriptor):
    # Extra indexes come out of a set, so their order carries no meaning.
    return descriptor.stats, descriptor.stored, set(descriptor.indexed_columns), descriptor.sorted_on


@pytest.mark.parametrize("view_set", sorted(INVALIDATION_VIEW_SETS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_cached_cost_equals_a_fresh_engines(catalog, invalidation_setups, view_set, data):
    """Exact invalidation: after any sequence of adds, removes and speculative
    blocks, every memoized compcost / diffCost / cost(x, M) and every memoized
    input descriptor equals a from-scratch value."""
    dag, annotations, initial, candidates = invalidation_setups[view_set]
    engine = MaintenanceCostEngine(dag, catalog, annotations.spec, annotations=annotations)
    engine.set_materialized(initial)
    steps = st.tuples(st.sampled_from(["add", "remove", "speculative"]), st.sampled_from(candidates))
    for action, candidate in data.draw(st.lists(steps, min_size=1, max_size=6)):
        engine.total_cost()
        if action == "speculative":
            with engine.speculative():
                _apply(engine, candidate)
                engine.total_cost()
                _assert_cache_matches_fresh_engine(engine, dag, catalog)
        else:
            _apply(engine, candidate, remove=action == "remove")
        engine.total_cost()
        _assert_cache_matches_fresh_engine(engine, dag, catalog)
