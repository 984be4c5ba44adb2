"""Integration tests: the physical layer across the TPC-D-derived workload.

Checks the acceptance bar of the physical execution subsystem: every view of
the paper's fig3/fig4/fig5 workloads executes physically (there is no
interpreter fallback) to exactly the interpreter's bag; view refresh and
multi-query execution run through the physical layer; forced materialization
produces plans with reuse steps that resolve to stored results.
"""

import pytest

from repro.engine.executor import MaterializedRegistry, evaluate
from repro.engine.physical import PhysicalExecutor, execute_plan
from repro.maintenance.maintainer import ViewRefresher, apply_and_refresh
from repro.mqo.greedy import MultiQueryOptimizer
from repro.mqo.sharing import execute_with_temporaries, shared_nodes
from repro.optimizer.dag_builder import DagBuilder
from repro.optimizer.volcano import VolcanoSearch
from repro.workloads import queries
from repro.workloads.datagen import TpcdDataGenerator, small_database
from repro.workloads.updategen import uniform_deltas


@pytest.fixture(scope="module")
def workload_database():
    """A fully populated (all eight tables) small TPC-D database."""
    return TpcdDataGenerator(scale_factor=0.001, seed=3).populate()


def workload_views():
    combined = {}
    combined.update(queries.standalone_join_view())
    combined.update(queries.standalone_agg_view())
    combined.update(queries.view_set_plain())
    combined.update(queries.view_set_aggregate())
    combined.update(queries.large_view_set())
    return combined


def test_entire_workload_executes_physically(workload_database):
    """Physical execution matches the interpreter on all 21 views."""
    executor = PhysicalExecutor(workload_database)
    for name, expression in workload_views().items():
        logical = evaluate(expression, workload_database)
        physical = executor.evaluate(expression)
        assert physical.same_bag(logical), f"{name} diverged"
        assert physical.schema.names == logical.schema.names, f"{name} schema diverged"


def test_fig3_views_execute_physically_at_a_larger_scale():
    """The columnar pipeline still matches the interpreter 20x further up."""
    database = small_database(scale_factor=0.02)
    executor = PhysicalExecutor(database)
    views = {**queries.standalone_join_view(), **queries.standalone_agg_view()}
    for name, expression in views.items():
        assert executor.evaluate(expression).same_bag(evaluate(expression, database)), name


def test_refresher_through_physical_layer(workload_database):
    """View refresh with physical (re)computation stays correct end to end."""
    database = workload_database.copy()
    views = queries.view_set_plain()
    deltas = uniform_deltas(database, 0.10, relations=["orders", "lineitem"], seed=5)
    report, verification = apply_and_refresh(
        database, views, deltas, recompute_views={"v_cust_orders"}
    )
    assert all(verification.values()), f"stale views: {verification}"
    assert report.recomputed_views == ["v_cust_orders"]


def test_physical_and_logical_refresh_agree(workload_database):
    """Views the refresher materializes match interpreter recomputation."""
    views = queries.standalone_join_view()
    database = workload_database.copy()
    ViewRefresher(database, views).initialize_views()
    for name, expression in views.items():
        assert database.view(name).same_bag(evaluate(expression, database))


def test_mqo_batch_executes_with_temporaries(workload_database):
    """The MQO plans execute physically and match per-query interpretation."""
    batch = queries.example_3_1_queries()
    mqo = MultiQueryOptimizer(workload_database.catalog)
    outcome = mqo.optimize(batch)
    results = execute_with_temporaries(workload_database, batch, outcome.plans)
    for name, expression in batch.items():
        assert results[name].same_bag(evaluate(expression, workload_database)), name
    # Temporaries were cleaned up.
    assert not any(v.startswith("e") for v in workload_database.view_names())


def test_forced_shared_materialization_is_reused(workload_database):
    """A plan extracted under a materialized set reads the stored result."""
    batch = queries.example_3_1_queries()
    builder = DagBuilder(workload_database.catalog)
    for name, expression in batch.items():
        builder.add_query(name, expression)
    dag = builder.finish()
    shared = [node for node in shared_nodes(dag) if node.id not in
              {root.id for root in dag.roots.values()}]
    assert shared, "expected a shared sub-expression between Q1 and Q2"
    target = shared[0]

    search = VolcanoSearch(dag, workload_database.catalog)
    outcome = search.optimize(materialized={target.id})
    plan = outcome.extract_plan(dag.roots["Q1"].id)
    reuse_steps = plan.reused_nodes()
    assert reuse_steps, "plan under materialization should contain a reuse step"

    registry = MaterializedRegistry()
    contents = evaluate(target.expression, workload_database)
    name = reuse_steps[0].view_name
    workload_database.materialize_view(name, contents)
    registry.register(target.expression, name)
    try:
        expected = evaluate(batch["Q1"], workload_database)
        result = execute_plan(
            plan, workload_database, registry, output_schema=expected.schema
        )
        assert result.same_bag(expected)
    finally:
        workload_database.drop_view(name)
