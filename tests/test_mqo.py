"""Tests for multi-query optimization (sharing detection + RSSB00 greedy)."""

import pytest

from repro.mqo.greedy import MultiQueryOptimizer
from repro.mqo.sharing import nodes_per_query, sharable_candidates, shared_nodes, sharing_report
from repro.optimizer.dag_builder import build_dag
from repro.workloads import queries, tpcd


@pytest.fixture(scope="module")
def catalog():
    return tpcd.tpcd_catalog(scale_factor=0.1)


@pytest.fixture(scope="module")
def two_query_dag(catalog):
    return build_dag(
        {
            "Q1": queries.chain_join(["lineitem", "orders", "customer"]),
            "Q2": queries.chain_join(["lineitem", "orders", "customer", "nation"]),
        },
        catalog,
    )


def test_nodes_per_query_covers_roots(two_query_dag):
    per_query = nodes_per_query(two_query_dag)
    assert set(per_query) == {"Q1", "Q2"}
    assert two_query_dag.roots["Q1"].id in per_query["Q1"]
    # Q1's root is a sub-expression of Q2, hence also reachable from Q2.
    assert two_query_dag.roots["Q1"].id in per_query["Q2"]


def test_shared_nodes_exclude_base_relations(two_query_dag):
    shared = shared_nodes(two_query_dag)
    assert shared, "the two queries share join sub-expressions"
    assert all(not node.is_base_relation for node in shared)


def test_sharable_candidates_exclude_roots(two_query_dag):
    roots = {node.id for node in two_query_dag.roots.values()}
    # Q1's root is shared with Q2 but is itself a root, so it is excluded.
    candidates = {node.id for node in sharable_candidates(two_query_dag)}
    assert two_query_dag.roots["Q2"].id not in candidates
    assert candidates, "non-root shared candidates must remain"


def test_sharing_report_names_queries(two_query_dag):
    report = sharing_report(two_query_dag)
    assert any(set(queries_) == {"Q1", "Q2"} for queries_ in report.values())


def test_example_3_1_finds_global_sharing(catalog):
    """Example 3.1: the globally optimal plans share R ⋈ S across the queries."""
    optimizer = MultiQueryOptimizer(catalog)
    result = optimizer.optimize(queries.example_3_1_queries())
    assert result.optimized_cost <= result.unshared_cost + 1e-9
    assert result.query_costs and set(result.query_costs) == {"Q1", "Q2"}
    assert result.plans["Q1"].count_nodes() >= 3


def test_mqo_never_hurts_on_unrelated_queries(catalog):
    optimizer = MultiQueryOptimizer(catalog)
    result = optimizer.optimize(
        {
            "Qa": queries.chain_join(["supplier", "nation", "region"]),
            "Qb": queries.chain_join(["orders", "customer"]),
        }
    )
    assert result.optimized_cost <= result.unshared_cost + 1e-9


def test_monotonicity_and_basic_loops_agree(catalog):
    workload = {
        "Q1": queries.chain_join(["lineitem", "orders", "customer"]),
        "Q2": queries.chain_join(["lineitem", "orders", "customer", "nation"]),
        "Q3": queries.chain_join(["orders", "customer", "nation"]),
    }
    lazy = MultiQueryOptimizer(catalog, use_monotonicity=True).optimize(workload)
    eager = MultiQueryOptimizer(catalog, use_monotonicity=False).optimize(workload)
    # The monotonicity optimization is a heuristic but on this workload both
    # loops should find configurations of very similar quality.
    assert lazy.optimized_cost == pytest.approx(eager.optimized_cost, rel=0.05)


def test_disabling_sharability_pruning_does_not_worsen_result(catalog):
    workload = {
        "Q1": queries.chain_join(["lineitem", "orders", "customer"]),
        "Q2": queries.chain_join(["lineitem", "orders", "customer", "nation"]),
    }
    pruned = MultiQueryOptimizer(catalog, apply_sharability_pruning=True).optimize(workload)
    unpruned = MultiQueryOptimizer(catalog, apply_sharability_pruning=False).optimize(workload)
    assert unpruned.optimized_cost <= pruned.optimized_cost * 1.001


def test_improvement_ratio_property(catalog):
    optimizer = MultiQueryOptimizer(catalog)
    result = optimizer.optimize(queries.example_3_1_queries())
    assert 0.0 <= result.improvement_ratio < 1.0


def test_execute_with_temporaries_cleans_up_on_failure():
    """A failing temporary materialization must not leak earlier temporaries."""
    import pytest as _pytest

    from repro.algebra.expressions import BaseRelation, Project
    from repro.catalog.catalog import CatalogError
    from repro.engine.database import Database
    from repro.engine.physical import PhysicalPlanError
    from repro.catalog.schema import Schema, TableDef
    from repro.mqo.sharing import execute_with_temporaries
    from repro.optimizer.plans import PlanNode, reuse_plan
    from repro.catalog.statistics import TableStats

    database = Database()
    database.create_table(TableDef("sales", Schema.from_names(["sale_id", "amount"]), ()), [(1, 10)])
    stats = TableStats(1.0, 8, {})
    good = Project(BaseRelation("sales"), ["sale_id"])
    bad = Project(BaseRelation("zz_missing"), ["a", "b", "c", "d"])
    assert len(good.canonical()) < len(bad.canonical())  # good materializes first
    plan = PlanNode(
        description="root",
        node_id=0,
        cost=1.0,
        cardinality=1.0,
        children=[
            reuse_plan(1, "t_good", 0.1, stats, expression=good),
            reuse_plan(2, "t_bad", 0.1, stats, expression=bad),
        ],
        expression=good,
    )
    with _pytest.raises(PhysicalPlanError, match="zz_missing") as excinfo:
        execute_with_temporaries(database, {}, {"q": plan})
    # The typed lookup failure is preserved as the cause.
    assert isinstance(excinfo.value.__cause__, CatalogError)
    # The successfully materialized temporary was rolled back.
    assert database.view_names() == []


def test_stale_auto_labelled_view_is_not_trusted():
    """A leftover view named like a DAG label ("e14") must not be read as
    this batch's shared result; the expression is recomputed fresh."""
    from repro.algebra.expressions import BaseRelation, Project
    from repro.engine.database import Database
    from repro.engine.executor import evaluate
    from repro.catalog.schema import Schema, TableDef
    from repro.catalog.statistics import TableStats
    from repro.mqo.sharing import execute_with_temporaries
    from repro.optimizer.plans import PlanNode, reuse_plan
    from repro.storage.relation import Relation

    database = Database()
    database.create_table(
        TableDef("sales", Schema.from_names(["sale_id", "amount"]), ()), [(1, 10), (2, 20)]
    )
    shared = Project(BaseRelation("sales"), ["sale_id"])
    # Poison: a stale relation under the DAG-scoped label, with wrong contents.
    database.materialize_view("e14", Relation(Schema.from_names(["sale_id"]), [(999,)]))

    stats = TableStats(2.0, 8, {})
    plan = reuse_plan(14, "e14", 0.1, stats, expression=shared)
    results = execute_with_temporaries(database, {"q": shared}, {"q": plan})
    assert results["q"].same_bag(evaluate(shared, database))
    # The poison view is untouched; the fresh temporary was dropped.
    assert database.view_names() == ["e14"]
    assert database.view("e14").rows == [(999,)]
