"""Tests for the plan verifier (``repro.analysis.planlint``).

The contract has two halves:

* **conservative** — every plan the optimizer produces for every supported
  workload verifies with zero diagnostics (a verifier that cries wolf would
  have to be turned off);
* **sensitive** — each seeded fault class is caught with its own distinct
  code: a mutated plan payload (``REPRO-P001``), a flipped index
  nested-loop orientation (``REPRO-P003``), a delta for a relation outside
  the round (``REPRO-P004``), a stale δ-rule schema (``REPRO-P005``), an
  unresolvable reuse (``REPRO-P006``), a mis-ordered shared temporary
  (``REPRO-P007``), and a scan of an unknown relation (``REPRO-P009``).

The integration layer is covered too: the :class:`PhysicalExecutor` refuses
to execute a plan the verifier rejects, ``Warehouse.apply`` refuses a
statically broken update round, and ``Warehouse.explain`` renders the
verification outcome.
"""

import pytest

from repro import Q, Warehouse, WarehouseConfig, WarehouseError
from repro.algebra.expressions import BaseRelation, Join, Project, Select
from repro.algebra.predicates import lit, lt
from repro.analysis import (
    CODES,
    SEVERITIES,
    render_verification,
    verify_delta_round,
    verify_plan,
    verify_temporaries,
)
from repro.catalog.schema import Column, ColumnType, Schema
from repro.engine.physical import PhysicalExecutor, PhysicalPlanError
from repro.optimizer.dag import OperatorKind
from repro.optimizer.plans import PlanNode
from repro.storage.delta import Delta, DeltaStore
from repro.storage.relation import Relation
from repro.workloads import queries


@pytest.fixture(scope="module")
def full_tpcd_database():
    """All eight TPC-D tables at a tiny scale (part/partsupp included)."""
    from repro.workloads.datagen import TpcdDataGenerator

    return TpcdDataGenerator(scale_factor=0.0005, seed=3).populate()


def plan_nodes(plan):
    """Every node of a plan tree, root first."""
    out = [plan]
    for i in range(len(out)):  # noqa: B007 — list grows while iterating
        out.extend(out[i].children)
    return out


def assert_well_formed(diagnostics):
    for d in diagnostics:
        assert d.code in CODES, d
        assert d.severity in SEVERITIES, d
        assert d.message


# --------------------------------------------------------- conservativeness

def test_every_workload_plan_verifies_clean(full_tpcd_database):
    executor = PhysicalExecutor(full_tpcd_database, feedback=False)
    workloads = [
        queries.standalone_join_view(),
        queries.standalone_agg_view(),
        queries.view_set_plain(),
        queries.view_set_aggregate(),
        queries.large_view_set(),
        queries.selection_variant_views(),
        queries.example_3_1_queries(),
        queries.example_3_2_view(),
    ]
    checked = 0
    for views in workloads:
        for name, expression in views.items():
            plan, _ = executor.plan(expression)
            diagnostics = verify_plan(plan, database=full_tpcd_database)
            assert diagnostics == [], (name, [d.render() for d in diagnostics])
            checked += 1
    assert checked >= 20


# ------------------------------------------------------------ seeded faults

def test_mutated_projection_payload_is_p001(full_tpcd_database):
    executor = PhysicalExecutor(full_tpcd_database, feedback=False)
    query = Project(
        Join(BaseRelation("customer"), BaseRelation("orders"),
             [("c_custkey", "o_custkey")]),
        ("c_name", "o_totalprice"),
    )
    plan, _ = executor.plan(query)
    projects = [
        n for n in plan_nodes(plan)
        if n.operator is not None and n.operator.kind is OperatorKind.PROJECT
    ]
    assert projects, "expected at least one projection step"
    # Operator is frozen; a seeded fault has to go through object.__setattr__.
    object.__setattr__(projects[0].operator, "columns", ("c_name", "bogus_col"))
    diagnostics = verify_plan(plan, database=full_tpcd_database)
    errors = [d for d in diagnostics if d.severity == "error"]
    assert {d.code for d in errors} == {"REPRO-P001"}
    assert "bogus_col" in errors[0].message
    assert_well_formed(diagnostics)


def test_flipped_index_join_orientation_is_p003(full_tpcd_database):
    executor = PhysicalExecutor(full_tpcd_database, feedback=False)
    expression = queries.standalone_join_view()["v_order_details"]
    plan, _ = executor.plan(expression)
    indexed = [
        n for n in plan_nodes(plan)
        if (n.algorithm or "").startswith("index_nested_loop")
        and len(n.children) == 2
        and not (n.children[0].operator is not None
                 and n.children[0].operator.kind is OperatorKind.SCAN
                 and n.children[1].operator is not None
                 and n.children[1].operator.kind is OperatorKind.SCAN)
    ]
    assert indexed, "expected an index NL join with a composite side"
    node = indexed[0]
    side = "left" if node.algorithm.endswith("_left") else "right"
    flipped = ("index_nested_loop_right" if side == "left"
               else "index_nested_loop_left")
    node.algorithm = flipped  # PlanNode itself is a plain mutable dataclass
    diagnostics = verify_plan(plan, database=full_tpcd_database)
    errors = [d for d in diagnostics if d.severity == "error"]
    assert {d.code for d in errors} == {"REPRO-P003"}
    assert "orientation" in errors[0].hint
    assert_well_formed(diagnostics)


def test_out_of_round_delta_is_p004(full_tpcd_database):
    schema = full_tpcd_database.table("customer").schema
    empty = Relation(schema, [])
    deltas = DeltaStore(["phantom"])
    deltas.set_delta(Delta("phantom", empty, empty))
    diagnostics = verify_delta_round(deltas, full_tpcd_database)
    assert [d.code for d in diagnostics] == ["REPRO-P004"]
    assert diagnostics[0].severity == "error"
    assert_well_formed(diagnostics)


def test_stale_delta_schema_is_p005(full_tpcd_database):
    stale = Schema.of(Column("c_bogus", ColumnType.INTEGER))
    base = full_tpcd_database.table("customer").schema
    deltas = DeltaStore(["customer"])
    deltas.set_delta(
        Delta("customer", Relation(stale, [(1,)]), Relation(base, []))
    )
    diagnostics = verify_delta_round(deltas, full_tpcd_database)
    assert [d.code for d in diagnostics] == ["REPRO-P005"]
    assert "stale" in diagnostics[0].hint
    assert_well_formed(diagnostics)


def test_unreferenced_relation_delta_warns_with_views(full_tpcd_database):
    schema = full_tpcd_database.table("part").schema
    rows = full_tpcd_database.table("part").rows[:1]
    deltas = DeltaStore(["part"])
    deltas.set_delta(Delta("part", Relation(schema, list(rows)), Relation(schema, [])))
    views = {"v": queries.standalone_join_view()["v_order_details"]}
    diagnostics = verify_delta_round(deltas, full_tpcd_database, views=views)
    assert [d.code for d in diagnostics] == ["REPRO-P004"]
    assert diagnostics[0].severity == "warning"


def test_unresolved_reuse_is_p006(full_tpcd_database):
    expression = Join(
        BaseRelation("customer"), BaseRelation("orders"),
        [("c_custkey", "o_custkey")],
    )
    # With or without a logical expression: nothing recomputes a reuse step.
    for node_id, carried in ((1, expression), (2, None)):
        unresolved = PlanNode(
            description="reuse[v_missing]", node_id=node_id, cost=0.0, cardinality=0.0,
            reused=True, expression=carried, view_name="v_missing",
        )
        diagnostics = verify_plan(unresolved, database=full_tpcd_database)
        assert [d.code for d in diagnostics] == ["REPRO-P006"]
        assert diagnostics[0].severity == "error"


def test_misordered_temporaries_is_p007():
    inner = Join(
        BaseRelation("customer"), BaseRelation("orders"),
        [("c_custkey", "o_custkey")],
    )
    outer = Select(inner, lt("o_totalprice", lit(100000.0)))
    good = [("t_inner", inner), ("t_outer", outer)]
    assert verify_temporaries(good) == []
    bad = [("t_outer", outer), ("t_inner", inner)]
    diagnostics = verify_temporaries(bad)
    assert [d.code for d in diagnostics] == ["REPRO-P007"]
    assert "t_inner" in diagnostics[0].message
    assert_well_formed(diagnostics)


def test_scan_of_unknown_relation_is_p009(full_tpcd_database):
    executor = PhysicalExecutor(full_tpcd_database, feedback=False)
    plan, _ = executor.plan(BaseRelation("nation"))
    scans = [
        n for n in plan_nodes(plan)
        if n.operator is not None and n.operator.kind is OperatorKind.SCAN
    ]
    assert scans
    object.__setattr__(scans[0].operator, "relation", "phantom")
    # The database's catalog would still resolve 'phantom'-free checks; use
    # the database alone so the scan is checked against loaded relations.
    from repro.catalog.catalog import Catalog

    diagnostics = verify_plan(plan, database=full_tpcd_database, catalog=Catalog())
    assert "REPRO-P009" in {d.code for d in diagnostics}


def test_seeded_fault_codes_are_distinct():
    """The acceptance criterion: each fault class has its own code."""
    assert len({"REPRO-P001", "REPRO-P003", "REPRO-P004",
                "REPRO-P005", "REPRO-P007"}) == 5


# ----------------------------------------------------------- executor refusal

def test_executor_refuses_mutated_cached_plan(full_tpcd_database):
    executor = PhysicalExecutor(
        full_tpcd_database, feedback=False, verify_plans="always"
    )
    query = Project(
        Join(BaseRelation("customer"), BaseRelation("orders"),
             [("c_custkey", "o_custkey")]),
        ("c_name", "o_totalprice"),
    )
    plan, _ = executor.plan(query)  # enters the cache, verified clean
    projects = [
        n for n in plan_nodes(plan)
        if n.operator is not None and n.operator.kind is OperatorKind.PROJECT
    ]
    object.__setattr__(projects[0].operator, "columns", ("c_name", "bogus_col"))
    with pytest.raises(PhysicalPlanError) as excinfo:
        executor.plan(query)  # "always" re-verifies the cached plan
    assert "REPRO-P001" in str(excinfo.value)


def test_executor_rejects_unknown_verify_mode(full_tpcd_database):
    with pytest.raises(ValueError):
        PhysicalExecutor(full_tpcd_database, verify_plans="sometimes")


# -------------------------------------------------------------- façade layer

def test_config_verify_plans_validation():
    with pytest.raises(WarehouseError):
        WarehouseConfig(verify_plans="sometimes")
    assert WarehouseConfig.profile("verify").verify_plans == "always"
    assert "verify-plans=always" in WarehouseConfig.profile("verify").describe()


def test_apply_rejects_statically_broken_round(full_tpcd_database):
    wh = Warehouse().load_data(database=full_tpcd_database.copy())
    wh.define_view(
        "v_order_details", queries.standalone_join_view()["v_order_details"]
    )
    stale = Schema.of(Column("c_bogus", ColumnType.INTEGER))
    base = wh.database.table("customer").schema
    deltas = DeltaStore(["customer"])
    deltas.set_delta(
        Delta("customer", Relation(stale, [(1,)]), Relation(base, []))
    )
    with pytest.raises(WarehouseError) as excinfo:
        wh.apply(deltas)
    assert "REPRO-P005" in str(excinfo.value)


def test_churn_rounds_verify_clean(full_tpcd_database):
    """A generated update batch refreshes under always-on verification."""
    wh = Warehouse(WarehouseConfig(verify_plans="always")).load_data(
        database=full_tpcd_database.copy()
    )
    wh.define_views(queries.view_set_plain())
    report = wh.apply(0.05)
    assert report.base_rows_applied > 0
    # Every view was refreshed, incrementally or by recomputation.
    refreshed = {s.view for s in report.steps} | set(report.recomputed_views)
    assert refreshed >= set(queries.view_set_plain())


def test_explain_renders_verification_outcome():
    wh = Warehouse(WarehouseConfig.profile("verify")).load(scale=0.01)
    wh.define_view(
        "v_order_details", queries.standalone_join_view()["v_order_details"]
    )
    wh.optimize()
    text = wh.explain("v_order_details")
    assert "verification:" in text
    assert "verified: no diagnostics" in text


def test_render_verification_shapes():
    assert render_verification([]) == ["verified: no diagnostics"]
    diagnostics = verify_temporaries([
        ("t_outer", Select(BaseRelation("orders"), lt("o_totalprice", lit(1.0)))),
        ("t_inner", BaseRelation("orders")),
    ])
    lines = render_verification(diagnostics)
    assert lines[0] == "1 diagnostic(s):"
    assert "REPRO-P007" in lines[1]
