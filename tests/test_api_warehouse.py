"""Tests for the public façade: ``Warehouse``, ``WarehouseConfig`` and ``Q``.

Three layers of guarantees:

* the fluent :class:`Q` builder compiles to exactly the expressions the
  hand-built workload definitions produce (canonical equality, which implies
  bag equivalence on every database);
* the façade adds no semantic drift — ``Warehouse.optimize`` reproduces the
  directly wired ``ViewMaintenanceOptimizer`` costs bit-for-bit on the
  fig3/fig5 workloads;
* the session round-trips define → optimize → apply → explain with
  transactional apply semantics and friendly (near-miss) errors.
"""

import pytest

from repro import (
    Q,
    UpdateSpec,
    Warehouse,
    WarehouseConfig,
    WarehouseError,
    WarehouseRefreshReport,
)
from repro.algebra.predicates import lt
from repro.engine.executor import evaluate
from repro.maintenance.optimizer import ViewMaintenanceOptimizer
from repro.storage.delta import Delta, DeltaStore
from repro.storage.relation import Relation
from repro.workloads import queries, tpcd


# ----------------------------------------------------------------- Q builder

def q_standalone_agg():
    return (
        Q.table("lineitem").join("orders").join("customer").join("nation")
        .group_by("n_name")
        .sum("l_extendedprice", "revenue")
        .count("order_lines")
    )


def q_large_view_set():
    relations = {
        "v01_order_lines": ["lineitem", "orders", "customer"],
        "v02_order_nations": ["lineitem", "orders", "customer", "nation"],
        "v03_customer_orders": ["orders", "customer", "nation"],
        "v04_supplier_lines": ["lineitem", "supplier", "nation"],
        "v05_part_supply": ["partsupp", "part", "supplier"],
        "v06_part_lines": ["lineitem", "part", "orders"],
        "v07_supply_regions": ["supplier", "nation", "region"],
        "v08_customer_regions": ["customer", "nation", "region"],
        "v09_supply_lines": ["lineitem", "partsupp", "supplier"],
        "v10_order_parts": ["lineitem", "orders", "part"],
    }
    views = {}
    for name, chain in relations.items():
        q = Q.table(chain[0])
        for relation in chain[1:]:
            q = q.join(relation)
        views[name] = q
    return views


def test_q_matches_handbuilt_fig3_views():
    assert (
        Q.table("lineitem").join("orders").join("customer").join("nation").build()
        == queries.standalone_join_view()["v_order_details"]
    )
    assert q_standalone_agg().build() == queries.standalone_agg_view()["v_revenue_by_nation"]


def test_q_matches_handbuilt_fig5_views():
    hand = queries.large_view_set()
    built = {name: q.build() for name, q in q_large_view_set().items()}
    assert set(built) == set(hand)
    for name in hand:
        assert built[name].canonical() == hand[name].canonical(), name


def test_q_matches_handbuilt_selection_views():
    base = Q.table("lineitem").join("orders")
    built = {
        "v_big_orders": base.where(lt("o_totalprice", 100000.0)).build(),
        "v_small_orders": base.where(lt("o_totalprice", 10000.0)).build(),
    }
    hand = queries.selection_variant_views()
    for name in hand:
        assert built[name].canonical() == hand[name].canonical()


def test_q_bag_equivalent_on_executable_data(tiny_tpcd_database):
    expression = q_standalone_agg().build()
    hand = queries.standalone_agg_view()["v_revenue_by_nation"]
    assert evaluate(expression, tiny_tpcd_database).same_bag(
        evaluate(hand, tiny_tpcd_database)
    )


def test_q_builders_are_immutable_prefixes():
    prefix = Q.table("orders").join("customer")
    a = prefix.join("lineitem")
    b = prefix.join("nation")
    assert prefix.relations() == ("orders", "customer")
    assert a.relations() == ("orders", "customer", "lineitem")
    assert b.relations() == ("orders", "customer", "nation")


def test_q_explicit_on_condition_and_projection():
    expression = (
        Q.table("orders")
        .join("customer", on=("o_custkey", "c_custkey"))
        .select("c_custkey", "o_totalprice")
        .build()
    )
    assert "project[c_custkey,o_totalprice]" in expression.canonical()


def test_q_error_paths():
    with pytest.raises(WarehouseError, match="Q.table"):
        Q().join("orders")
    with pytest.raises(WarehouseError, match="already part"):
        Q.table("orders").join("orders")
    with pytest.raises(WarehouseError, match="no natural join"):
        Q.table("region").join("lineitem").build()
    with pytest.raises(WarehouseError, match="Predicate"):
        Q.table("orders").where("o_totalprice < 5")
    with pytest.raises(WarehouseError, match="aggregate"):
        Q.table("orders").group_by("o_orderstatus").build()


# --------------------------------------------------------------------- config

def test_config_profiles_exist_and_validate():
    assert set(WarehouseConfig.profiles()) == {"paper", "fast", "verify"}
    paper = WarehouseConfig.profile("paper")
    assert paper.greedy and paper.with_pk_indexes and paper.histograms
    verify = WarehouseConfig.profile("verify")
    assert verify.verify_differentials and verify.verify_refresh
    fast = WarehouseConfig.profile("fast")
    assert not fast.include_index_candidates and not fast.feedback


def test_config_profile_overrides_and_near_miss():
    config = WarehouseConfig.profile("paper", update_percentage=0.2)
    assert config.update_percentage == 0.2
    with pytest.raises(WarehouseError, match="did you mean 'paper'"):
        WarehouseConfig.profile("papr")
    with pytest.raises(WarehouseError, match="config field"):
        WarehouseConfig.profile("paper", update_pct=0.2)


def test_config_validation():
    with pytest.raises(WarehouseError, match="buffer_pages"):
        WarehouseConfig(buffer_pages=0)
    with pytest.raises(WarehouseError, match="update_percentage"):
        WarehouseConfig(update_percentage=-0.1)


def test_config_workers_accepts_only_serial(monkeypatch):
    """Execution is serial: ``workers`` survives only as the value 1."""
    with pytest.raises(WarehouseError, match="parallel layer was removed"):
        WarehouseConfig(workers=2)
    with pytest.raises(WarehouseError, match="parallel layer was removed"):
        WarehouseConfig.profile("fast", workers=2)
    # The frozen benchmark pins workers=1 on every workload.
    assert WarehouseConfig.profile("fast", workers=1).workers == 1
    # The environment no longer selects a worker count.
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert WarehouseConfig().workers == 1


# ----------------------------------------------------------- façade ≡ direct

@pytest.fixture(scope="module")
def catalog_01():
    return tpcd.tpcd_catalog(scale_factor=0.1)


def test_facade_costs_match_direct_wiring_fig3(catalog_01):
    views = queries.standalone_agg_view()
    spec = UpdateSpec.uniform(0.05)
    direct = ViewMaintenanceOptimizer(catalog_01)
    wh = Warehouse().load(catalog=catalog_01).define_views(views)
    assert wh.optimize(spec, greedy=False).total_cost == direct.no_greedy(views, spec).total_cost
    assert wh.optimize(spec, greedy=True).total_cost == direct.optimize(views, spec).total_cost


def test_facade_costs_match_direct_wiring_fig5(catalog_01):
    views = queries.large_view_set()
    spec = UpdateSpec.uniform(0.10)
    direct = ViewMaintenanceOptimizer(catalog_01)
    wh = Warehouse().load(catalog=catalog_01).define_views(q_large_view_set())
    assert wh.optimize(spec, greedy=False).total_cost == direct.no_greedy(views, spec).total_cost
    assert wh.optimize(spec, greedy=True).total_cost == direct.optimize(views, spec).total_cost


# ------------------------------------------------------------------ round trip

def _quickstart_warehouse():
    wh = Warehouse(WarehouseConfig.profile("verify")).load(scale=0.1)
    wh.define_view("v_revenue_by_nation", q_standalone_agg())
    return wh


def test_round_trip_fig3_define_optimize_apply_explain():
    wh = _quickstart_warehouse()
    result = wh.optimize()
    assert result.total_cost > 0
    wh.load_data(
        scale=0.001, seed=7,
        tables=["region", "nation", "supplier", "customer", "orders", "lineitem"],
    )
    report = wh.apply(0.05)
    assert isinstance(report, WarehouseRefreshReport)
    assert report.total_changes() > 0
    assert report.verification and report.verified
    assert wh.verify() == {"v_revenue_by_nation": True}
    explained = wh.explain("v_revenue_by_nation")
    assert "strategy:" in explained and "plan:" in explained


def test_round_trip_fig5_define_optimize_apply_explain():
    wh = Warehouse(WarehouseConfig.profile("verify", update_percentage=0.10))
    wh.load(scale=0.1).define_views(q_large_view_set())
    result = wh.optimize()
    assert {d.view for d in result.plan.decisions} == set(q_large_view_set())
    wh.load_data(scale=0.0004, seed=11)
    report = wh.apply()
    assert report.verified
    assert set(report.verification) == set(wh.views)
    # A second batch reuses the already-materialized views.
    second = wh.apply(0.05)
    assert second.verified
    explained = wh.explain("v02_order_nations")
    assert "view: v02_order_nations" in explained


def test_explain_output_is_stable_for_quickstart_view():
    first = _quickstart_warehouse()
    first.optimize()
    second = _quickstart_warehouse()
    second.optimize()
    rendering = first.explain("v_revenue_by_nation")
    assert rendering == second.explain("v_revenue_by_nation")
    lines = rendering.splitlines()
    assert lines[0] == "view: v_revenue_by_nation"
    assert lines[1].startswith("definition: aggregate[n_name;")
    assert lines[2].startswith("strategy: incremental (recompute ")
    assert "plan:" in lines
    plan_ops = [l.strip().split(" ")[0] for l in lines[lines.index("plan:") + 1:] if "cost=" in l]
    assert plan_ops[0].startswith("γ[n_name")
    assert plan_ops.count("scan(lineitem)") == 1
    assert "cardinalities (estimated -> actual):" in lines


def test_explain_runs_optimize_lazily():
    wh = Warehouse().load(scale=0.05)
    wh.define_view("v", Q.table("orders").join("customer"))
    explained = wh.explain("v")
    assert wh.last_optimization is not None
    assert "view: v" in explained


# ------------------------------------------------------------------ friendly errors

def test_define_view_unknown_relation_names_near_miss():
    wh = Warehouse().load(scale=0.05)
    with pytest.raises(WarehouseError, match="did you mean 'lineitem'"):
        wh.define_view("v", Q.table("lineitm").join("orders", on=("l_orderkey", "o_orderkey")))


def test_explain_unknown_view_names_near_miss():
    wh = Warehouse().load(scale=0.05)
    wh.define_view("v_revenue", Q.table("orders").join("customer"))
    with pytest.raises(WarehouseError, match="did you mean 'v_revenue'"):
        wh.explain("v_revenu")


def test_optimize_and_apply_without_prerequisites():
    wh = Warehouse()
    with pytest.raises(WarehouseError, match="load\\(\\) first"):
        wh.optimize()
    wh.load(scale=0.05)
    with pytest.raises(WarehouseError, match="define_view"):
        wh.optimize()
    wh.define_view("v", Q.table("orders").join("customer"))
    with pytest.raises(WarehouseError, match="load_data"):
        wh.apply(0.05)


def test_apply_rejects_bad_batch_type(tiny_tpcd_database):
    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v", Q.table("orders").join("customer"))
    with pytest.raises(WarehouseError, match="DeltaStore"):
        wh.apply("five percent")


def test_report_is_not_vacuously_verified(tiny_tpcd_database):
    # Default profile: no verification runs, so the report must not claim it.
    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v", Q.table("orders").join("customer"))
    report = wh.apply(0.05)
    assert report.verification == {}
    assert not report.verified


def test_repeated_apply_never_reissues_primary_keys(tiny_tpcd_database):
    from repro.maintenance.update_spec import RelationUpdate, UpdateSpec

    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v", Q.table("orders").join("customer"))
    # A delete-heavy batch shrinks the tables below the key high-water mark;
    # the next generated batch must continue the sequences, not restart them
    # at len(table) and re-issue keys of rows that still exist.
    wh.apply(UpdateSpec({
        "orders": RelationUpdate(insert_fraction=0.05, delete_fraction=0.30),
        "customer": RelationUpdate(insert_fraction=0.05, delete_fraction=0.30),
    }))
    wh.apply(0.10)
    for table in ("orders", "customer"):
        keys = [row[0] for row in wh.database.table(table).rows]
        assert len(keys) == len(set(keys)), f"duplicate primary keys in {table}"
    assert wh.verify() == {"v": True}


def test_a_rejected_batch_changes_nothing(tiny_tpcd_database):
    from repro.catalog.schema import Schema

    def warehouse():
        wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
        wh.define_view("v", Q.table("orders").join("customer"))
        return wh

    rejected, untouched = warehouse(), warehouse()
    orders = rejected.database.table("orders")
    # The table's arity under stale column names: static verification
    # (REPRO-P005) rejects it, through apply() and through ingest().
    stale = Schema.from_names([f"stale_{name}" for name in orders.schema.names])
    store = DeltaStore(["orders"])
    store.set_delta(
        Delta("orders", Relation(stale, orders.rows[:50]), Relation(stale, []))
    )
    with pytest.raises(WarehouseError, match="REPRO-P005"):
        rejected.apply(store)
    with rejected.stream() as session:
        with pytest.raises(WarehouseError, match="REPRO-P005"):
            session.ingest(store)
    assert session.reports == []
    # No keys issued, nothing buffered, no plan run: the next generated
    # batch writes the same rows as on a warehouse that saw no rejection.
    assert rejected.last_optimization is None
    rejected.apply(0.05, seed=9)
    untouched.apply(0.05, seed=9)
    for name in untouched.database.table_names():
        assert rejected.database.table(name).same_bag(
            untouched.database.table(name)
        ), name
    assert rejected.verify() == {"v": True}


def test_lazy_optimize_uses_the_delta_store_actual_fractions(tiny_tpcd_database):
    from repro.workloads.updategen import uniform_deltas

    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v", Q.table("orders").join("customer"))
    deltas = uniform_deltas(wh.database, 0.40, relations=["customer", "orders"])
    spec = wh._spec_of([deltas])
    assert spec.for_relation("orders").insert_fraction == pytest.approx(0.40, rel=0.1)
    assert spec.for_relation("orders").delete_fraction == pytest.approx(0.20, rel=0.1)
    # And the lazy optimize inside apply() prices exactly that spec: at a
    # 40% batch, recomputation wins over incremental maintenance.
    report = wh.apply(deltas)
    assert wh.last_optimization is not None
    assert report.recomputed_views == ["v"] or report.total_changes() > 0
    assert wh.verify() == {"v": True}


# ------------------------------------------------------------- transactionality

def test_apply_rolls_back_on_mid_refresh_failure(tiny_tpcd_database):
    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v_co", Q.table("orders").join("customer"))
    wh.apply(0.05)
    database = wh.database
    before_orders = len(database.table("orders"))
    before_view = database.view("v_co").copy()

    # A delta whose schema cannot match "orders" blows up mid-refresh.
    bad = DeltaStore(["orders"])
    bad.set_delta(
        Delta(
            "orders",
            inserts=Relation(database.table("nation").schema, [(999, "NOWHERE", 0)]),
            deletes=Relation(database.table("nation").schema, []),
        )
    )
    with pytest.raises(Exception):
        wh.apply(bad)
    rolled_back = wh.database
    assert len(rolled_back.table("orders")) == before_orders
    assert rolled_back.view("v_co").same_bag(before_view)
    # Planning must follow the restored database (load_data-without-load
    # binds planning to the runtime catalog): pricing after the rollback
    # must not see statistics from the discarded batch.
    assert wh.catalog is rolled_back.catalog
    assert wh.catalog.stats("orders").cardinality == before_orders
    # The session stays usable after the rollback.
    report = wh.apply(0.05)
    assert report.total_changes() >= 0


def test_second_load_data_rebinds_planning_that_followed_the_data():
    wh = Warehouse(WarehouseConfig.profile("fast")).load_data(scale=0.0005)
    first = wh.database
    wh.load_data(scale=0.001)
    assert wh.catalog is wh.database.catalog is not first.catalog
    assert wh.catalog.stats("lineitem").cardinality == len(wh.database.table("lineitem"))
    # A planning catalog of its own stays put.
    planned = Warehouse(WarehouseConfig.profile("fast")).load(scale=0.05)
    catalog = planned.catalog
    planned.load_data(scale=0.0005)
    planned.load_data(scale=0.001)
    assert planned.catalog is catalog


def test_rolled_back_apply_keeps_tables_columnar(tiny_tpcd_database, monkeypatch):
    from repro.engine.database import Database

    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v_co", Q.table("orders").join("customer"))
    wh.apply(0.05)
    database = wh.database
    stores = {n: database.table(n).vector_store() for n in database.table_names()}

    def failing_merge(self, relation, kind, delta_rows):
        raise RuntimeError("merge failed")

    monkeypatch.setattr(Database, "apply_update", failing_merge)
    with pytest.raises(RuntimeError, match="merge failed"):
        wh.apply(0.05)
    monkeypatch.undo()
    # The pre-batch snapshot is live now; it shares the (immutable) column
    # stores instead of re-inferring dtypes for every table on next touch.
    assert wh.database is not database
    for name, store in stores.items():
        assert wh.database.table(name).cached_store() is store
    assert wh.verify() == {"v_co": True}


def test_apply_unknown_relation_in_batch(tiny_tpcd_database):
    wh = Warehouse().load_data(database=tiny_tpcd_database.copy())
    wh.define_view("v", Q.table("orders").join("customer"))
    store = DeltaStore(["part"])
    schema = tpcd.tpcd_tables()["part"].schema
    store.set_delta(Delta("part", Relation(schema, [(1, "p", "b", "t", 1, 1.0)]), Relation(schema, [])))
    with pytest.raises(WarehouseError, match="unknown relation 'part'"):
        wh.apply(store)


# ----------------------------------------------------------------------- MQO

def test_optimize_queries_matches_direct_mqo(catalog_01):
    from repro.mqo.greedy import MultiQueryOptimizer

    wh = Warehouse().load(catalog=catalog_01)
    result = wh.optimize_queries(
        {
            "Q1": Q.table("orders").join("customer").join("lineitem"),
            "Q2": Q.table("customer").join("nation").join("orders"),
        }
    )
    direct = MultiQueryOptimizer(catalog_01).optimize(queries.example_3_1_queries())
    assert result.unshared_cost == direct.unshared_cost
    assert result.optimized_cost == direct.optimized_cost


# -------------------------------------------------------------------- harness

def test_experiment_config_goes_through_warehouse():
    from repro.bench.harness import ExperimentConfig, run_figure_sweep

    config = ExperimentConfig(catalog=tpcd.tpcd_catalog(scale_factor=0.05))
    warehouse = config.warehouse()
    assert isinstance(warehouse, Warehouse)

    series = run_figure_sweep(
        "mini", "façade sweep", queries.standalone_join_view(), config, (0.05,)
    )
    direct = ViewMaintenanceOptimizer(
        config.catalog, cost_model=config.cost_model()
    )
    spec = UpdateSpec.uniform(0.05)
    assert series.points[0].no_greedy_cost == direct.no_greedy(
        queries.standalone_join_view(), spec
    ).total_cost
    assert series.points[0].greedy_cost == direct.optimize(
        queries.standalone_join_view(), spec
    ).total_cost


# ------------------------------------------------------------------ public surface

def test_public_surface_is_exported():
    import repro

    for name in (
        "Warehouse",
        "WarehouseConfig",
        "WarehouseError",
        "WarehouseRefreshReport",
        "Q",
        "UpdateSpec",
        "RefreshReport",
        "OptimizationResult",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)
