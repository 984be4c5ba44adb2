"""End-to-end correctness of the executable view refresher.

The decisive check: after a refresh driven by differential propagation (one
relation, one update kind at a time), every materialized view contains
exactly the same bag of tuples as recomputing its definition on the updated
database.
"""

import pytest

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
    base_relations,
)
from repro.algebra.predicates import gt
from repro.engine.differential import differentiate
from repro.engine.executor import evaluate
from repro.maintenance.maintainer import ViewRefresher, apply_and_refresh
from repro.storage.delta import Delta, DeltaStore
from repro.storage.relation import Relation
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import uniform_deltas


def star_views():
    join = Join(
        Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]),
        BaseRelation("stores"),
        [("store_id", "st_id")],
    )
    return {
        "v_detail": join,
        "v_by_store": Aggregate(
            join,
            ["st_city"],
            [
                AggregateSpec(AggregateFunc.SUM, "amount", "revenue"),
                AggregateSpec(AggregateFunc.COUNT, None, "n"),
            ],
        ),
        "v_expensive": Select(Project(BaseRelation("sales"), ["sale_id", "amount"]), gt("amount", 25.0)),
    }


def star_deltas(database, with_deletes=True, order=("sales", "products", "stores")):
    sales_schema = database.table("sales").schema
    products_schema = database.table("products").schema
    stores_schema = database.table("stores").schema
    store = DeltaStore(list(order))
    store.set_delta(
        Delta(
            "sales",
            inserts=Relation(sales_schema, [(7, 11, 102, 2, 44.0), (8, 13, 100, 1, 9.0)]),
            deletes=Relation(sales_schema, [(1, 10, 100, 2, 20.0)] if with_deletes else []),
        )
    )
    store.set_delta(
        Delta(
            "products",
            inserts=Relation(products_schema, [(13, "doodad", "toys", 9.0)]),
            deletes=Relation(products_schema, [(12, "gizmo", "toys", 30.0)] if with_deletes else []),
        )
    )
    store.set_delta(
        Delta(
            "stores",
            inserts=Relation(stores_schema, [(103, "capital city", "east")]),
            deletes=Relation(stores_schema, []),
        )
    )
    return store


def test_refresh_matches_recomputation(star_database):
    database = star_database.copy()
    views = star_views()
    refresher = ViewRefresher(database, views)
    refresher.initialize_views()
    report = refresher.refresh(star_deltas(database))
    verification = refresher.verify_against_recomputation()
    assert all(verification.values()), f"views diverged: {verification}"
    assert report.steps, "incremental steps should have been recorded"


def test_refresh_insert_only(star_database):
    database = star_database.copy()
    views = star_views()
    report, verification = apply_and_refresh(database, views, star_deltas(database, with_deletes=False))
    assert all(verification.values())
    assert report.total_changes() > 0


def test_refresh_with_recompute_strategy_for_some_views(star_database):
    database = star_database.copy()
    views = star_views()
    refresher = ViewRefresher(database, views, recompute_views=["v_detail"])
    refresher.initialize_views()
    report = refresher.refresh(star_deltas(database))
    assert "v_detail" in report.recomputed_views
    assert all(refresher.verify_against_recomputation().values())
    # No incremental steps were recorded for the recomputed view.
    assert all(step.view != "v_detail" for step in report.steps)


def test_refresh_with_temporary_shared_subexpression(star_database):
    database = star_database.copy()
    views = star_views()
    shared = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    refresher = ViewRefresher(database, views, temporary_subexpressions={"tmp_sp": shared})
    refresher.initialize_views()
    refresher.refresh(star_deltas(database))
    assert all(refresher.verify_against_recomputation().values())
    # Temporary results are dropped after the refresh.
    assert not database.has_view("tmp_sp")


def test_temporaries_only_recomputed_when_dependencies_updated(star_database):
    """A temporary is only recomputed once a relation it depends on changed.

    With the stores update propagated first, the sales⋈products temporary
    materialized for that round is still exact when the sales-insert round
    begins (stores does not feed it), so that round reuses it.  Each
    subsequent round starts after a sales or products update, forcing a
    recompute.  The old behavior recomputed the temporary on all 5 rounds.
    """
    database = star_database.copy()
    views = star_views()
    shared = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    refresher = ViewRefresher(database, views, temporary_subexpressions={"tmp_sp": shared})
    refresher.initialize_views()

    computed = []
    original = refresher._compute

    def counting_compute(expression, materialized=None):
        computed.append(expression.canonical())
        return original(expression, materialized)

    refresher._compute = counting_compute
    refresher.refresh(star_deltas(database, order=("stores", "sales", "products")))
    assert all(refresher.verify_against_recomputation().values())
    assert not database.has_view("tmp_sp")

    # Non-empty rounds in order: stores-ins, sales-ins, sales-del,
    # products-ins, products-del.  The temporary is computed for the stores
    # round (first need), *reused* for sales-ins, then recomputed for the
    # three rounds that follow a sales/products base update: 4, not 5.
    temporary_computations = computed.count(shared.canonical())
    assert temporary_computations == 4


def test_stale_temporary_is_actually_recomputed_not_read_back(star_database):
    """Recomputing a stale temporary must not read its own stale contents.

    Regression test: a stale temporary left registered during its own
    recomputation short-circuits through the registry to the stale stored
    view, so consecutive rounds on the same relation (insert then delete)
    propagated round-1-stale old values into round 2 and corrupted the view.
    """
    database = star_database.copy()
    shared = Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")])
    views = {
        "v_cat_rev": Aggregate(
            shared, ["p_category"], [AggregateSpec(AggregateFunc.SUM, "amount", "revenue")]
        )
    }
    sales_schema = database.table("sales").schema
    deltas = DeltaStore(["sales"])
    deltas.set_delta(
        Delta(
            "sales",
            inserts=Relation(sales_schema, [(7, 12, 100, 1, 60.0)]),
            deletes=Relation(sales_schema, [(4, 12, 102, 1, 30.0)]),
        )
    )
    refresher = ViewRefresher(database, views, temporary_subexpressions={"tmp_sp": shared})
    refresher.initialize_views()
    refresher.refresh(deltas)
    verification = refresher.verify_against_recomputation()
    assert all(verification.values()), f"views diverged: {verification}"


def test_vectorized_refresh_verified_against_oracle(star_database):
    """The vectorized engine's deltas are checked bag-for-bag by the oracle."""
    database = star_database.copy()
    views = star_views()
    refresher = ViewRefresher(database, views, verify_differentials=True)
    refresher.initialize_views()
    report = refresher.refresh(star_deltas(database))
    assert report.steps
    assert all(refresher.verify_against_recomputation().values())


def test_interpreted_and_vectorized_refresh_agree(star_database):
    """The refresher leaves the views the interpreted reference would."""
    views = star_views()
    database = star_database.copy()
    refresher = ViewRefresher(database, views)
    refresher.initialize_views()
    reference = database.copy()
    deltas = star_deltas(database)
    refresher.refresh(deltas)
    # The same propagation order, driven by the interpreted ``differentiate``.
    for update in deltas.update_ids(only_nonempty=True):
        delta_rows = deltas.relation_delta(update.relation, update.kind)
        changes = {
            name: differentiate(expression, reference, update.relation, update.kind, delta_rows)
            for name, expression in views.items()
            if update.relation in base_relations(expression)
        }
        for name, change in changes.items():
            reference.update_view(name, inserts=change.inserts, deletes=change.deletes)
        reference.apply_update(update.relation, update.kind, delta_rows)
    for name in views:
        assert database.view(name).same_bag(reference.view(name))


def test_refresh_updates_base_tables_too(star_database):
    database = star_database.copy()
    views = star_views()
    before = len(database.table("sales"))
    apply_and_refresh(database, views, star_deltas(database))
    # +2 inserts, -1 delete
    assert len(database.table("sales")) == before + 1


def test_aggregate_view_values_after_refresh(star_database):
    database = star_database.copy()
    views = {"v_by_store": star_views()["v_by_store"]}
    apply_and_refresh(database, views, star_deltas(database))
    recomputed = evaluate(views["v_by_store"], database)
    assert database.view("v_by_store").same_bag(recomputed)
    cities = {row[0] for row in database.view("v_by_store").rows}
    assert "ogdenville" in cities


def test_report_total_changes_filter_by_view(star_database):
    database = star_database.copy()
    views = star_views()
    report, _ = apply_and_refresh(database, views, star_deltas(database))
    assert report.total_changes("v_detail") <= report.total_changes()


def test_tpcd_views_refresh_correctly(tiny_tpcd_database):
    """The TPC-D workload views stay consistent through a generated update batch."""
    from repro.maintenance.update_spec import UpdateSpec
    from repro.workloads import queries as q
    from repro.workloads.updategen import generate_deltas

    database = tiny_tpcd_database.copy()
    views = {
        "v_order_details": q.standalone_join_view()["v_order_details"],
        "v_revenue_by_nation": q.standalone_agg_view()["v_revenue_by_nation"],
    }
    spec = UpdateSpec.uniform(0.2, ["lineitem", "orders", "customer", "nation"])
    deltas = generate_deltas(database, spec, ["lineitem", "orders", "customer", "nation"], seed=3)
    report, verification = apply_and_refresh(database, views, deltas)
    assert all(verification.values()), f"TPC-D views diverged: {verification}"
    assert report.total_changes() > 0


def test_tpcd_view_sets_match_recomputation_after_every_round():
    """Consecutive refresh rounds keep the fig3 and fig5 view sets exact."""
    database = small_database(scale_factor=0.002)
    for views in (
        {**queries.standalone_join_view(), **queries.standalone_agg_view()},
        queries.large_view_set(),
    ):
        involved = sorted({r for e in views.values() for r in base_relations(e)})
        refresher = ViewRefresher(database.copy(), views)
        refresher.initialize_views()
        for round_number in range(2):
            deltas = uniform_deltas(
                refresher.database, 0.05, relations=involved, seed=1000 + round_number
            )
            assert refresher.refresh(deltas).total_changes() > 0
            verification = refresher.verify_against_recomputation()
            assert all(verification.values()), f"round {round_number}: {verification}"
