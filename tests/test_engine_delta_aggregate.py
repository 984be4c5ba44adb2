"""δ-aggregate: stored SUM/COUNT/AVG views maintained from the child delta.

Three things are pinned here:

* *what runs* — after the state-building round, every aggregate step of
  ``large_view_set(with_aggregates=True)`` is ``delta-aggregate``, the child
  is never evaluated and the rows folded are exactly the child-delta rows
  (exact, host-independent counts);
* *exactness* — over random float/int values and multi-round insert/delete
  sequences the maintained views stay ``same_bag`` to the interpreter's
  ``fsum`` recomputation, and the engine agrees with the interpreted
  differential;
* *the state's lifetime* — it survives commits and rollbacks, is dropped by
  every other write to the view, and is rebuilt (and re-checked) when missing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Join,
    base_relations,
)
from repro.api import Warehouse, WarehouseConfig
from repro.api.errors import WarehouseError
from repro.catalog.schema import Schema, TableDef
from repro.engine import operators
from repro.engine.database import Database
from repro.engine.differential import (
    DELTA_AGGREGATE,
    DifferentialEngine,
    DifferentialMismatch,
    differentiate,
)
from repro.engine.executor import MaterializedRegistry, evaluate
from repro.engine.physical import PhysicalExecutor
from repro.maintenance.maintainer import ViewRefresher
from repro.storage.delta import Delta, DeltaKind, DeltaStore
from repro.storage.index import build_index
from repro.storage.relation import Relation
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import uniform_deltas

STATE_BUILT = "recompute-affected-groups:state-built"


# ------------------------------------------------------------ what runs (counts)

def test_aggregate_steps_fold_only_the_child_delta(monkeypatch):
    database = small_database(scale_factor=0.001, seed=3)
    views = queries.large_view_set(with_aggregates=True)
    aggregates = {n: e for n, e in views.items() if isinstance(e, Aggregate)}
    relations = sorted({r for e in views.values() for r in base_relations(e)})
    refresher = ViewRefresher(database, views)
    refresher.initialize_views()

    # Round 1 builds each view's state exactly once, on its first step.
    built = refresher.refresh(uniform_deltas(database, 0.05, relations, seed=1))
    counts = built.aggregate_rule_counts()
    assert counts.pop(STATE_BUILT) == len(aggregates) == 5
    assert set(counts) == {DELTA_AGGREGATE}

    evaluated, folded = [], []
    evaluate_plan = PhysicalExecutor.evaluate
    fold = operators.AggregateState.of.__func__

    def spy_evaluate(self, expression, *args, **kwargs):
        evaluated.append(expression.canonical())
        return evaluate_plan(self, expression, *args, **kwargs)

    def spy_fold(cls, relation, group_by, aggregates):
        folded.append(len(relation))
        return fold(cls, relation, group_by, aggregates)

    monkeypatch.setattr(PhysicalExecutor, "evaluate", spy_evaluate)
    monkeypatch.setattr(operators.AggregateState, "of", classmethod(spy_fold))

    # Round 2, one single-relation update at a time, so the child deltas can
    # be computed independently (by the interpreted reference) beforehand.
    batch = uniform_deltas(database, 0.05, relations, seed=2)
    child_delta_rows = steps = 0
    for update in batch.update_ids(only_nonempty=True):
        delta_rows = batch.relation_delta(update.relation, update.kind)
        for expression in aggregates.values():
            if update.relation in base_relations(expression):
                child = differentiate(
                    expression.child, database, update.relation, update.kind, delta_rows
                )
                child_delta_rows += len(child.inserts) + len(child.deletes)
        single = DeltaStore([update.relation])
        empty = Relation(delta_rows.schema, [])
        single.set_delta(
            Delta(update.relation, delta_rows, empty)
            if update.kind is DeltaKind.INSERT
            else Delta(update.relation, empty, delta_rows)
        )
        report = refresher.refresh(single)
        rules = [rule for step in report.steps for rule in step.aggregate_rules]
        assert set(rules) <= {DELTA_AGGREGATE}, (str(update), rules)
        steps += len(rules)

    assert steps > len(aggregates)
    children = {e.child.canonical() for e in aggregates.values()}
    assert not children & set(evaluated)
    # Every fold saw a delta bag, never a child: together they are exactly
    # the child-delta rows of the aggregate steps.
    assert sum(folded) == child_delta_rows > 0
    assert all(refresher.verify_against_recomputation().values())


def test_report_tallies_fallback_rules_with_their_reason(star_database):
    sales = BaseRelation("sales")
    views = {
        "v_sum": Aggregate(sales, ["store_id"], [AggregateSpec(AggregateFunc.SUM, "amount", "s")]),
        "v_peak": Aggregate(sales, ["store_id"], [AggregateSpec(AggregateFunc.MAX, "amount", "m")]),
        "v_redo": Aggregate(sales, ["product_id"], [AggregateSpec(AggregateFunc.COUNT, None, "n")]),
        "v_plain": Join(sales, BaseRelation("products"), [("product_id", "p_id")]),
    }
    refresher = ViewRefresher(star_database, views, recompute_views=["v_redo"])
    refresher.initialize_views()
    schema = star_database.table("sales").schema

    def insert(*rows):
        store = DeltaStore(["sales"])
        store.set_delta(Delta("sales", Relation(schema, list(rows)), Relation(schema, [])))
        return refresher.refresh(store)

    first = insert((7, 10, 100, 1, 5.0))
    assert first.aggregate_rule_counts() == {
        STATE_BUILT: 1,
        "recompute-affected-groups:min-max": 1,
    }
    by_view = {step.view: step.aggregate_rules for step in first.steps}
    assert by_view["v_plain"] == () and "v_redo" not in by_view
    assert insert((8, 10, 101, 1, 7.5)).aggregate_rule_counts() == {
        DELTA_AGGREGATE: 1,
        "recompute-affected-groups:min-max": 1,
    }
    # A NULL amount makes the delta's column untyped: the step recomputes the
    # affected groups, the state goes, and the next typed step cannot rebuild
    # it from a child that now holds the NULL either.
    assert insert((9, 10, 101, 1, None)).aggregate_rule_counts()[
        "recompute-affected-groups:untyped"
    ] == 1
    assert star_database.aggregate_state("v_sum") is None
    assert insert((10, 10, 102, 1, 1.0)).aggregate_rule_counts()[
        "recompute-affected-groups:untyped"
    ] == 1
    assert all(refresher.verify_against_recomputation().values())


def test_unregistered_aggregate_is_not_stored(star_database):
    expression = Aggregate(
        BaseRelation("sales"), ["store_id"], [AggregateSpec(AggregateFunc.SUM, "amount", "s")]
    )
    rows = Relation(star_database.table("sales").schema, [(7, 10, 100, 1, 5.0)])
    delta = DifferentialEngine(star_database).differentiate(
        expression, "sales", DeltaKind.INSERT, rows
    )
    assert delta.rules == ("recompute-affected-groups:not-stored",)
    assert delta.state is None


# ------------------------------------------------------------------- exactness

FACT_SCHEMA = Schema.from_names(["f_id", "dim_id", "amount", "qty"])
DIM_SCHEMA = Schema.from_names(["d_id", "d_group"])

amounts = st.one_of(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, -0.3, 1e12, -1e12, 1e-3, 123456.78, 0.0]),
)
fact_values = st.tuples(
    st.integers(min_value=0, max_value=3),
    amounts,
    st.integers(min_value=-(10**9), max_value=10**9),
)
dim_groups = st.sampled_from(["north", "south", "east"])
#: One round: fact rows to insert, how many existing fact rows to delete
#: (a large number empties the table), and an optional re-labelling of one
#: dimension row — its group's join rows vanish and reappear elsewhere.
rounds = st.lists(
    st.tuples(
        st.lists(fact_values, max_size=6),
        st.sampled_from([0, 0, 1, 2, 3, 1000]),
        st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=3), dim_groups)),
    ),
    min_size=1,
    max_size=5,
)


def exactness_views():
    fact = BaseRelation("fact")
    join = Join(fact, BaseRelation("dim"), [("dim_id", "d_id")])
    sum_, avg, count = AggregateFunc.SUM, AggregateFunc.AVG, AggregateFunc.COUNT
    return {
        "v_float": Aggregate(
            join,
            ["d_group"],
            [AggregateSpec(sum_, "amount", "s"), AggregateSpec(avg, "amount", "a"),
             AggregateSpec(count, None, "n")],
        ),
        # No COUNT declared: the group's lifetime hangs on the hidden row count.
        "v_int": Aggregate(
            join, ["d_group"], [AggregateSpec(sum_, "qty", "s"), AggregateSpec(avg, "qty", "a")]
        ),
        "v_by_key": Aggregate(fact, ["dim_id"], [AggregateSpec(sum_, "amount", "s")]),
        "v_scalar": Aggregate(
            fact, [], [AggregateSpec(sum_, "amount", "s"), AggregateSpec(avg, "qty", "a")]
        ),
    }


@given(initial=st.lists(fact_values, max_size=12), steps=rounds)
@settings(max_examples=60, deadline=None)
def test_maintained_views_equal_recomputation_after_every_round(initial, steps):
    database = Database()
    database.create_table(
        TableDef("fact", FACT_SCHEMA, ()), [(i, *row) for i, row in enumerate(initial)]
    )
    database.create_table(
        TableDef("dim", DIM_SCHEMA, ()), [(0, "north"), (1, "south"), (2, "north")]
    )
    views = exactness_views()
    refresher = ViewRefresher(database, views, verify_differentials=True)
    refresher.initialize_views()
    next_id = len(initial)
    rules = set()
    for inserts, delete_count, relabel in steps:
        fact, dim = database.table("fact"), database.table("dim")
        store = DeltaStore(["fact", "dim"])
        store.set_delta(
            Delta(
                "fact",
                Relation(FACT_SCHEMA, [(next_id + i, *row) for i, row in enumerate(inserts)]),
                Relation(FACT_SCHEMA, fact.rows[:delete_count]),
            )
        )
        next_id += len(inserts)
        if relabel is not None:
            d_id, group = relabel
            store.set_delta(
                Delta(
                    "dim",
                    Relation(DIM_SCHEMA, [(d_id, group)]),
                    Relation(DIM_SCHEMA, [r for r in dim.rows if r[0] == d_id]),
                )
            )
        report = refresher.refresh(store)
        rules.update(report.aggregate_rule_counts())
        assert refresher.verify_against_recomputation() == dict.fromkeys(views, True)
    assert rules <= {DELTA_AGGREGATE, STATE_BUILT}


@given(
    values=st.lists(amounts, min_size=1, max_size=40),
    removed=st.lists(st.integers(min_value=0, max_value=39), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_exact_float_state_finalizes_to_fsum(values, removed):
    schema = Schema.from_names(["x"])
    spec = [AggregateSpec(AggregateFunc.SUM, "x", "s"), AggregateSpec(AggregateFunc.AVG, "x", "a")]
    fold = operators.AggregateState.of
    gone = [values[i] for i in set(removed) if i < len(values)]
    kept = list(values)
    for value in gone:
        kept.remove(value)
    empty = fold(Relation(schema, []), [], spec)
    state = fold(Relation(schema, [(v,) for v in values]), [], spec).merged(
        empty, fold(Relation(schema, [(v,) for v in gone]), [], spec)
    )
    expected = (math.fsum(kept), math.fsum(kept) / len(kept)) if kept else (None, None)
    assert state.row(()) == expected


@pytest.mark.parametrize(
    "bad",
    [None, 7, float("nan"), float("inf")],
    ids=["null", "int-in-float-column", "nan", "inf"],
)
def test_inexact_inputs_keep_the_recompute_rule_and_still_verify(star_database, bad):
    expression = Aggregate(
        BaseRelation("sales"),
        ["store_id"],
        [AggregateSpec(AggregateFunc.SUM, "amount", "s"), AggregateSpec(AggregateFunc.COUNT, None, "n")],
    )
    registry = MaterializedRegistry()
    registry.register(expression, "v")
    star_database.materialize_view("v", evaluate(expression, star_database))
    rows = Relation(star_database.table("sales").schema, [(7, 10, 100, 1, bad)])
    engine = DifferentialEngine(star_database)
    delta = engine.differentiate(expression, "sales", DeltaKind.INSERT, rows, registry)
    assert delta.rules == ("recompute-affected-groups:untyped",) and delta.state is None
    oracle = differentiate(expression, star_database, "sales", DeltaKind.INSERT, rows, registry)
    if bad is None or bad == 7:  # NaN never equals itself, so bags cannot be compared
        assert delta.inserts.same_bag(oracle.inserts)
        assert delta.deletes.same_bag(oracle.deletes)


def test_string_group_keys_with_a_null_fall_back(star_database):
    expression = Aggregate(
        BaseRelation("products"), ["p_category"], [AggregateSpec(AggregateFunc.SUM, "p_price", "s")]
    )
    registry = MaterializedRegistry()
    registry.register(expression, "v")
    star_database.materialize_view("v", evaluate(expression, star_database))
    rows = Relation(star_database.table("products").schema, [(13, "thing", None, 2.0)])
    delta = DifferentialEngine(star_database).differentiate(
        expression, "products", DeltaKind.INSERT, rows, registry
    )
    assert delta.rules == ("recompute-affected-groups:untyped",)
    assert delta.inserts.rows == [(None, 2.0)]


# -------------------------------------------------------------- state lifetime

def stored_sum_view(database):
    expression = Aggregate(
        BaseRelation("sales"),
        ["store_id"],
        [AggregateSpec(AggregateFunc.SUM, "amount", "s"), AggregateSpec(AggregateFunc.COUNT, None, "n")],
    )
    refresher = ViewRefresher(database, {"v": expression})
    refresher.initialize_views()
    schema = database.table("sales").schema

    def insert(*rows):
        store = DeltaStore(["sales"])
        store.set_delta(Delta("sales", Relation(schema, list(rows)), Relation(schema, [])))
        return refresher.refresh(store).aggregate_rule_counts()

    return refresher, insert


def test_state_follows_the_view_relation_it_describes(star_database):
    refresher, insert = stored_sum_view(star_database)
    assert star_database.aggregate_state("v") is None
    assert insert((7, 10, 100, 1, 5.0)) == {STATE_BUILT: 1}
    state = star_database.aggregate_state("v")
    assert state is not None
    assert Relation(star_database.view("v").schema, state.rows()).same_bag(star_database.view("v"))
    assert insert((8, 10, 100, 1, 5.0)) == {DELTA_AGGREGATE: 1}
    assert star_database.aggregate_state("v") is not state  # replaced, never mutated
    assert state.groups[(100,)][0] == 4

    # A copy shares the states, attached to its own relations.
    clone = star_database.copy()
    assert clone.aggregate_state("v") is star_database.aggregate_state("v")
    assert clone._aggregate_states["v"][0] is clone.view("v")


@pytest.mark.parametrize("write", ["materialize_view", "drop_view", "update_view"])
def test_every_other_write_drops_the_state_and_forces_one_rebuild(star_database, write):
    refresher, insert = stored_sum_view(star_database)
    insert((7, 10, 100, 1, 5.0))
    assert insert((8, 10, 101, 1, 5.0)) == {DELTA_AGGREGATE: 1}
    view = star_database.view("v")
    if write == "materialize_view":
        star_database.materialize_view("v", view.copy())
    elif write == "drop_view":
        star_database.drop_view("v")
        refresher.ensure_views()
    else:  # a merge nobody derived a successor state for
        star_database.update_view("v", inserts=Relation(view.schema, [(999, 1.0, 1)]))
        star_database.update_view("v", deletes=Relation(view.schema, [(999, 1.0, 1)]))
    assert star_database.aggregate_state("v") is None
    assert insert((9, 10, 102, 1, 5.0)) == {STATE_BUILT: 1}
    assert insert((10, 10, 102, 1, 5.0)) == {DELTA_AGGREGATE: 1}
    assert refresher.verify_against_recomputation() == {"v": True}


def test_empty_differential_keeps_the_state(star_database):
    """A step that changes nothing replaces nothing (inserted sales of an
    unknown product do not reach the join)."""
    expression = Aggregate(
        Join(BaseRelation("sales"), BaseRelation("products"), [("product_id", "p_id")]),
        ["p_category"],
        [AggregateSpec(AggregateFunc.SUM, "amount", "s")],
    )
    refresher = ViewRefresher(star_database, {"v": expression})
    refresher.initialize_views()
    schema = star_database.table("sales").schema

    def insert(row):
        store = DeltaStore(["sales"])
        store.set_delta(Delta("sales", Relation(schema, [row]), Relation(schema, [])))
        return refresher.refresh(store).aggregate_rule_counts()

    assert insert((7, 10, 100, 1, 5.0)) == {STATE_BUILT: 1}
    state = star_database.aggregate_state("v")
    assert insert((8, 999, 100, 1, 5.0)) == {}
    assert star_database.aggregate_state("v") is state
    assert insert((9, 10, 100, 1, 5.0)) == {DELTA_AGGREGATE: 1}


def test_stale_stored_view_raises_when_its_state_is_built(star_database):
    refresher, insert = stored_sum_view(star_database)
    view = star_database.view("v")
    star_database.materialize_view("v", Relation(view.schema, view.rows[1:]))
    with pytest.raises(DifferentialMismatch, match="'v' is stale"):
        insert((7, 10, 100, 1, 5.0))


def test_delete_of_rows_a_group_does_not_hold_raises(star_database):
    refresher, insert = stored_sum_view(star_database)
    insert((7, 10, 100, 1, 5.0))
    schema = star_database.table("sales").schema
    store = DeltaStore(["sales"])
    phantom = [(50 + i, 10, 102, 1, 30.0) for i in range(2)]  # store 102 holds one row
    store.set_delta(Delta("sales", Relation(schema, []), Relation(schema, phantom)))
    with pytest.raises(ValueError, match="does not hold"):
        refresher.refresh(store)


def aggregate_warehouse(database, **config):
    wh = Warehouse(WarehouseConfig.profile("fast", **config)).load(scale=0.1)
    wh.load_data(database=database.copy())
    wh.define_views({**queries.standalone_agg_view(), **queries.standalone_join_view()})
    return wh


def test_failed_apply_rolls_the_state_back(tiny_tpcd_database, monkeypatch):
    wh = aggregate_warehouse(tiny_tpcd_database, verify_refresh=True)
    wh.apply(0.05, seed=1)
    assert wh.apply(0.05, seed=2).aggregate_rule_counts().keys() == {DELTA_AGGREGATE}
    state = wh.database.aggregate_state("v_revenue_by_nation")
    assert state is not None

    # An exception after some steps already merged (and replaced the state).
    apply_update = Database.apply_update

    def failing(self, relation, kind, delta_rows):
        if relation == "orders":
            raise RuntimeError("merge failed")
        return apply_update(self, relation, kind, delta_rows)

    monkeypatch.setattr(Database, "apply_update", failing)
    with pytest.raises(RuntimeError, match="merge failed"):
        wh.apply(0.05, seed=3)
    monkeypatch.undo()
    assert wh.database.aggregate_state("v_revenue_by_nation") is state
    # The live snapshot's cloned indexes answer like rebuilt ones.
    for (table, columns, kind), index in wh.database._indexes.items():
        relation = wh.database.table(table)
        rebuilt = build_index(relation, columns, kind)
        assert list(index.scan_sorted()) == list(rebuilt.scan_sorted()) == sorted(
            relation.rows, key=lambda row: tuple(row[i] for i in index._positions)
        )

    # A verify_refresh mismatch rolls back the same way.
    update_view = Database.update_view

    def corrupting(self, name, inserts=None, deletes=None, state=None):
        if name == "v_revenue_by_nation":
            inserts = None
        return update_view(self, name, inserts, deletes, state)

    monkeypatch.setattr(Database, "update_view", corrupting)
    with pytest.raises(WarehouseError, match="verification failed"):
        wh.apply(0.05, seed=4)
    monkeypatch.undo()
    assert wh.database.aggregate_state("v_revenue_by_nation") is state

    report = wh.apply(0.05, seed=5)
    assert report.verified
    assert report.aggregate_rule_counts().keys() == {DELTA_AGGREGATE}

