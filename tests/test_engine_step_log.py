"""One merge per view per refresh: ``Database.step_log``.

While a refresh runs, each view's differentials are logged and merged once —
at the end, or when a read needs the view.  The merge must leave exactly
what merging the steps one by one leaves: rows in the same order, stores in
the same dtypes, indexes equal to a rebuild, statistics and δ-aggregate
states equal.  A failed refresh must leave no log open.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failpoints import Failpoint, Injected, update_key
from repro.api import Warehouse, WarehouseConfig
from repro.catalog.catalog import IndexDef
from repro.catalog.schema import Schema
from repro.engine.database import Database
from repro.engine.differential import DifferentialEngine
from repro.storage.columns import NumpyColumnStore
from repro.storage.index import build_index
from repro.storage.relation import Relation
from repro.workloads import queries

SCHEMA = Schema.from_names(["k", "x", "s"])
INDEXES = ((("s",), "hash"), (("k", "x"), "btree"))
VIEW_ROW = st.tuples(
    st.integers(0, 5), st.sampled_from([0.5, 1.0, -0.0]), st.sampled_from(["a", "b", None])
)
#: Inserted rows may carry ``1.0`` for ``k``, which turns the column ``object``.
INSERT_ROW = st.tuples(
    st.sampled_from([0, 1, 2, 9, 1.0]), st.sampled_from([0.5, 2.0]), st.sampled_from(["a", "c"])
)
PHANTOM = (99, 9.0, "zz")


def _database(rows, columnar):
    db = Database()
    store = NumpyColumnStore.from_rows(rows, 3)
    view = Relation.from_store(SCHEMA, store) if columnar else Relation(SCHEMA, rows)
    db.materialize_view("v", view)
    for columns, kind in INDEXES:
        db.build_index(IndexDef("v", columns, kind=kind))
    return db


def _contents(relation):
    """Rows in order with their exact values (``1`` vs ``1.0``, ``-0.0``)."""
    return repr(relation.rows)


def _dtypes(relation):
    store = relation.cached_store()
    return None if store is None else [store.column(i).dtype for i in range(store.arity)]


def _assert_indexes_match_rebuild(db):
    view = db.view("v")
    for columns, kind in INDEXES:
        built = db.index_for("v", columns)
        fresh = build_index(view, columns, kind=kind)
        assert len(built) == len(fresh) == len(view)
        assert built.distinct_keys == fresh.distinct_keys
        for row in set(view.rows) | {PHANTOM}:
            key = tuple(row[SCHEMA.index_of(c)] for c in columns)
            assert built.lookup(key) == fresh.lookup(key), (kind, key)
        if kind == "btree":
            assert list(built.scan_sorted()) == list(fresh.scan_sorted())


@given(
    st.lists(VIEW_ROW, min_size=30, max_size=40),
    st.booleans(),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_a_logged_merge_equals_merging_step_by_step(rows, columnar, n_steps, data):
    logged, eager = _database(rows, columnar), _database(rows, columnar)
    reference = eager.view("v")
    read_at = data.draw(st.integers(-1, n_steps - 1), label="read_at")
    inserted = []
    with logged.step_log() as merges:
        for step in range(n_steps):
            inserts = data.draw(st.lists(INSERT_ROW, max_size=4), label="inserts")
            # Deletes of stored rows, of rows inserted earlier in the log,
            # duplicates of both, and phantoms.
            pool = rows + inserted + [PHANTOM]
            deletes = data.draw(st.lists(st.sampled_from(pool), max_size=4), label="deletes")
            # Phantoms now that a later step may insert: never matched by it.
            deletes += data.draw(st.lists(INSERT_ROW, max_size=2), label="early deletes")
            state = data.draw(st.sampled_from([None, f"state-{step}"]), label="state")
            bags = Relation(SCHEMA, inserts), Relation(SCHEMA, deletes)
            logged.log_view_step("v", *bags, state=state)
            eager.update_view("v", *bags, state=state)
            reference = reference.difference(bags[1]).union_all(bags[0])
            inserted += inserts
            assert logged.aggregate_state("v") == eager.aggregate_state("v")
            if step == read_at:
                assert _contents(logged.view("v")) == _contents(eager.view("v"))
    # At most the read and the close merge; steps without a bag merge nothing.
    assert [merge.view for merge in merges] in ([], ["v"], ["v", "v"])
    for db in (logged, eager):
        assert _contents(db.view("v")) == _contents(reference)
        assert _dtypes(db.view("v")) in (None, _dtypes(reference))
        assert db.aggregate_state("v") == state
        _assert_indexes_match_rebuild(db)
    assert logged.catalog.view_stats("v") == eager.catalog.view_stats("v")


def test_a_view_emptied_in_the_log_takes_the_dtype_of_what_follows():
    # Step by step, concatenating onto an empty store keeps the inserts'
    # dtype: k ends float64 here, not object.
    rows = [(1, 0.5, "a"), (2, 0.5, "b"), (3, 1.0, "a")]
    db = _database(rows, columnar=True)
    reference = db.view("v")
    later = [[(1.5, 0.5, "a"), (2.5, 0.5, "c")], [(3.5, 2.0, "c")]]
    with db.step_log():
        for step, inserts in enumerate(later):
            bags = Relation.from_store(SCHEMA, NumpyColumnStore.from_rows(inserts, 3)), Relation(
                SCHEMA, rows if step == 0 else []
            )
            db.log_view_step("v", *bags)
            reference = reference.difference(bags[1]).union_all(bags[0])
    assert _contents(db.view("v")) == _contents(reference)
    assert _dtypes(db.view("v")) == _dtypes(reference)
    assert str(_dtypes(reference)[0]) == "float64"


def test_readers_merge_the_log_first_and_the_state_reads_through_without():
    rows = [(i % 5, 0.5, "a") for i in range(40)]
    db = _database(rows, columnar=True)
    with db.step_log() as merges:
        db.log_view_step("v", Relation(SCHEMA, [(7, 0.5, "a")]), Relation(SCHEMA, [rows[0]]), "s1")
        assert db.aggregate_state("v") == "s1" and merges == []
        assert db.index_for("v", ["s"]).lookup(("a",))[-1] == (7, 0.5, "a")
        assert [(m.view, m.read_through) for m in merges] == [("v", True)]
        db.log_view_step("v", None, Relation(SCHEMA, [(7, 0.5, "a")]), None)
        snapshot = db.copy()
    assert [(m.view, m.read_through) for m in merges] == [("v", True), ("v", True)]
    assert _contents(snapshot.view("v")) == _contents(db.view("v")) == repr(rows[1:])
    assert db.aggregate_state("v") is None
    _assert_indexes_match_rebuild(db)


# ------------------------------------------------------------ the warehouse


def _warehouse(data_scale=0.002):
    wh = Warehouse(WarehouseConfig.profile("fast")).load("tpcd", scale=0.1)
    wh.load_data(scale=data_scale)
    wh.define_views(queries.large_view_set(with_aggregates=True))
    return wh


@pytest.fixture(scope="module")
def warehouse():
    return _warehouse()


def test_every_incremental_view_merges_once_per_apply(warehouse):
    for _ in range(2):
        report = warehouse.apply(0.05)
        changed = {
            step.view for step in report.steps if step.inserted or step.deleted
        }
        assert changed
        assert sorted(merge.view for merge in report.merges) == sorted(changed)
        # No read forced a merge, and no fingerprint collided.
        counts = report.merge_route_counts()
        assert set(counts) <= {"fingerprint", "rows"}, counts
        assert sum(counts.values()) == len(changed)
    assert all(warehouse.verify().values())


@pytest.fixture
def fail_on_third_update(monkeypatch):
    """Arms a ``DifferentialEngine.differentiate`` that raises on the third
    update it sees; returns the failpoint."""
    return lambda: Failpoint(monkeypatch, DifferentialEngine, "differentiate", 3, key=update_key)


def _index_contents(db, index):
    built = db.index_for(index.table, index.columns)
    if built.kind == "btree":
        return list(built.scan_sorted())
    relation = db.table(index.table)
    keys = {tuple(row[relation.schema.index_of(c)] for c in index.columns) for row in relation}
    return sorted((repr(key), built.lookup_positions(key)) for key in keys)


def _assert_pre_batch(wh, before):
    after = wh.database
    assert after._logs is None
    for name in wh.views:
        assert _contents(after.view(name)) == _contents(before.view(name)), name
        assert after.catalog.view_stats(name) == before.catalog.view_stats(name), name
        assert after.aggregate_state(name) is before.aggregate_state(name), name
    for index in before.catalog.all_indexes():
        assert _index_contents(after, index) == _index_contents(before, index), index


def test_a_failed_apply_leaves_the_pre_batch_database(warehouse, fail_on_third_update):
    warehouse.apply(0.05)  # every δ-aggregate view holds a state
    before = warehouse.database.copy()
    failpoint = fail_on_third_update()
    with pytest.raises(Injected):
        warehouse.apply(0.05)
    assert len(failpoint.seen) == 3
    _assert_pre_batch(warehouse, before)


@contextmanager
def _no_log(self):
    yield []


def test_a_failed_flush_leaves_what_step_by_step_merging_leaves(fail_on_third_update, monkeypatch):
    # Both leave the pre-flush database: a flush commits or rolls back.
    for deferred in (True, False):
        if not deferred:
            monkeypatch.setattr(Database, "step_log", _no_log)
        wh = _warehouse(data_scale=0.001)
        wh.apply(0.05)  # every δ-aggregate view holds a state
        session = wh.stream()
        session.ingest(0.05, seed=3)
        before = wh.database.copy()
        fail_on_third_update()
        with pytest.raises(Injected):
            session.flush()
        _assert_pre_batch(wh, before)
