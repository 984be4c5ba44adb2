"""Every refresh commits or rolls back, whichever driver runs it.

A fault matrix: the five ways a refresh is driven — ``apply()``, a stream
``flush()``, a flush an ingest triggers at the ``stream_max_batches``
bound, a stream ``close()`` and a serving ``flush()`` — against three
injected faults (a differential, a view merge, a base-table update) and one
real input fault (a phantom ``lineitem`` delete under ``profile("verify")``).

After each failure the database must be exactly its pre-call self (tables,
views, statistics, aggregate states, indexes equal to a rebuild) and verify.
A stream session stays open with its rounds pending (an ingest-triggered
flush's ``refresh`` verdict reads ``defer`` in the trace), and one retry
commits each round exactly once; a serving session reports the crash, its last
snapshot still equals the database's views, and a new ``serve()`` commits.
"""

from functools import partial

import pytest

from failpoints import Failpoint, Injected, assert_database_equal, update_key
from repro import FreshnessSLO, ServingError, Warehouse, WarehouseConfig
from repro.engine.database import Database
from repro.engine.differential import DifferentialEngine, DifferentialMismatch
from repro.storage.delta import Delta
from repro.storage.relation import Relation
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import uniform_deltas

VIEWS = {
    name: expression
    for name, expression in queries.large_view_set(with_aggregates=True).items()
    if name[:3] in ("v01", "v02", "v03", "v04", "v06")
}
DRIVERS = ("apply", "flush", "ingest", "close", "serve")
FAULTS = ("differentiate", "update_view", "apply_update", "phantom")


@pytest.fixture(scope="module")
def template():
    """A database at SF 0.0005 with the views materialized."""
    wh = Warehouse(WarehouseConfig.profile("fast")).load("tpcd", scale=0.1)
    wh.load_data(database=small_database(scale_factor=0.0005, seed=5))
    wh.define_views(VIEWS)
    wh.apply(0.0)
    return wh.database


def _warehouse(template, fault, driver):
    overrides = {"stream_max_batches": 2} if driver == "ingest" else {}
    profile = "verify" if fault == "phantom" else "fast"
    wh = Warehouse(WarehouseConfig.profile(profile, **overrides)).load("tpcd", scale=0.1)
    wh.load_data(database=template.copy())
    wh.define_views(VIEWS)
    return wh


def _rounds(wh, model, fault):
    """Two rounds generated against ``model``, each applied to it at once.

    The phantom fault's first round also deletes a ``lineitem`` row that
    does not exist: a real row with one float changed.
    """
    rounds = []
    for seed in (1, 2):
        deltas = uniform_deltas(model, 0.02, wh.view_relations, seed=seed)
        for delta in deltas:
            model.apply_delta(delta)
        rounds.append(deltas)
    if fault == "phantom":
        row = list(wh.database.table("lineitem").rows[0])
        column = next(i for i, value in enumerate(row) if isinstance(value, float))
        row[column] += 1.0
        delta = rounds[0].delta("lineitem")
        deletes = Relation(delta.deletes.schema, delta.deletes.rows + [tuple(row)])
        rounds[0].set_delta(Delta("lineitem", delta.inserts, deletes))
    return rounds


def _arm(monkeypatch, fault):
    """Arm the fault; returns the error the failing call raises."""
    if fault == "differentiate":
        Failpoint(monkeypatch, DifferentialEngine, "differentiate", 3, key=update_key)
    elif fault == "update_view":
        Failpoint(monkeypatch, Database, "update_view", 4)
    elif fault == "apply_update":
        Failpoint(monkeypatch, Database, "apply_update", 2)
    else:
        return DifferentialMismatch
    return Injected


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("driver", DRIVERS)
def test_a_failed_refresh_leaves_the_last_commit(template, monkeypatch, driver, fault):
    wh = _warehouse(template, fault, driver)
    model = wh.database.copy()
    rounds = _rounds(wh, model, fault)
    if driver == "apply":
        call = partial(wh.apply, rounds[0])
    elif driver == "serve":
        session = wh.serve(stream_policy="coalesce", slo=FreshnessSLO())
        for deltas in rounds:
            session.ingest(deltas)
        session.drain()
        call = partial(session.flush, timeout=60.0)
    else:
        session = wh.stream()
        for deltas in rounds[:-1] if driver == "ingest" else rounds:
            assert not session.ingest(deltas).refreshes
        call = {
            "flush": session.flush,
            "ingest": partial(session.ingest, rounds[-1]),
            "close": session.close,
        }[driver]

    before = wh.database.copy()
    error = _arm(monkeypatch, fault)
    if driver == "serve":
        with pytest.raises(ServingError) as raised:
            call()
        assert isinstance(raised.value.__cause__.__cause__, error)
    else:
        with pytest.raises(error):
            call()
    assert_database_equal(wh.database, before, VIEWS)
    assert all(wh.verify().values())

    if driver == "serve":
        with session.pin() as handle:
            for name in VIEWS:
                assert handle.view(name).same_bag(wh.database.view(name)), name
        with pytest.raises(ServingError, match="crashed"):
            session.close()
        retry = rounds if fault != "phantom" else [
            uniform_deltas(wh.database.copy(), 0.02, wh.view_relations, seed=3)
        ]
        with wh.serve(stream_policy="coalesce", slo=FreshnessSLO()) as served:
            for deltas in retry:
                served.ingest(deltas)
            served.flush(timeout=60.0)
            assert served.as_of_round == len(retry)
        assert [report.rounds for report in served.reports] == [1]
    elif driver != "apply":
        assert not session.closed
        assert session.pending_batches == len(rounds)
        assert session.pending_rows == session.decisions[-1].pending_rows
        assert session.reports == []
        if driver == "ingest":
            # The trace shows the rollback, not the refresh that failed.
            decision = session.decisions[-1]
            assert decision.action == "defer"
            assert decision.reason.startswith(
                f"refresh rolled back: {error.__name__}"
            ), decision.reason
            assert "rolled back" in session.explain_schedule()
        if fault == "phantom":
            # An input fault fails every retry, and each changes nothing.
            with pytest.raises(error):
                session.flush()
            assert_database_equal(wh.database, before, VIEWS)
            return
        session.close()
        assert session.closed and len(session.reports) == 1
    elif fault != "phantom":
        for deltas in rounds:
            wh.apply(deltas)
    if fault != "phantom":
        # Each round was applied exactly once.
        for name in model.table_names():
            assert wh.database.table(name).same_bag(model.table(name)), name
    assert all(wh.verify().values())
