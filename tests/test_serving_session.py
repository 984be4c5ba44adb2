"""Behavior of the serving façade: ``Warehouse.serve()``.

Covers the session lifecycle (query/ingest/flush/close, context manager),
admission control under all three read policies, the SLO hard bound over
the stream policy's deferral, daemon crash surfacing, write-queue shedding, the
config knobs, and the ``explain_serving()`` trace.
"""

import pytest

from repro import (
    FreshnessSLO,
    Q,
    ServingClosedError,
    ServingError,
    StaleReadError,
    UpdateSpec,
    Warehouse,
    WarehouseConfig,
    WarehouseError,
)
from repro.catalog.schema import Schema
from repro.maintenance.update_spec import RelationUpdate
from repro.storage.delta import Delta, DeltaStore
from repro.storage.relation import Relation


def small_warehouse(**config_overrides):
    wh = Warehouse(WarehouseConfig.profile("fast", **config_overrides))
    wh.load(scale=0.05)
    wh.load_data(scale=0.002)
    wh.define_view(
        "v_rev",
        Q.table("lineitem").join("orders").join("customer").join("nation")
        .group_by("n_name")
        .sum("l_extendedprice", "revenue"),
    )
    wh.optimize()
    wh.apply(0.0)
    return wh


@pytest.fixture(scope="module")
def warehouse():
    return small_warehouse()


# ----------------------------------------------------------------- lifecycle

def test_serve_requires_loaded_views():
    wh = Warehouse(WarehouseConfig.profile("fast"))
    with pytest.raises(WarehouseError):
        wh.serve()
    wh.load(scale=0.05)
    wh.load_data(scale=0.002)
    with pytest.raises(WarehouseError, match="view"):
        wh.serve()


def test_query_before_any_ingest_serves_version_one(warehouse):
    with warehouse.serve() as session:
        served = session.query("v_rev")
        assert served.version == 1
        assert served.as_of_round == 0
        assert not served.degraded
        assert served.degraded_reason is None
        assert len(served) == len(served.relation)
        assert session.freshness("v_rev").fresh


def test_ingest_flush_publishes_new_versions(warehouse):
    with warehouse.serve() as session:
        before = session.query("v_rev")
        session.ingest(0.02)
        session.ingest(0.02)
        session.flush(timeout=60.0)
        after = session.query("v_rev")
        assert after.version > before.version
        assert after.as_of_round == 2
        assert session.as_of_round == 2
        assert session.reports, "a flush must leave a refresh report"


def test_closed_session_refuses_everything(warehouse):
    session = warehouse.serve()
    session.close()
    session.close()  # idempotent
    assert session.closed
    for call in (
        lambda: session.query("v_rev"),
        lambda: session.ingest(0.01),
        lambda: session.flush(),
        lambda: session.freshness("v_rev"),
        lambda: session.pin(),
    ):
        with pytest.raises(ServingClosedError):
            call()


def test_close_flushes_pending_rounds(warehouse):
    session = warehouse.serve()
    session.pause()
    session.ingest(0.02)
    session.ingest(0.02)
    session.resume()
    session.close()
    assert session.daemon.as_of_round == 2, "close() must drain and flush"
    assert not session.daemon.alive


def test_context_manager_error_path_does_not_flush(warehouse):
    with pytest.raises(RuntimeError, match="boom"):
        with warehouse.serve() as session:
            session.pause()
            session.ingest(0.02)
            raise RuntimeError("boom")
    assert session.closed
    assert session.daemon.as_of_round == 0, (
        "an aborted session must not apply pending ingests"
    )


def test_flush_waiting_when_an_aborted_session_stops_raises_closed(warehouse):
    """A flush without a timeout, stranded by stop(drain=False), says why."""
    import threading  # tests are outside the REPRO-L009 lint scope

    outcome = {}

    def flush(session):
        try:
            session.flush()
            outcome["flush"] = "ran"
        except Exception as exc:  # the assertion below names the type
            outcome["flush"] = exc

    with pytest.raises(RuntimeError, match="boom"):
        with warehouse.serve() as session:
            session.pause()
            flusher = threading.Thread(target=flush, args=(session,))
            flusher.start()
            # Leave only once the flush barrier is queued behind the pause.
            while session.daemon.stats().queue_peak < 1 and flusher.is_alive():
                flusher.join(timeout=0.01)
            raise RuntimeError("boom")
    flusher.join(timeout=60.0)
    assert not flusher.is_alive()
    assert isinstance(outcome["flush"], ServingClosedError), outcome
    assert "closed before the flush ran" in str(outcome["flush"])


def test_unknown_view_is_rejected_with_candidates(warehouse):
    with warehouse.serve() as session:
        with pytest.raises(WarehouseError, match="v_rev"):
            session.query("v_missing")
        with pytest.raises(WarehouseError, match="v_rev"):
            session.freshness("v_missing")


# ---------------------------------------------------------- admission control

def test_serve_stale_degrades_beyond_slo(warehouse):
    slo = FreshnessSLO(max_rounds=1)
    with warehouse.serve(read_policy="serve-stale", slo=slo) as session:
        session.pause()
        for _ in range(3):
            session.ingest(0.01)
        staleness = session.freshness("v_rev")
        assert staleness.rounds == 3
        served = session.query("v_rev")
        assert served.degraded
        assert "max_rounds=1" in served.degraded_reason
        assert session.degraded_reads == 1
        session.resume()
        session.flush(timeout=60.0)
        fresh = session.query("v_rev")
        assert not fresh.degraded


def test_reject_policy_sheds_stale_reads(warehouse):
    slo = FreshnessSLO(max_rounds=1)
    with warehouse.serve(read_policy="reject", slo=slo) as session:
        session.pause()
        session.ingest(0.01)
        session.ingest(0.01)
        with pytest.raises(StaleReadError, match="shed"):
            session.query("v_rev")
        assert session.rejected_reads == 1
        # A per-call policy override beats the session default.
        served = session.query("v_rev", read_policy="serve-stale")
        assert served.degraded
        session.resume()


def test_block_policy_waits_for_freshness(warehouse):
    slo = FreshnessSLO(max_rounds=1)
    with warehouse.serve(read_policy="block", slo=slo) as session:
        session.ingest(0.01)
        session.ingest(0.01)
        # No pause: the daemon is catching up; block waits it out.
        served = session.query("v_rev")
        assert not served.degraded
        assert served.staleness.rounds <= 1


def test_block_policy_degrades_after_timeout():
    wh = small_warehouse(serving_block_timeout_seconds=0.2)
    slo = FreshnessSLO(max_rounds=1)
    with wh.serve(read_policy="block", slo=slo) as session:
        session.pause()
        session.ingest(0.01)
        session.ingest(0.01)
        served = session.query("v_rev")
        assert served.degraded
        assert "still stale after blocking" in served.degraded_reason
        session.resume()


def test_per_view_slo_override_beats_default(warehouse):
    with warehouse.serve(
        read_policy="reject",
        slo=FreshnessSLO(max_rounds=1),
        slos={"v_rev": FreshnessSLO()},  # unbounded for this view
    ) as session:
        session.pause()
        session.ingest(0.01)
        session.ingest(0.01)
        served = session.query("v_rev")  # unbounded SLO: never shed
        assert not served.degraded
        session.resume()


def test_slos_for_unknown_view_rejected(warehouse):
    with pytest.raises(WarehouseError, match="v_rev"):
        warehouse.serve(slos={"v_missing": FreshnessSLO(max_rounds=1)})


# --------------------------------------- SLO over the stream policy's deferral

def test_freshness_slo_forces_flush_past_deferral(warehouse):
    """The scheduler defers tiny rounds; the SLO bound overrides it."""
    slo = FreshnessSLO(max_rounds=1)
    with warehouse.serve(slo=slo) as session:
        session.pause()
        session.ingest(0.01)
        session.ingest(0.01)
        session.resume()
        session.drain(timeout=60.0)
        stats = session.daemon.stats()
        assert stats.slo_overrides >= 1, (
            "two pending rounds against max_rounds=1 must force a refresh"
        )
        trace = session.explain_serving()
        assert "freshness SLO" in trace
        assert "[overrides defer" in trace


# ------------------------------------------------------------- failure modes

def test_daemon_crash_surfaces_into_client_calls(warehouse):
    tables = {name: warehouse.database.table(name).copy() for name in warehouse.view_relations}
    session = warehouse.serve()
    try:
        original = session._warehouse._refresh_rounds

        def explode(*args, **kwargs):
            raise RuntimeError("disk on fire")

        session._warehouse._refresh_rounds = explode
        try:
            session.ingest(0.02)
            with pytest.raises(ServingError, match="disk on fire"):
                session.flush(timeout=60.0)
            # Every subsequent call keeps reporting the crash.
            with pytest.raises(ServingError, match="crashed"):
                session.ingest(0.02)
            with pytest.raises(ServingError, match="crashed"):
                session.freshness("v_rev")
        finally:
            session._warehouse._refresh_rounds = original
    finally:
        with pytest.raises(ServingError, match="crashed"):
            session.close()
    assert session.closed
    # The daemon stopped with the warehouse at its last commit, which a new
    # session serves and refreshes.
    assert all(warehouse.verify().values())
    for name, table in tables.items():
        assert warehouse.database.table(name).same_bag(table), name
    with warehouse.serve() as fresh:
        fresh.ingest(0.02)
        fresh.flush(timeout=60.0)
        assert fresh.as_of_round == 1
    assert len(fresh.reports) == 1 and fresh.reports[0].base_rows_applied > 0
    assert all(warehouse.verify().values())


def test_full_write_queue_sheds_ingests():
    wh = small_warehouse(serving_queue_capacity=2)
    with wh.serve() as session:
        session.pause()
        session.ingest(0.01)
        session.ingest(0.01)
        with pytest.raises(ServingError, match="shed"):
            session.ingest(0.01)
        assert session.shed_ingests == 1
        session.resume()


def test_ingest_validates_delta_batches(warehouse):
    with warehouse.serve() as session:
        schema = Schema.from_names(["x"])
        unknown = DeltaStore(["no_such_table"])
        unknown.set_delta(
            Delta("no_such_table", Relation(schema, [(1,)]), Relation(schema, []))
        )
        with pytest.raises(WarehouseError, match="no_such_table"):
            session.ingest(unknown)
        lopsided = DeltaStore(["nation"])
        lopsided.set_delta(
            Delta("nation", Relation(schema, [(1,)]), Relation(schema, []))
        )
        with pytest.raises(WarehouseError, match="arity"):
            session.ingest(lopsided)
        with pytest.raises(WarehouseError):
            session.ingest(object())


def test_annihilated_flush_releases_pending_deletes_on_both_drivers():
    """stream() and serve() drive one pipeline: a flush whose rounds
    annihilated still resets the pending-delete pool, so a later generated
    delete-everything round reaches the row the annihilated round deleted."""

    def nation_after(open_session):
        wh = small_warehouse()
        nation = wh.database.table("nation")
        row = nation.rows[0]

        def round_of(inserts, deletes):
            store = DeltaStore(["nation"])
            store.set_delta(
                Delta(
                    "nation",
                    Relation(nation.schema, inserts),
                    Relation(nation.schema, deletes),
                )
            )
            return store

        with open_session(wh) as session:
            session.ingest(round_of([row], []))  # a copy of base row r
            session.ingest(round_of([], [row]))  # r, annihilating the copy
            session.flush()
            session.ingest(
                UpdateSpec({"nation": RelationUpdate(delete_fraction=1.0)}), seed=7
            )
            session.flush()
        return wh.database.table("nation")

    streamed = nation_after(lambda wh: wh.stream())
    served = nation_after(lambda wh: wh.serve())
    assert len(streamed) == 0
    assert served.same_bag(streamed)


# ------------------------------------------------------------------- explain

def test_explain_serving_reports_the_whole_story(warehouse):
    with warehouse.serve(slo=FreshnessSLO(max_rounds=4)) as session:
        session.ingest(0.02)
        session.flush(timeout=60.0)
        session.query("v_rev")
        trace = session.explain_serving()
    assert "serving policy: serve-stale" in trace
    assert "≤4 rounds" in trace
    assert "daemon events:" in trace
    assert "published snapshot v" in trace
    assert "snapshots:" in trace
    assert "reads:" in trace


# -------------------------------------------------------------- config knobs

def test_serving_config_knobs_validated():
    for bad in (
        {"serving_read_policy": "optimistic"},
        {"serving_queue_capacity": 0},
        {"serving_block_timeout_seconds": 0.0},
        {"serving_tick_seconds": -0.1},
    ):
        with pytest.raises((ValueError, WarehouseError)):
            WarehouseConfig(**bad)


def test_serve_slo_argument_is_the_default_slo(warehouse):
    slo = FreshnessSLO(max_rounds=3, max_rows=500, max_seconds=1.5)
    assert not slo.unbounded
    with warehouse.serve(slo=slo) as session:
        assert session.slo_for("v_rev") == slo
        assert f"default SLO {slo.render()}" in session.explain_serving()


def test_session_defaults_come_from_config():
    wh = small_warehouse(serving_read_policy="reject")
    with wh.serve() as session:
        assert session.read_policy == "reject"
        # No slo= given: every view trails by at most eight rounds.
        assert session.slo_for("v_rev") == FreshnessSLO(max_rounds=8)


def test_invalid_read_policy_rejected(warehouse):
    with pytest.raises(WarehouseError, match="read policy"):
        warehouse.serve(read_policy="optimistic")
