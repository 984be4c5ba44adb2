"""Behavior of the streaming façade: ``Warehouse.stream()``.

Covers the session lifecycle (ingest/flush/close, context manager), the
policy decisions surfaced through ``explain_schedule()``, the config knobs,
and the end-to-end guarantee that a deferred coalesced session leaves the
database in the same state as an eager one fed the identical rounds.
"""

import pytest

from repro import (
    FreshnessSLO,
    Q,
    StreamClosedError,
    StreamPolicy,
    UpdateSpec,
    Warehouse,
    WarehouseConfig,
    WarehouseError,
)
from repro.catalog.schema import Schema
from repro.maintenance.update_spec import RelationUpdate
from repro.storage.delta import Delta, DeltaStore
from repro.storage.relation import Relation
from repro.stream import StreamScheduler
from repro.workloads.updategen import generate_update_stream


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
    return wh


@pytest.fixture(scope="module")
def warehouse():
    return small_warehouse()


def fresh_session(wh, policy=None):
    # Re-materialize views so each test starts from a consistent state.
    wh.apply(0.0)
    return wh.stream(policy)


# ----------------------------------------------------------------- lifecycle

def test_coalescing_session_defers_then_flushes_on_close():
    wh = small_warehouse()
    with wh.stream() as session:
        for _ in range(3):
            decision = session.ingest(0.01)
            assert not decision.refreshes
        assert session.pending_batches == 3
        assert session.pending_rows > 0
    assert session.closed
    assert len(session.reports) == 1
    assert session.reports[0].rounds == 1  # coalesced into one round
    assert all(wh.verify().values())


def test_eager_policy_refreshes_every_ingest():
    wh = small_warehouse()
    with wh.stream("eager") as session:
        for _ in range(2):
            decision = session.ingest(0.01)
            assert decision.refreshes
    assert len(session.reports) == 2
    assert all(wh.verify().values())


def test_closed_session_rejects_ingest_and_flush(warehouse):
    session = fresh_session(warehouse)
    session.close()
    with pytest.raises(StreamClosedError):
        session.ingest(0.01)
    with pytest.raises(StreamClosedError):
        session.flush()
    # Closing twice is a no-op.
    assert session.close() is None


def test_flush_with_nothing_pending_returns_none(warehouse):
    session = fresh_session(warehouse)
    assert session.flush() is None
    assert session.skipped_flushes == 0
    session.close()


def test_ingest_rejects_bad_batch_type(warehouse):
    session = fresh_session(warehouse)
    with pytest.raises(WarehouseError, match="DeltaStore"):
        session.ingest("5 percent")
    session.close()


def test_ingest_rejects_unknown_relation_before_buffering(warehouse):
    session = fresh_session(warehouse)
    schema = Schema.from_names(["x"])
    bogus = DeltaStore(["linitem"])
    bogus.set_delta(Delta("linitem", Relation(schema, [(1,)]), Relation(schema, [])))
    # A typo'd relation is rejected at ingest time — a flush failure would
    # poison the session, so the bad round must never enter the buffer.
    with pytest.raises(WarehouseError, match="lineitem"):
        session.ingest(bogus)
    assert not session.closed and session.pending_batches == 0
    session.close()


def test_ingest_rejects_wrong_arity_before_buffering(warehouse):
    session = fresh_session(warehouse)
    bad = DeltaStore(["nation"])
    schema = Schema.from_names(["x"])  # nation has 4 columns
    bad.set_delta(Delta("nation", Relation(schema, [(1,)]), Relation(schema, [])))
    with pytest.raises(WarehouseError, match="arity"):
        session.ingest(bad)
    # Empty bags too: the pending buffer adopts the first round's bag as
    # its schema template, so a malformed empty bag must also be refused.
    sneaky = DeltaStore(["nation"])
    nation_schema = warehouse.database.table("nation").schema
    sneaky.set_delta(
        Delta(
            "nation",
            Relation(nation_schema, [tuple([None] * len(nation_schema))]),
            Relation(schema, []),  # empty, but with the wrong schema
        )
    )
    with pytest.raises(WarehouseError, match="arity"):
        session.ingest(sneaky)
    assert not session.closed and session.pending_batches == 0
    session.close()


def test_stream_rejects_unknown_policy(warehouse):
    with pytest.raises(WarehouseError, match="eager"):
        warehouse.stream("lazy")
    with pytest.raises(WarehouseError):
        warehouse.stream(42)


def test_stream_requires_views_and_wraps_policy_errors(warehouse):
    # A never-flushing caller-built policy surfaces as WarehouseError.
    with pytest.raises(WarehouseError, match="never trigger"):
        warehouse.stream(StreamPolicy.coalescing())
    # No views defined: rejected at stream() like apply() does.
    empty = Warehouse(WarehouseConfig.profile("fast")).load_data(scale=0.002)
    with pytest.raises(WarehouseError, match="no views defined"):
        empty.stream()


# ------------------------------------------------------------ staleness bounds

def test_max_batches_bound_forces_flush():
    wh = small_warehouse(stream_max_batches=2)
    session = wh.stream()
    first = session.ingest(0.01)
    second = session.ingest(0.01)
    assert not first.refreshes
    assert second.refreshes
    assert "staleness bound" in second.reason
    assert len(session.reports) == 1
    session.close()


def test_max_rows_bound_forces_flush():
    wh = small_warehouse(stream_max_rows=1)
    session = wh.stream()
    decision = session.ingest(0.01)
    assert decision.refreshes
    assert "rows pending" in decision.reason
    session.close()


def assert_indexes_match_rebuild(database, name):
    from repro.storage.index import build_index

    table = database.table(name)
    definitions = database.catalog.indexes(name)
    assert definitions
    for definition in definitions:
        columns = list(definition.columns)
        index = database.index_for(name, columns)
        fresh = build_index(table, columns, kind="hash" if definition.kind == "hash" else "btree")
        assert len(index) == len(fresh) == len(table)
        assert index.distinct_keys == fresh.distinct_keys
        positions = table.schema.positions(columns)
        probes = {tuple(row[p] for p in positions) for row in table.rows}
        for key in sorted(probes) + [(-1,) * len(columns)]:
            assert sorted(index.lookup(key)) == sorted(fresh.lookup(key)), key


def test_large_coalesced_inserts_flush_only_at_the_staleness_bound():
    # Large coalesced inserts on an indexed relation (15 % of customer per
    # round) flush only at max_batches, and the merge splices them into the
    # relation's indexes in place.
    wh = small_warehouse(stream_max_batches=4)
    database = wh.database
    indexes = [
        database.index_for("customer", list(definition.columns))
        for definition in database.catalog.indexes("customer")
    ]
    spec = UpdateSpec({"customer": RelationUpdate(insert_fraction=0.15)})
    with wh.stream() as session:
        for tick in range(1, 9):
            decision = session.ingest(spec)
            assert decision.refreshes == (tick % 4 == 0), decision.render()
            if decision.refreshes:
                assert "staleness bound" in decision.reason
                assert all(wh.verify().values())
                assert_indexes_match_rebuild(database, "customer")
    assert len(session.reports) == 2
    assert [
        database.index_for("customer", list(definition.columns))
        for definition in database.catalog.indexes("customer")
    ] == indexes


def test_config_policy_knobs_validate():
    with pytest.raises(WarehouseError, match="stream policy"):
        WarehouseConfig(stream_policy="sometimes")
    with pytest.raises(WarehouseError, match="stream_max_rows"):
        WarehouseConfig(stream_max_rows=0)
    with pytest.raises(WarehouseError, match="stream_max_batches"):
        WarehouseConfig(stream_max_batches=-1)
    eager = WarehouseConfig(stream_policy="eager").make_stream_policy()
    assert eager.eager and not eager.coalesce
    coalescing = WarehouseConfig(stream_max_rows=10).make_stream_policy()
    assert coalescing.coalesce and coalescing.max_rows == 10


def test_stream_policy_bounds_validate():
    with pytest.raises(ValueError):
        StreamPolicy.coalescing(max_rows=0)
    with pytest.raises(ValueError):
        StreamPolicy.coalescing(max_batches=0)


# ----------------------------------------------------------- decision trace

def test_explain_schedule_renders_ticks_and_summary():
    wh = small_warehouse()
    session = wh.stream()
    session.ingest(0.01)
    session.ingest(0.01)
    text = session.explain_schedule()
    assert "stream policy: coalesce" in text
    assert "tick 1:" in text and "tick 2:" in text
    assert "defer" in text
    session.flush()
    text = session.explain_schedule()
    assert "flushes: 1" in text
    session.close()


def test_scheduler_rejects_policies_that_can_never_flush():
    # A deferring policy without a staleness bound: nothing could ever
    # trigger a refresh, so the scheduler refuses the configuration up front.
    with pytest.raises(ValueError, match="never trigger"):
        StreamScheduler(StreamPolicy.coalescing())


def test_scheduler_without_cost_model_defers_within_bounds():
    scheduler = StreamScheduler(StreamPolicy.coalescing(max_batches=3))
    schema = Schema.from_names(["x"])
    one_row_store = DeltaStore(["r"])
    one_row_store.set_delta(
        Delta("r", Relation(schema, [(1,)]), Relation(schema, []))
    )
    assert scheduler.ingest(one_row_store).action == "defer"
    assert scheduler.ingest(one_row_store).action == "defer"
    assert scheduler.ingest(one_row_store).action == "refresh"


# ----------------------------------------------- deferred ≡ eager, end to end

def test_deferred_session_matches_eager_session_on_same_stream():
    wh_eager = small_warehouse()
    wh_deferred = small_warehouse()
    wh_served = small_warehouse()
    # One shared, pre-generated stream with insert/delete overlap, valid for
    # replay from the identical starting state the warehouses loaded.
    rounds = generate_update_stream(
        wh_eager.database, 0.02, rounds=4, relations=wh_eager.view_relations,
        overlap=0.5, seed=99,
    )
    for wh in (wh_eager, wh_deferred, wh_served):
        wh.apply(0.0)

    with wh_eager.stream("eager") as eager:
        for deltas in rounds:
            eager.ingest(deltas)
    with wh_deferred.stream() as deferred:
        for deltas in rounds:
            deferred.ingest(deltas)
    # The serving daemon drives the same pipeline: with an unbounded SLO it
    # makes the stream session's decisions and flushes the same rounds.
    with wh_served.serve(stream_policy="coalesce", slo=FreshnessSLO()) as served:
        for deltas in rounds:
            served.ingest(deltas)

    assert deferred.annihilated_rows > 0
    assert (
        served._pipeline.scheduler.render_trace()
        == deferred._pipeline.scheduler.render_trace()
    )
    assert [r.base_rows_applied for r in served.reports] == [
        r.base_rows_applied for r in deferred.reports
    ]
    for other in (wh_deferred, wh_served):
        for table in wh_eager.view_relations:
            assert wh_eager.database.table(table).same_bag(
                other.database.table(table)
            ), table
        assert wh_eager.database.view("v_rev").same_bag(other.database.view("v_rev"))
        assert all(other.verify().values())
    assert all(wh_eager.verify().values())


def test_failed_flush_poisons_session_and_keeps_rounds_inspectable(monkeypatch):
    wh = small_warehouse()
    session = wh.stream()
    session.ingest(0.02)
    assert session.pending_rows > 0

    def boom(rounds, **kwargs):
        raise WarehouseError("refresh exploded")

    monkeypatch.setattr(wh, "_refresh_rounds", boom)
    with pytest.raises(WarehouseError, match="exploded"):
        session.flush()
    # The refresh is non-transactional, so retrying could double-apply:
    # the session is poisoned, with the rounds readable for diagnosis.
    assert session.closed
    assert session.failed_rounds and session.failed_rounds[0].total_rows() > 0
    assert len(session.reports) == 0
    with pytest.raises(StreamClosedError):
        session.flush()
    with pytest.raises(StreamClosedError):
        session.ingest(0.01)


def test_key_sequences_survive_flushes_without_reuse():
    wh = small_warehouse()
    session = wh.stream()
    # Big generated batches whose deletes shrink the tables below the key
    # high-water mark; a second generated ingest after the flush must not
    # re-issue keys that the first round already used.
    session.ingest(0.2)
    session.flush()
    session.ingest(0.2)
    session.flush()
    session.close()
    for table in ("orders", "customer"):
        keys = [row[0] for row in wh.database.table(table).rows]
        assert len(keys) == len(set(keys)), f"duplicate primary keys in {table}"
    assert all(wh.verify().values())


def test_mixed_deltastore_and_generated_ingests_share_key_space():
    from repro.workloads.updategen import uniform_deltas

    wh = small_warehouse()
    session = wh.stream()
    # A caller-supplied store's inserts (which continue the key sequence at
    # len(table)) must push the generated path's high-water mark forward.
    session.ingest(uniform_deltas(wh.database, 0.10, relations=wh.view_relations))
    session.ingest(0.10)
    session.flush()
    session.close()
    for table in ("orders", "customer"):
        keys = [row[0] for row in wh.database.table(table).rows]
        assert len(keys) == len(set(keys)), f"duplicate primary keys in {table}"
    assert all(wh.verify().values())


def test_generated_ingests_never_delete_a_tuple_twice():
    wh = small_warehouse()
    session = wh.stream()
    # Deferred generated rounds: the exclusion bookkeeping must keep every
    # coalesced delete satisfiable against the stored base tables.
    for _ in range(3):
        session.ingest(0.03)
    report = session.flush()
    assert report is not None
    assert all(wh.verify().values())
    session.close()


# ------------------------------------------------- lifecycle mutual exclusion

def test_close_is_idempotent():
    wh = small_warehouse()
    session = wh.stream()
    session.ingest(0.02)
    report = session.close()
    assert report is not None, "the first close performs the final flush"
    assert session.close() is None, "a second close is a no-op"
    assert session.closed


def test_flush_after_close_raises_deterministically():
    wh = small_warehouse()
    session = wh.stream()
    session.ingest(0.02)
    session.close()
    with pytest.raises(StreamClosedError):
        session.flush()


def test_racing_flush_and_close_never_double_flush():
    """A flush racing a close either completes or raises StreamClosedError.

    The session mutex serializes the two, so whatever the interleaving the
    pending rounds are applied exactly once — the database ends verified
    and the flush/close reports account for every ingested round between
    them, with no torn pending state.
    """
    import threading  # tests are outside the REPRO-L009 lint scope

    wh = small_warehouse()
    session = wh.stream()
    for _ in range(3):
        session.ingest(0.02)

    barrier = threading.Barrier(2)
    outcomes = {}

    def do_flush():
        barrier.wait()
        try:
            outcomes["flush"] = session.flush()
        except StreamClosedError:
            outcomes["flush"] = "closed"

    def do_close():
        barrier.wait()
        outcomes["close"] = session.close()

    flusher = threading.Thread(target=do_flush)
    closer = threading.Thread(target=do_close)
    flusher.start()
    closer.start()
    flusher.join(timeout=60.0)
    closer.join(timeout=60.0)

    assert session.closed
    reports = [r for r in (outcomes.get("flush"), outcomes.get("close"))
               if r not in (None, "closed")]
    # Exactly one of the two applied the pending rounds (whichever won the
    # mutex); the pending state is gone either way.
    assert len(reports) == 1, outcomes
    # Coalescing may merge the three ingested rounds into fewer flush rounds,
    # but whoever won the mutex applied them all.
    assert reports[0].rounds >= 1
    assert reports[0].base_rows_applied > 0
    assert session.pending_batches == 0
    assert all(wh.verify().values())
