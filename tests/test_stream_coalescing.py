"""Delta coalescing: kernels, pending buffer, and the replay-equivalence oracle.

The load-bearing invariant: refreshing views once with a *coalesced* delta
produces exactly the same bags as replaying the original rounds eagerly —
which the PR-2 refresh machinery in turn pins against full recomputation.
On top of that, the edge cases the scheduler's fast paths rely on:
insert-then-delete annihilates to an empty bag (the refresh is skipped
entirely), delete-then-insert is preserved with multiset semantics.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Join,
    Select,
)
from repro.algebra.predicates import gt
from repro.catalog.schema import Schema, TableDef
from repro.engine.database import Database
from repro.engine.executor import evaluate
from repro.maintenance.maintainer import ViewRefresher
from repro.storage.delta import (
    Delta,
    DeltaStore,
    coalesce_delta,
    coalesce_stores,
)
from repro.storage.relation import Relation
from repro.stream import PendingDeltas

SCHEMA = Schema.from_names(["k", "v"])


def rel(rows):
    return Relation(SCHEMA, rows)


def delta(inserts=(), deletes=(), relation="r"):
    return Delta(relation, rel(list(inserts)), rel(list(deletes)))


def store(inserts=(), deletes=(), relation="r"):
    s = DeltaStore([relation])
    s.set_delta(delta(inserts, deletes, relation))
    return s


# ------------------------------------------------------------------- kernels

def test_insert_then_delete_annihilates_to_empty_bag():
    out = coalesce_delta(delta(inserts=[(1, 1), (2, 2)]), delta(deletes=[(1, 1), (2, 2)]))
    assert out.delta.is_empty
    assert out.annihilated == 2


def test_annihilation_respects_multiplicity():
    # Two copies inserted, one deleted: one copy survives.
    out = coalesce_delta(delta(inserts=[(1, 1), (1, 1)]), delta(deletes=[(1, 1)]))
    assert out.delta.inserts.rows == [(1, 1)]
    assert not len(out.delta.deletes)
    assert out.annihilated == 1


def test_delete_then_insert_preserves_multiset_semantics():
    # Deleting an existing tuple and later inserting an equal one must keep
    # both sides: the delete targets a *base* copy, the insert adds a new
    # one, and cancelling them would assume facts about the base bag.
    out = coalesce_delta(delta(deletes=[(5, 5)]), delta(inserts=[(5, 5)]))
    assert out.delta.inserts.rows == [(5, 5)]
    assert out.delta.deletes.rows == [(5, 5)]
    assert out.annihilated == 0


def test_unrelated_rows_pass_through():
    out = coalesce_delta(
        delta(inserts=[(1, 1)], deletes=[(9, 9)]),
        delta(inserts=[(2, 2)], deletes=[(8, 8)]),
    )
    assert Counter(out.delta.inserts.rows) == Counter([(1, 1), (2, 2)])
    assert Counter(out.delta.deletes.rows) == Counter([(9, 9), (8, 8)])
    assert out.annihilated == 0


def test_coalesce_rejects_different_relations():
    with pytest.raises(ValueError):
        coalesce_delta(delta(relation="r"), delta(relation="s"))


def test_coalesce_stores_folds_rounds_and_counts_annihilation():
    rounds = [
        store(inserts=[(1, 1), (2, 2)]),
        store(deletes=[(1, 1)]),
        store(inserts=[(3, 3)], deletes=[(2, 2)]),
    ]
    merged, annihilated = coalesce_stores(rounds)
    d = merged.delta("r")
    assert Counter(d.inserts.rows) == Counter([(3, 3)])
    assert not len(d.deletes)
    assert annihilated == 2


def test_coalesce_stores_keeps_first_round_relation_order():
    a = DeltaStore(["r", "s"])
    a.set_delta(delta(inserts=[(1, 1)], relation="r"))
    a.set_delta(delta(inserts=[(2, 2)], relation="s"))
    b = DeltaStore(["s", "t"])
    b.set_delta(delta(inserts=[(3, 3)], relation="s"))
    b.set_delta(delta(inserts=[(4, 4)], relation="t"))
    merged, _ = coalesce_stores([a, b])
    assert merged.relation_order == ["r", "s", "t"]
    assert Counter(merged.delta("s").inserts.rows) == Counter([(2, 2), (3, 3)])


def test_coalesce_stores_does_not_mutate_inputs():
    first = store(inserts=[(1, 1)])
    second = store(deletes=[(1, 1)])
    coalesce_stores([first, second])
    assert first.delta("r").inserts.rows == [(1, 1)]
    assert second.delta("r").deletes.rows == [(1, 1)]


# ------------------------------------------------------------ pending buffer

def test_pending_deltas_coalesces_and_resets():
    pending = PendingDeltas(coalesce=True)
    pending.ingest(store(inserts=[(1, 1), (2, 2)]))
    pending.ingest(store(deletes=[(1, 1)]))
    assert pending.batches == 2
    assert pending.rows_ingested == 3
    assert pending.annihilated_rows == 1
    assert pending.pending_rows() == 1
    rounds = pending.take()
    assert len(rounds) == 1
    assert rounds[0].delta_sizes() == {"r": (1, 0)}
    assert rounds[0].delta("r").inserts.rows == [(2, 2)]
    assert pending.is_empty and pending.pending_rows() == 0


def test_pending_deltas_fully_annihilated_flush_is_empty():
    pending = PendingDeltas(coalesce=True)
    pending.ingest(store(inserts=[(1, 1)]))
    pending.ingest(store(deletes=[(1, 1)]))
    assert pending.batches == 2
    assert pending.pending_rows() == 0
    assert pending.take() == []


def test_pending_deltas_without_coalescing_keeps_rounds_verbatim():
    pending = PendingDeltas(coalesce=False)
    first, second = store(inserts=[(1, 1)]), store(deletes=[(1, 1)])
    pending.ingest(first)
    pending.ingest(second)
    assert pending.pending_rows() == 2
    assert pending.take() == [first, second]


# ------------------------------------------- replay equivalence (PR-2 oracle)

FACT_SCHEMA = Schema.from_names(["f_id", "dim_id", "value"])
DIM_SCHEMA = Schema.from_names(["d_id", "d_group"])


def make_database(facts, dims):
    database = Database()
    database.create_table(TableDef("fact", FACT_SCHEMA, ()), facts)
    database.create_table(TableDef("dim", DIM_SCHEMA, ()), dims)
    return database


def stream_views():
    join = Join(BaseRelation("fact"), BaseRelation("dim"), [("dim_id", "d_id")])
    return {
        "v_join": join,
        "v_agg": Aggregate(
            join,
            ["d_group"],
            [
                AggregateSpec(AggregateFunc.SUM, "value", "total"),
                AggregateSpec(AggregateFunc.COUNT, None, "n"),
            ],
        ),
        "v_big": Select(BaseRelation("fact"), gt("value", 40)),
    }


fact_row = st.tuples(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=100),
)
base_facts = st.lists(fact_row, min_size=0, max_size=12)
base_dims = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2)),
    min_size=1,
    max_size=6,
)


@st.composite
def update_streams(draw):
    """A base database plus 1-4 valid rounds of fact inserts/deletes.

    Deletes are always drawn from the simulated current contents (base rows
    plus earlier-round inserts), so eager replay is well-defined; drawing
    them from earlier inserts is exactly what produces the annihilation the
    coalescing path must get right.
    """
    facts = draw(base_facts)
    dims = draw(base_dims)
    sim = list(facts)
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        inserts = draw(st.lists(fact_row, min_size=0, max_size=5))
        pool = sim + inserts
        delete_count = draw(st.integers(min_value=0, max_value=min(4, len(pool))))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=max(0, len(pool) - 1)),
                min_size=delete_count,
                max_size=delete_count,
                unique=True,
            )
        )
        deletes = [pool[i] for i in indices]
        counts = Counter(pool)
        for row in deletes:
            counts[row] -= 1
        sim = list(counts.elements())
        rounds.append((inserts, deletes))
    return facts, dims, rounds


def as_store(inserts, deletes):
    s = DeltaStore(["fact"])
    s.set_delta(Delta("fact", Relation(FACT_SCHEMA, inserts), Relation(FACT_SCHEMA, deletes)))
    return s


@settings(max_examples=60, deadline=None)
@given(update_streams())
def test_coalesced_refresh_is_bag_identical_to_eager_replay(stream):
    facts, dims, rounds = stream
    views = stream_views()
    stores = [as_store(ins, dels) for ins, dels in rounds]

    # Eager replay: one refresh per round (the PR-2 path, pinned against
    # recomputation below).
    eager_db = make_database(facts, dims)
    eager = ViewRefresher(eager_db, views)
    eager.initialize_views()
    for s in stores:
        eager.refresh(s)

    # Coalesced: every round folded into one store, one refresh (or none,
    # when everything annihilated).
    merged, _ = coalesce_stores(stores)
    coalesced_db = make_database(facts, dims)
    coalesced = ViewRefresher(coalesced_db, views)
    coalesced.initialize_views()
    if merged.total_rows() > 0:
        coalesced.refresh(merged)

    for name in views:
        assert coalesced_db.view(name).same_bag(eager_db.view(name)), name
    # Both equal recomputation on the final database state.
    assert all(coalesced.verify_against_recomputation().values())
    assert all(eager.verify_against_recomputation().values())


@settings(max_examples=60, deadline=None)
@given(update_streams())
def test_pending_buffer_matches_coalesce_stores_oracle(stream):
    """The incremental buffer equals the reference fold, bag for bag."""
    _, _, rounds = stream
    stores = [as_store(ins, dels) for ins, dels in rounds]
    pending = PendingDeltas(coalesce=True)
    for s in stores:
        pending.ingest(s)
    oracle, oracle_annihilated = coalesce_stores(stores)
    assert pending.annihilated_rows == oracle_annihilated
    assert pending.pending_rows() == oracle.total_rows()
    taken = pending.take()
    if oracle.total_rows() == 0:
        assert taken == []
    else:
        assert len(taken) == 1
        assert taken[0].delta_sizes() == oracle.delta_sizes()
        merged = taken[0].delta("fact")
        assert merged.inserts.same_bag(oracle.delta("fact").inserts)
        assert merged.deletes.same_bag(oracle.delta("fact").deletes)


@settings(max_examples=20, deadline=None)
@given(update_streams())
def test_refresh_many_shares_cache_and_matches_per_round_refresh(stream):
    facts, dims, rounds = stream
    views = stream_views()
    stores = [as_store(ins, dels) for ins, dels in rounds]

    one_by_one = make_database(facts, dims)
    refresher = ViewRefresher(one_by_one, views)
    refresher.initialize_views()
    for s in stores:
        refresher.refresh(s)

    many = make_database(facts, dims)
    multi = ViewRefresher(many, views)
    multi.initialize_views()
    multi.refresh_many(stores)

    for name in views:
        assert many.view(name).same_bag(one_by_one.view(name)), name
    assert all(multi.verify_against_recomputation().values())
