"""Stream refresh policies: coalesced deferred refresh vs eager per-update.

The fig3 view pair (the stand-alone join view and its aggregate sibling) is
fed the same sequence of update rounds — with deliberate insert/delete
overlap between rounds, the churn pattern where coalescing annihilation pays
— under two ``Warehouse.stream()`` policies.  *Eager* refreshes after every
ingested round; *coalesce* buffers rounds, annihilates insert-then-delete
pairs, and flushes once.  Every view must end bag-identical between the two
policies and match recomputation, and the coalesced policy must refresh less
often and propagate strictly fewer rows.  Wall-clock refresh cost is measured
by ``perf/run.py``'s ``stream_churn`` workload, not here.
"""

from repro.algebra.expressions import base_relations
from repro.api import Warehouse, WarehouseConfig
from repro.bench.experiments import PAPER_SCALE_FACTOR
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import generate_update_stream

SCALE_FACTOR = 0.002
UPDATE_PERCENTAGE = 0.03
ROUNDS = 6
OVERLAP = 0.6


def _run_policy(policy, base, views, stream_rounds):
    """Ingest ``stream_rounds`` under ``policy``; return (session, database, verified)."""
    database = base.copy()
    wh = Warehouse(WarehouseConfig.profile("fast", stream_policy=policy))
    # Plan against full-scale statistics (where incremental maintenance
    # wins), execute at a small scale factor.
    wh.load(scale=PAPER_SCALE_FACTOR)
    wh.load_data(database=database)
    wh.define_views(views)
    wh.optimize()
    wh.apply(0.0)
    with wh.stream(policy) as session:
        for deltas in stream_rounds:
            session.ingest(deltas)
    return session, database, all(wh.verify().values())


def _rows_propagated(session):
    """Refresh traffic: base rows applied + view rows changed."""
    return sum(r.base_rows_applied + r.total_changes() for r in session.reports)


def test_coalesced_stream_beats_eager_refresh():
    """Deferral + coalescing refresh less often and propagate fewer rows."""
    views = {**queries.standalone_join_view(), **queries.standalone_agg_view()}
    base = small_database(scale_factor=SCALE_FACTOR)
    involved = sorted({r for e in views.values() for r in base_relations(e)})
    stream_rounds = generate_update_stream(
        base, UPDATE_PERCENTAGE, ROUNDS, relations=involved, overlap=OVERLAP, seed=4242,
    )

    eager, eager_db, eager_verified = _run_policy("eager", base, views, stream_rounds)
    coalesced, coalesced_db, coalesced_verified = _run_policy(
        "coalesce", base, views, stream_rounds
    )

    # Both policies end with every view bag-identical to recomputation, and
    # to each other.
    assert eager_verified and coalesced_verified, (
        "a stream-refreshed view diverged from recomputation"
    )
    for name in views:
        assert eager_db.view(name).same_bag(coalesced_db.view(name)), (
            f"coalesced deferred refresh produced different contents for {name} "
            "than eager per-round refresh"
        )

    # The stream actually exercised the interesting machinery.
    assert len(eager.reports) == ROUNDS, "eager policy must refresh every round"
    assert len(coalesced.reports) < len(eager.reports), "coalescing never deferred a refresh"
    assert coalesced.annihilated_rows > 0, (
        "the overlapping stream produced no insert/delete annihilation"
    )

    assert _rows_propagated(coalesced) < _rows_propagated(eager), (
        f"coalesced policy propagated {_rows_propagated(coalesced)} rows, "
        f"eager only {_rows_propagated(eager)}"
    )
