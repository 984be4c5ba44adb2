"""Serving-layer benchmark: a concurrent client swarm vs a serial oracle.

This is the benchmark for :mod:`repro.serving`: the fig3 view pair is
served through ``Warehouse.serve()`` while reader threads hammer the
views and the producer ingests a churn stream of update rounds.  Two SLO
cells run — ``serve-stale`` and ``block``, both bounded at
``max_rounds=4`` over the stream policy's deferral — and each must pass two
checks:

* **snapshot isolation**: every *distinct (view, version)* relation any
  reader was served is bag-identical to a serial oracle that replayed the
  same update rounds eagerly, one at a time, up to that version's as-of
  round.  Snapshot contents are immutable per version, so this verifies
  every individual read without a per-query bag comparison;
* **SLO admission**: no non-degraded read ever observed staleness beyond
  the configured bound (degraded reads are the ``serve-stale`` policy's
  explicit escape hatch).

Read latency and throughput under load are measured end to end by
``perf/`` (the ``serve_mixed`` workload), not here.
"""

from repro.algebra.expressions import base_relations
from repro.api import FreshnessSLO, Warehouse, WarehouseConfig
from repro.bench.experiments import PAPER_SCALE_FACTOR
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import generate_update_stream

from benchmarks.swarm import run_client_swarm

SCALE = 0.002
ROUNDS = 6
READERS = 8
UPDATE_PERCENTAGE = 0.03
OVERLAP = 0.6
SLO_BOUND = 4

#: The two SLO policy cells the acceptance criteria require.
CELLS = ("serve-stale", "block")


def _make_warehouse(database):
    """Plan at paper scale, run small."""
    wh = Warehouse(
        WarehouseConfig.profile(
            "fast",
            serving_block_timeout_seconds=60.0,
            serving_tick_seconds=0.01,
        )
    )
    wh.load(scale=PAPER_SCALE_FACTOR)
    wh.load_data(database=database)
    wh.define_views(VIEWS)
    wh.optimize()
    wh.apply(0.0)  # materialize the views before serving starts
    return wh


VIEWS = {**queries.standalone_join_view(), **queries.standalone_agg_view()}


def _build_oracle(base, stream_rounds):
    """View contents after each serial round prefix: ``oracle[r]`` = rounds 1..r.

    Refreshes always *replace* view relations (the REPRO-L003 invariant),
    so capturing the relation references after each eager round is a
    faithful, immutable per-round snapshot.
    """
    database = base.copy()
    wh = _make_warehouse(database)
    oracle = [{name: database.view(name) for name in VIEWS}]
    with wh.stream("eager") as session:
        for deltas in stream_rounds:
            session.ingest(deltas)
            oracle.append({name: database.view(name) for name in VIEWS})
    return oracle


def _run_cell(base, stream_rounds, policy, slo):
    database = base.copy()
    wh = _make_warehouse(database)
    session = wh.serve(read_policy=policy, slo=slo)
    try:
        swarm = run_client_swarm(
            session, sorted(VIEWS), stream_rounds, readers=READERS
        )
        final_round = session.as_of_round
    finally:
        session.close()
    return swarm, final_round


def run_serving_benchmark():
    base = small_database(scale_factor=SCALE)
    involved = sorted({r for e in VIEWS.values() for r in base_relations(e)})
    stream_rounds = generate_update_stream(
        base,
        UPDATE_PERCENTAGE,
        ROUNDS,
        relations=involved,
        overlap=OVERLAP,
        seed=4242,
    )
    oracle = _build_oracle(base, stream_rounds)
    slo = FreshnessSLO(max_rounds=SLO_BOUND)
    cells = []
    for policy in CELLS:
        swarm, final_round = _run_cell(base, stream_rounds, policy, slo)
        verified = all(
            relation.same_bag(oracle[as_of][view])
            for (view, _version), (relation, as_of) in sorted(
                swarm.served_versions.items()
            )
        )
        cells.append((policy, swarm, final_round, verified))
    return cells


def test_serving_swarm_matches_serial_oracle():
    """Concurrent serving is exactly serial replay, within the SLO bounds."""
    for policy, swarm, final_round, verified in run_serving_benchmark():
        assert not swarm.errors, f"[{policy}] reader errors: {swarm.errors}"
        assert swarm.ingested_rounds == ROUNDS, (
            f"[{policy}] producer only landed {swarm.ingested_rounds} of "
            f"{ROUNDS} rounds ({swarm.shed_ingests} shed)"
        )
        assert final_round == ROUNDS, (
            f"[{policy}] daemon settled at round {final_round}, not {ROUNDS}"
        )
        assert swarm.queries > 0, f"[{policy}] the swarm never got a read in"
        assert verified, (
            f"[{policy}] a served snapshot diverged from the serial oracle"
        )
        # Admission control: non-degraded reads always satisfy the SLO.
        assert swarm.max_fresh_staleness_rounds <= SLO_BOUND, (
            f"[{policy}] a non-degraded read observed "
            f"{swarm.max_fresh_staleness_rounds} rounds of staleness "
            f"(SLO bound: {SLO_BOUND})"
        )
