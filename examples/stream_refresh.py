"""Streaming ingest: coalesce update rounds, refresh at a staleness bound.

``Warehouse.apply()`` pays a full refresh per batch; this example feeds the
same churny update stream (every round deletes part of the previous round's
inserts — corrections arriving one batch late) through two
``Warehouse.stream()`` policies:

* ``eager``    — refresh after every ingested round;
* ``coalesce`` — buffer rounds, annihilate insert-then-delete pairs, and
  flush once a staleness bound (``stream_max_batches``) is reached, or at
  ``close()``.

Both end with bit-identical view contents; the coalescing session gets
there with one refresh instead of six, propagating fewer tuples.

Run with:  python examples/stream_refresh.py
(after ``pip install -e .`` — or with PYTHONPATH=src)
"""

from repro import Q, Warehouse, WarehouseConfig
from repro.workloads.updategen import generate_update_stream

REVENUE_VIEW = (
    Q.table("lineitem").join("orders").join("customer").join("nation")
    .group_by("n_name")
    .sum("l_extendedprice", "revenue")
)


def build_warehouse() -> Warehouse:
    wh = Warehouse(WarehouseConfig.profile("fast"))
    # The paper's pattern: plan against full-scale statistics, execute small.
    wh.load(scale=0.1).load_data(scale=0.002)
    wh.define_view("v_revenue_by_nation", REVENUE_VIEW)
    wh.optimize()
    wh.apply(0.0)  # materialize the view before streaming
    return wh


def main() -> None:
    eager_wh = build_warehouse()
    deferred_wh = build_warehouse()
    # One pre-generated stream, valid for replay from the identical start
    # state: 60% of each round's deletes target the previous round's inserts.
    rounds = generate_update_stream(
        eager_wh.database,
        update_percentage=0.03,
        rounds=6,
        relations=eager_wh.view_relations,
        overlap=0.6,
        seed=7,
    )

    with eager_wh.stream("eager") as eager:
        for deltas in rounds:
            eager.ingest(deltas)
    with deferred_wh.stream() as deferred:  # config default: coalesce
        for deltas in rounds:
            deferred.ingest(deltas)

    print("deferred session decision trace:")
    print(deferred.explain_schedule())
    print()
    print(f"eager    : {len(eager.reports)} flushes, "
          f"{sum(r.base_rows_applied for r in eager.reports)} base rows applied, "
          f"{sum(r.total_changes() for r in eager.reports)} view tuples changed")
    print(f"coalesce : {len(deferred.reports)} flushes, "
          f"{sum(r.base_rows_applied for r in deferred.reports)} base rows applied, "
          f"{sum(r.total_changes() for r in deferred.reports)} view tuples changed "
          f"({deferred.annihilated_rows} annihilated)")
    identical = eager_wh.database.view("v_revenue_by_nation").same_bag(
        deferred_wh.database.view("v_revenue_by_nation")
    )
    print(f"final views identical: {identical}")
    assert identical


if __name__ == "__main__":
    main()
