"""repro — Materialized view selection and maintenance using multi-query optimization.

A from-scratch Python reproduction of Mistry, Roy, Ramamritham and Sudarshan,
"Materialized View Selection and Maintenance Using Multi-Query Optimization"
(SIGMOD 2001).  The package contains every substrate the paper relies on:

* ``repro.catalog``   — schemas, statistics, the system catalog
* ``repro.storage``   — bag relations, delta relations, indexes, buffer pool
* ``repro.algebra``   — the logical multiset relational algebra
* ``repro.engine``    — execution and differential (delta) propagation
* ``repro.optimizer`` — AND-OR DAG, cost model, Volcano-style plan search
* ``repro.mqo``       — multi-query optimization (RSSB00 greedy heuristic)
* ``repro.maintenance`` — the paper's contribution: optimal view-maintenance
  plans and greedy selection of extra temporary/permanent materializations
* ``repro.stream``    — streaming ingestion: delta coalescing and
  cost-based deferred refresh scheduling
* ``repro.serving``   — the concurrent serving tier: versioned snapshot
  reads, a background refresh daemon, per-view freshness SLOs
* ``repro.workloads`` — TPC-D-style schema, data, update and view generators
* ``repro.bench``     — drivers for the paper's §7 figures and tables (plan
  costs and selections; end-to-end timings are measured by ``perf/``)
* ``repro.api``       — the public façade: one :class:`Warehouse` session
  object plus the fluent :class:`Q` view builder

The supported entry point is the façade::

    from repro import Q, Warehouse, WarehouseConfig

    wh = Warehouse(WarehouseConfig.profile("paper")).load(scale=0.1)
    wh.define_view(
        "revenue",
        Q.table("lineitem").join("orders").join("customer").join("nation")
         .group_by("n_name").sum("l_extendedprice", "revenue"),
    )
    result = wh.optimize()
    print(wh.explain("revenue"))
"""

from repro.api import (
    Q,
    FreshnessSLO,
    OptimizationResult,
    RefreshReport,
    ServedResult,
    ServingClosedError,
    ServingError,
    ServingSession,
    StaleReadError,
    Staleness,
    StreamClosedError,
    StreamPolicy,
    StreamSession,
    TickDecision,
    UpdateSpec,
    Warehouse,
    WarehouseConfig,
    WarehouseError,
    WarehouseRefreshReport,
    as_expression,
)

__version__ = "1.2.0"

__all__ = [
    # The public façade.
    "Warehouse",
    "WarehouseConfig",
    "WarehouseError",
    "WarehouseRefreshReport",
    "Q",
    "as_expression",
    "UpdateSpec",
    "RefreshReport",
    "OptimizationResult",
    # Streaming ingest (Warehouse.stream()).
    "StreamSession",
    "StreamPolicy",
    "TickDecision",
    "StreamClosedError",
    # Concurrent serving (Warehouse.serve()).
    "ServingSession",
    "ServedResult",
    "FreshnessSLO",
    "Staleness",
    "ServingError",
    "ServingClosedError",
    "StaleReadError",
    # The substrate packages (importable for tests and advanced use).
    "api",
    "catalog",
    "storage",
    "algebra",
    "engine",
    "optimizer",
    "mqo",
    "maintenance",
    "workloads",
    "bench",
    "stream",
    "serving",
]
