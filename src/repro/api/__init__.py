"""Public API: one session façade over the select–maintain–refresh pipeline.

This package is the supported way to drive the reproduction:

* :class:`Warehouse` — the session object owning catalog, database,
  estimator, maintenance optimizer and refresher;
* :class:`WarehouseConfig` — every knob in one validated dataclass, with
  named profiles (``paper``, ``fast``, ``verify``);
* :class:`Q` — the fluent view builder compiling to the logical algebra;
* :class:`StreamSession` / :class:`StreamPolicy` — streaming ingest with
  delta coalescing and staleness-bounded deferred refresh
  (``Warehouse.stream()``);
* :class:`ServingSession` / :class:`FreshnessSLO` — the concurrent serving
  tier: snapshot-isolated reads, a background refresh daemon, per-view
  staleness SLOs with degradation policies (``Warehouse.serve()``);
* :class:`WarehouseError` — everything the façade raises on user mistakes,
  always naming near-miss candidates for unknown names;
* :class:`Diagnostic` — one static-analysis finding (code, severity,
  message, path, hint), as produced by the expression analyzer behind
  ``define_view`` and exposed through ``Warehouse.provenance()``.

The lower-level modules (``repro.maintenance``, ``repro.engine``, ...)
remain importable for tests and advanced use, but examples and benchmarks
construct the pipeline exclusively through this package.
"""

from repro.analysis import ColumnProvenance, Diagnostic
from repro.api.builder import Q, as_expression
from repro.api.config import WarehouseConfig
from repro.api.errors import (
    ServingClosedError,
    ServingError,
    StaleReadError,
    StreamClosedError,
    WarehouseError,
)
from repro.api.serving import ServedResult, ServingSession
from repro.api.stream import StreamSession
from repro.api.warehouse import (
    UpdateBatch,
    Warehouse,
    WarehouseRefreshReport,
)
from repro.maintenance.maintainer import RefreshReport
from repro.maintenance.optimizer import OptimizationResult
from repro.maintenance.update_spec import UpdateSpec
from repro.serving import FreshnessSLO, SnapshotHandle, Staleness
from repro.stream import StreamPolicy, TickDecision

__all__ = [
    "Q",
    "as_expression",
    "ColumnProvenance",
    "Diagnostic",
    "FreshnessSLO",
    "OptimizationResult",
    "RefreshReport",
    "ServedResult",
    "ServingClosedError",
    "ServingError",
    "ServingSession",
    "SnapshotHandle",
    "StaleReadError",
    "Staleness",
    "StreamClosedError",
    "StreamPolicy",
    "StreamSession",
    "TickDecision",
    "UpdateBatch",
    "UpdateSpec",
    "Warehouse",
    "WarehouseConfig",
    "WarehouseError",
    "WarehouseRefreshReport",
]
