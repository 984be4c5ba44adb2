"""Streaming update ingestion: delta coalescing + bounded deferred refresh.

The paper's optimizer decides *what* to materialize by pricing maintenance
work; this package adds the time dimension — *when* to pay that work under a
continuous update stream:

* :class:`PendingDeltas` — the buffer between update producers and the
  refresher, coalescing consecutive rounds (insert/delete annihilation,
  N rounds → one bag) so one refresh replaces many;
* :class:`StreamPolicy` / :class:`StreamScheduler` — per-tick refresh-or-defer
  decisions: a coalesced flush never costs more than eager replay, so a
  deferring policy flushes when a staleness bound (``max_rows``,
  ``max_batches``) is reached;
* :class:`TickDecision` — one trace entry, rendered by
  ``Warehouse.stream().explain_schedule()``.

The public entry point is :meth:`repro.api.Warehouse.stream`.
"""

from repro.stream.pending import PendingDeltas
from repro.stream.scheduler import StreamPolicy, StreamScheduler, TickDecision

__all__ = [
    "PendingDeltas",
    "StreamPolicy",
    "StreamScheduler",
    "TickDecision",
]
