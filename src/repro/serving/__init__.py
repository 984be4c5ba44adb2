"""The concurrent serving layer: snapshot reads, refresh daemon, SLOs.

The ROADMAP's production framing needs more than a single-caller
``Warehouse``: a serving tier where many reader threads query materialized
views while a background daemon keeps them fresh.  This package is that
tier, in three pieces:

* :class:`SnapshotManager` / :class:`SnapshotHandle` — versioned
  copy-on-write view snapshots, published atomically at each refresh
  commit; readers pin a version and can never observe torn state;
* :class:`RefreshDaemon` — the single writer: a background thread driving
  the session's ingest pipeline (the one ``Warehouse.stream()`` drives on
  the caller thread), fed by a bounded write queue so ``ingest()`` never
  blocks on refresh work; it stops on its first failed refresh, which has
  rolled back to the last published snapshot;
* :class:`FreshnessSLO` / :class:`Staleness` — per-view staleness bounds
  (rounds / rows / seconds) layered as hard limits over the stream
  policy's deferral, plus the read admission policies (``serve-stale`` /
  ``block`` / ``reject``) applied when the daemon falls behind anyway.

The public entry point is :meth:`repro.api.Warehouse.serve`; this package
never imports the façade.  It is also the only place allowed to touch
:mod:`threading` (the REPRO-L009 lint);
everything else borrows primitives from :mod:`repro.serving.sync`.
"""

from repro.serving.daemon import (
    DaemonCrash,
    DaemonStats,
    IngestOverflow,
    RefreshDaemon,
)
from repro.serving.slo import (
    READ_POLICIES,
    FreshnessSLO,
    Staleness,
    validate_read_policy,
)
from repro.serving.snapshot import (
    SnapshotError,
    SnapshotHandle,
    SnapshotManager,
    SnapshotStats,
)

__all__ = [
    "DaemonCrash",
    "DaemonStats",
    "FreshnessSLO",
    "IngestOverflow",
    "READ_POLICIES",
    "RefreshDaemon",
    "SnapshotError",
    "SnapshotHandle",
    "SnapshotManager",
    "SnapshotStats",
    "Staleness",
    "validate_read_policy",
]
