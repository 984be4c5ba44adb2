"""The concurrent serving session: ``Warehouse.serve()``.

A :class:`ServingSession` turns a loaded warehouse into something a client
swarm can query while updates keep arriving:

    with wh.serve() as session:
        session.ingest(0.02)                   # non-blocking: queued
        result = session.query("v_revenue")    # snapshot-isolated read
        print(result.version, result.degraded)
        print(session.freshness("v_revenue"))  # rounds/rows/seconds behind
    print(session.explain_serving())           # the full decision trace

Division of labor with :mod:`repro.serving`:

* the **daemon** (one background thread) owns every engine mutation: it
  drives the same :class:`~repro.api.stream.IngestPipeline` a stream
  session drives on its caller thread — batch resolution, scheduler ticks,
  refresh flushes — and publishes a snapshot after each flush, so the
  database and refresher stay single-threaded;
* **client threads** only enqueue ingests and read published snapshots;
  :meth:`query` pins a snapshot version for the duration of the read, so
  it can never observe torn or mid-refresh state;
* the per-view :class:`~repro.serving.FreshnessSLO` is enforced by the
  daemon as a hard bound over the stream scheduler's, and by
  :meth:`query` as admission control (``serve-stale`` / ``block`` /
  ``reject``) for the window where the daemon has fallen behind anyway.

A daemon refresh commits or rolls back like every refresh.  A failed one
stops the daemon and surfaces as a :class:`~repro.api.errors.ServingError`
in the next client call; the warehouse stays at its last commit — the last
published snapshot — so a new ``serve()``, ``stream()`` or ``apply()`` on
it works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.algebra.expressions import base_relations
from repro.api.errors import (
    ServingClosedError,
    ServingError,
    StaleReadError,
    unknown_name,
)
from repro.api.stream import IngestPipeline
from repro.api.warehouse import UpdateBatch
from repro.serving import (
    DaemonCrash,
    FreshnessSLO,
    IngestOverflow,
    RefreshDaemon,
    SnapshotHandle,
    SnapshotManager,
    Staleness,
    validate_read_policy,
)
from repro.serving.sync import Mutex
from repro.storage.delta import DeltaStore
from repro.storage.relation import Relation
from repro.stream import StreamPolicy

#: The freshness SLO of every view ``serve()`` is not given one for: at most
#: eight ingested-but-unapplied update rounds behind.
DEFAULT_SLO = FreshnessSLO(max_rounds=8)


@dataclass(frozen=True)
class ServedResult:
    """One snapshot-isolated read: the contents plus their freshness story."""

    #: The view the read was for.
    view: str
    #: The view contents as of the pinned snapshot (immutable by contract).
    relation: Relation
    #: Monotonic snapshot version the read was served from.
    version: int
    #: Ingested update rounds reflected in the served contents.
    as_of_round: int
    #: Whether the serve violated the view's freshness SLO.
    degraded: bool
    #: Why the read is degraded (``None`` when within the SLO).
    degraded_reason: Optional[str]
    #: The staleness measured at admission time.
    staleness: Staleness

    def __len__(self) -> int:
        return len(self.relation)


class ServingSession:
    """A thread-safe serving façade over one :class:`~repro.api.Warehouse`.

    Create it with :meth:`Warehouse.serve`; any number of threads may call
    :meth:`query` / :meth:`ingest` / :meth:`freshness` concurrently.  While
    the session is open it owns the warehouse's engine — do not interleave
    ``apply()`` / ``stream()`` calls on the same warehouse.
    """

    def __init__(
        self,
        warehouse,
        policy: StreamPolicy,
        *,
        read_policy: Optional[str] = None,
        slo: Optional[FreshnessSLO] = None,
        slos: Optional[Mapping[str, FreshnessSLO]] = None,
    ) -> None:
        self._warehouse = warehouse
        config = warehouse.config
        self.read_policy = validate_read_policy(
            config.serving_read_policy if read_policy is None else read_policy
        )
        self._default_slo = DEFAULT_SLO if slo is None else slo
        self._slos: Dict[str, FreshnessSLO] = dict(slos or {})
        for view in self._slos:
            if view not in warehouse._views:
                raise unknown_name("view", view, warehouse._views, hint="(in slos=)")
        self._block_timeout = config.serving_block_timeout_seconds

        self._view_bases = {
            name: frozenset(base_relations(expr))
            for name, expr in warehouse._views.items()
        }
        # Materialize any missing views before the daemon thread starts:
        # the first snapshot needs contents.
        self._materialize_missing(warehouse._require_database())

        self._mutex = Mutex()
        self._closed = False
        #: Reads shed by the ``reject`` policy / served degraded (counters).
        self.degraded_reads = 0
        self.rejected_reads = 0
        self.shed_ingests = 0
        #: Validates on the caller thread; ticks and flushes on the daemon
        #: thread (delta generation reads the database).
        self._pipeline = IngestPipeline(warehouse, policy)

        self.snapshots = SnapshotManager()
        self.daemon = RefreshDaemon(
            pipeline=self._pipeline,
            snapshots=self.snapshots,
            capture=self._capture_views,
            views_of=self._views_touched,
            slo_for=self.slo_for,
            view_names=list(warehouse._views),
            queue_capacity=config.serving_queue_capacity,
            tick_seconds=config.serving_tick_seconds,
        )
        # Version 1, as of round 0: the pre-stream contents every reader can
        # pin even before the first ingest.
        self.snapshots.publish(self._capture_views(), 0)
        self.daemon.start()

    def _materialize_missing(self, database) -> None:
        warehouse = self._warehouse
        if all(database.has_view(name) for name in warehouse._views):
            return
        from repro.maintenance.maintainer import ViewRefresher

        refresher = ViewRefresher(
            database,
            warehouse._views,
            physical_executor=warehouse._runtime,
        )
        refresher.ensure_views()

    # ------------------------------------------------------------------- SLOs

    def slo_for(self, view: str) -> FreshnessSLO:
        """The freshness SLO governing one view."""
        return self._slos.get(view, self._default_slo)

    def freshness(self, view: str) -> Staleness:
        """How far the view currently trails the ingested stream."""
        self._require_open()
        self._check_view(view)
        try:
            return self.daemon.staleness(view)
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc

    # ------------------------------------------------------------------- read

    def query(self, view: str, *, read_policy: Optional[str] = None) -> ServedResult:
        """One snapshot-isolated read of a served view.

        Admission control runs first: if the view's staleness violates its
        SLO, the read policy decides — ``serve-stale`` serves anyway with
        ``degraded=True``, ``block`` waits for a fresh-enough snapshot (up
        to the configured timeout, then degrades), ``reject`` raises
        :class:`~repro.api.errors.StaleReadError`.  The returned contents
        are always one atomic snapshot version, never torn state.
        """
        self._require_open()
        self._check_view(view)
        policy = (
            self.read_policy if read_policy is None else validate_read_policy(read_policy)
        )
        slo = self.slo_for(view)
        try:
            staleness = self.daemon.staleness(view)
            reason = slo.violation(staleness)
            if reason is not None and policy == "block":
                if self.daemon.wait_until_fresh(view, slo, self._block_timeout):
                    staleness = self.daemon.staleness(view)
                    reason = slo.violation(staleness)
                else:
                    reason = f"{reason}; still stale after blocking {self._block_timeout:g}s"
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc
        if reason is not None and policy == "reject":
            with self._mutex:
                self.rejected_reads += 1
            raise StaleReadError(
                f"read of {view!r} shed: {reason} (policy 'reject'; "
                f"staleness {staleness.render()})"
            )
        degraded = reason is not None
        if degraded:
            with self._mutex:
                self.degraded_reads += 1
        with self.pin() as handle:
            return ServedResult(
                view=view,
                relation=handle.view(view),
                version=handle.version,
                as_of_round=handle.as_of_round,
                degraded=degraded,
                degraded_reason=reason,
                staleness=staleness,
            )

    def pin(self) -> SnapshotHandle:
        """Pin the current snapshot for a multi-read transaction.

        Every :meth:`~repro.serving.SnapshotHandle.view` read through the
        handle sees the same version no matter how many refreshes commit
        concurrently; close the handle (or use ``with``) to release it.
        """
        self._require_open()
        return self.snapshots.pin()

    # ------------------------------------------------------------------ write

    def ingest(self, batch: Optional[UpdateBatch] = None, *, seed: Optional[int] = None) -> int:
        """Queue one update round for the refresh daemon; returns its ticket.

        Non-blocking: validation happens here (so malformed batches fail in
        the calling thread), resolution and refresh happen on the daemon
        thread.  A full write queue sheds the ingest with
        :class:`~repro.api.errors.ServingError`.
        """
        self._require_open()
        self._pipeline.validate(batch)
        rows_hint = batch.total_rows() if isinstance(batch, DeltaStore) else 0
        try:
            return self.daemon.submit(batch, seed, rows_hint=rows_hint)
        except IngestOverflow as exc:
            with self._mutex:
                self.shed_ingests += 1
            raise ServingError(str(exc)) from exc
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc

    def flush(self, timeout: Optional[float] = None) -> None:
        """Force a refresh of everything queued and pending, synchronously."""
        self._require_open()
        try:
            seq = self.daemon.request_flush()
            if not self.daemon.wait_processed(seq, timeout=timeout):
                if timeout is None or self.closed:
                    raise ServingClosedError(
                        "the session closed before the flush ran"
                    )
                raise ServingError(
                    f"flush did not complete within {timeout:g}s"
                )
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued ingest has been resolved and ticked."""
        self._require_open()
        try:
            return self.daemon.drain(timeout=timeout)
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc

    # -------------------------------------------------------------- lifecycle

    def pause(self) -> None:
        """Freeze the daemon (test hook: staleness builds deterministically)."""
        self._require_open()
        self.daemon.pause()

    def resume(self) -> None:
        self._require_open()
        self.daemon.resume()

    def close(self) -> None:
        """Drain the queue, flush pending rounds, stop the daemon.

        Idempotent; a refresh failure during the final flush surfaces here
        as a :class:`~repro.api.errors.ServingError`.
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        self.daemon.stop(drain=True)
        try:
            self.daemon.check()
        except DaemonCrash as exc:
            raise ServingError(str(exc)) from exc

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # Mirror StreamSession: after an error, do not flush pending
            # work the caller may no longer want applied.
            with self._mutex:
                already = self._closed
                self._closed = True
            if not already:
                self.daemon.stop(drain=False)

    # ------------------------------------------------------------ inspection

    @property
    def reports(self) -> List:
        """Refresh reports of every daemon flush so far, in order."""
        return list(self._pipeline.reports)

    @property
    def current_version(self) -> int:
        return self.snapshots.current_version

    @property
    def as_of_round(self) -> int:
        """Ingested rounds reflected in the currently published snapshot."""
        return self.snapshots.current_round

    def explain_serving(self) -> str:
        """Human-readable decision trace of the whole serving session.

        The scheduler's per-tick refresh-or-defer trace, the daemon's event
        log (SLO overrides, forced flushes, snapshot publishes), and the
        admission/snapshot counters.
        """
        daemon_stats = self.daemon.stats()
        snap = self.snapshots.stats()
        lines = [
            f"serving policy: {self.read_policy}, default SLO "
            f"{self._default_slo.render()}",
        ]
        for view in sorted(self._slos):
            lines.append(f"  SLO override {view}: {self._slos[view].render()}")
        lines.append(self._pipeline.scheduler.render_trace())
        lines.append("daemon events:")
        lines.extend("  " + line for line in self.daemon.render_events().splitlines())
        lines.append(
            f"daemon: {daemon_stats.ticks} ticks, {daemon_stats.flushes} flushes "
            f"({daemon_stats.skipped_flushes} skipped — annihilated), "
            f"{daemon_stats.slo_overrides} SLO overrides, "
            f"{daemon_stats.timeout_flushes} idle-tick flushes, "
            f"queue peak {daemon_stats.queue_peak}"
        )
        lines.append(
            f"snapshots: {snap.published} published, {snap.retired} retired, "
            f"{snap.live_versions} live (current v{snap.current_version}, "
            f"{snap.pinned_readers} pinned readers)"
        )
        lines.append(
            f"reads: {self.degraded_reads} degraded, {self.rejected_reads} "
            f"rejected; ingests shed: {self.shed_ingests}"
        )
        return "\n".join(lines)

    # ----------------------------------------------------- daemon-side closures

    def _capture_views(self) -> Dict[str, Relation]:
        """Daemon thread: the view contents the next snapshot publishes."""
        database = self._warehouse._require_database()
        return {
            name: database.view(name)
            for name in self._warehouse._views
            if database.has_view(name)
        }

    def _views_touched(self, deltas: DeltaStore) -> List[str]:
        touched = {
            relation
            for relation in deltas.relation_order
            if deltas.has_updates(relation)
        }
        return [
            name for name, bases in self._view_bases.items() if bases & touched
        ]

    # ----------------------------------------------------------------- guards

    def _check_view(self, view: str) -> None:
        if view not in self._view_bases:
            raise unknown_name("view", view, self._view_bases)

    def _require_open(self) -> None:
        with self._mutex:
            closed = self._closed
        if closed:
            raise ServingClosedError(
                "this serving session is closed — open a new one with "
                "Warehouse.serve()"
            )
