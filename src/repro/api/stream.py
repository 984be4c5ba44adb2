"""The streaming ingest session: ``Warehouse.stream()``.

A :class:`StreamSession` is the front door to :mod:`repro.stream`: update
batches are ingested instead of applied, buffered (and coalesced) in a
:class:`~repro.stream.PendingDeltas`, and flushed into one refresh when the
:class:`~repro.stream.StreamScheduler` sees a staleness bound reached — or
when an explicit :meth:`flush` or ``close()`` forces it::

    with wh.stream() as session:
        for batch in update_source:
            session.ingest(batch)          # refreshes at a staleness bound
    print(session.explain_schedule())      # the full decision trace

The validate → tick → flush sequence is one :class:`IngestPipeline` with
three drivers: ``Warehouse.apply()`` (a transient eager pipeline, one round
per call), :class:`StreamSession` on the caller thread, and the serving
:class:`~repro.serving.RefreshDaemon` on its own thread for
``Warehouse.serve()``.

A flush commits or changes nothing: a failed flush leaves the database at
its last commit and its rounds pending, so the session stays open and the
next flush refreshes them once.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.api.errors import StreamClosedError, WarehouseError, unknown_name
from repro.api.warehouse import UpdateBatch
from repro.serving.sync import Mutex
from repro.storage.delta import DeltaStore
from repro.storage.relation import Row
from repro.stream import StreamPolicy, StreamScheduler, TickDecision
from repro.workloads import updategen


class IngestPipeline:
    """The one validate → tick → flush pipeline behind ``apply()``,
    ``stream()`` and ``serve()``.

    ``apply()`` drives a transient pipeline under ``StreamPolicy.always()``
    for one round; a stream session and the serving daemon each drive one
    for their lifetime.  :meth:`validate` is stateless and safe on any
    thread, and every rejection happens there, so a rejected batch changes
    nothing.  :meth:`tick` and :meth:`flush` own the scheduler, the tick
    counter, the pending-delete pool and the counters below, so exactly one
    thread (the caller, under the stream mutex, or the refresh daemon) may
    run them.  Key sequences are tracked warehouse-wide (``_issued_keys`` on
    the :class:`Warehouse`), so apply() batches and every session's ingests
    share one key space.
    """

    def __init__(self, warehouse, policy: StreamPolicy) -> None:
        self._warehouse = warehouse
        self.scheduler = StreamScheduler(policy)
        self._ticks = 0
        #: Rows already marked for deletion by pending rounds (never delete
        #: a tuple twice); every committed :meth:`flush` resets it.
        self._pending_deletes: Dict[str, List[Row]] = {}
        #: Refresh reports of every flush, in order.
        self.reports: List = []
        #: Flushes skipped because the pending deltas annihilated to nothing.
        self.skipped_flushes = 0
        #: Tuples annihilated by coalescing across the pipeline's lifetime.
        self.annihilated_rows = 0

    def validate(self, batch: Optional[UpdateBatch]) -> None:
        """Reject a batch that cannot refresh, before it changes anything.

        A failed flush keeps its rounds pending, so a malformed round that
        got into the buffer would fail every later flush.  A caller's
        :class:`DeltaStore` must name loaded relations, pass the static
        round check (``verify_delta_round``: ``REPRO-P005`` for a bag logged
        against a stale schema) and carry the table's arity in every bag —
        even empty ones, since the pending buffer adopts the first round's
        bags as its schema templates.  The round check covers input from
        outside the program, so it runs whatever ``verify_plans`` says.
        """
        wh = self._warehouse
        database = wh._require_database()
        if not wh._views:
            raise WarehouseError("no views defined — call define_view() first")
        if not isinstance(batch, DeltaStore):
            # Raises the façade's error for unsupported batch types.
            wh._batch_spec(batch)
            return
        for delta in batch:
            if not database.has_relation(delta.relation):
                raise unknown_name(
                    "relation",
                    delta.relation,
                    database.table_names(),
                    hint="(in update batch)",
                )
        # Imported per call, so a wrapper installed on the package attribute
        # (perf/tracing.py times this check) sees every call.
        from repro.analysis import render_diagnostics, verify_delta_round
        from repro.analysis.diagnostics import errors

        bad = errors(verify_delta_round(batch, database))
        if bad:
            raise WarehouseError(
                "update batch failed static verification:\n"
                + render_diagnostics(bad)
            )
        for delta in batch:
            arity = len(database.table(delta.relation).schema)
            for bag in (delta.inserts, delta.deletes):
                if len(bag.schema) != arity:
                    raise WarehouseError(
                        f"delta bag for {delta.relation!r} has arity "
                        f"{len(bag.schema)}, the table expects {arity} "
                        f"(in update batch)"
                    )

    def tick(
        self, batch: Optional[UpdateBatch], seed: Optional[int]
    ) -> Tuple[DeltaStore, TickDecision]:
        """Resolve one (validated) ingest into concrete deltas (reading the
        database) and return them with the scheduler's verdict on them."""
        wh = self._warehouse
        self._ticks += 1
        if isinstance(batch, DeltaStore):
            deltas = batch
        else:
            spec = wh._batch_spec(batch)
            relations = wh.view_relations
            # Vary the seed per tick (identical consecutive rounds would
            # delete the same sampled tuples twice), exclude already-pending
            # deletes, and continue key sequences past the warehouse
            # high-water mark.
            tick_seed = (wh.config.seed + self._ticks) if seed is None else seed
            deltas = updategen.generate_deltas(
                wh._require_database(),
                spec.restricted_to(relations),
                relations,
                seed=tick_seed,
                exclude_deletes=self._pending_deletes,
                key_offsets=wh._key_offsets(relations),
            )
        # Caller-supplied inserts consume key space too — advance the
        # high-water mark so a later *generated* batch cannot restart its
        # key sequences underneath these pending rows.
        wh._advance_issued_keys(deltas)
        for delta in deltas:
            if len(delta.deletes):
                self._pending_deletes.setdefault(delta.relation, []).extend(
                    delta.deletes.rows
                )
        return deltas, self.scheduler.ingest(deltas)

    def flush(self):
        """Refresh everything pending; it commits or changes nothing.

        Returns the refresh report, or ``None`` when nothing survived
        coalescing.  A commit resets the delete pool; the issued-keys
        high-water mark deliberately survives.  A failed refresh rolls the
        database back (``Warehouse._refresh_rounds``, called from here and
        nowhere else) and leaves the pending buffer, the delete pool and the
        counters as they were before the call, so the next flush refreshes
        the same rounds once.  A ``refresh`` verdict that triggered the
        failed flush is rewritten to ``defer`` in the decision trace.
        """
        # take() leaves a shallow copy of the buffer intact (see its
        # docstring): that copy is what a failed refresh puts back.
        before = copy.copy(self.scheduler.pending)
        rounds = self.scheduler.pending.take()
        report = None
        if rounds:
            try:
                report = self._warehouse._refresh_rounds(rounds)
            except Exception as exc:
                self.scheduler.pending = before
                decisions = self.scheduler.decisions
                if decisions and decisions[-1].refreshes:
                    self.scheduler.override_last(
                        "defer", f"refresh rolled back: {type(exc).__name__}"
                    )
                raise
            self.reports.append(report)
        elif before.batches:
            # Batches were pending but coalesced to nothing — the
            # "insert-then-delete annihilates" fast path: no refresh.
            self.skipped_flushes += 1
        self.annihilated_rows += before.annihilated_rows
        self._pending_deletes = {}
        return report


class StreamSession:
    """One streaming ingest session over a :class:`~repro.api.Warehouse`.

    Create it with :meth:`Warehouse.stream`; use it as a context manager so
    pending deltas are flushed on exit.  It drives an :class:`IngestPipeline`
    and adds the lifecycle: a mutex and the closed flag.
    """

    def __init__(self, warehouse, policy: StreamPolicy) -> None:
        self.policy = policy
        self._pipeline = IngestPipeline(warehouse, policy)
        self._closed = False
        #: Serializes ingest/flush/close: the session is not a concurrent
        #: object (use ``Warehouse.serve()`` for that), but lifecycle races
        #: must stay deterministic — a ``flush()`` racing a ``close()``
        #: either completes first or raises ``StreamClosedError``, never
        #: double-flushes or interleaves half-taken pending state.
        self._mutex = Mutex()

    # ---------------------------------------------------------------- ingest

    def ingest(
        self, batch: Optional[UpdateBatch] = None, *, seed: Optional[int] = None
    ) -> TickDecision:
        """Absorb one update batch; refresh only if the policy says so.

        ``batch`` takes the same shapes as ``Warehouse.apply()``: a concrete
        :class:`DeltaStore`, an :class:`UpdateSpec`, a plain update fraction,
        or nothing (the config's default percentage).  Returns the
        scheduler's :class:`~repro.stream.TickDecision`; when it says
        ``refresh`` the flush has already happened (see :attr:`reports`).
        If that flush fails, the batch stays ingested and pending (as after
        a failed :meth:`flush`) and the error propagates.
        """
        with self._mutex:
            self._require_open()
            self._pipeline.validate(batch)
            _, decision = self._pipeline.tick(batch, seed)
            if decision.refreshes:
                self._pipeline.flush()
            return decision

    # ----------------------------------------------------------------- flush

    def flush(self):
        """Force a refresh of everything pending.

        Returns the :class:`~repro.api.WarehouseRefreshReport`, or ``None``
        when there was nothing to refresh (nothing ingested, or every
        pending tuple annihilated during coalescing).

        A failed flush rolls back: the database stays at its last commit,
        the rounds stay pending, the session stays open, and the error
        propagates.  Calling ``flush()`` again refreshes the rounds once.

        ``flush()`` and ``close()`` are mutually exclusive: under a race,
        whichever enters second waits, and a flush that arrives after the
        close completed raises :class:`StreamClosedError` deterministically
        instead of double-flushing.
        """
        with self._mutex:
            self._require_open()
            return self._pipeline.flush()

    def close(self):
        """Flush pending deltas and retire the session.

        Idempotent and safe under a racing :meth:`flush`: both serialize on
        the session mutex, so exactly one of them performs the final flush
        and a second ``close()`` is a no-op returning ``None``.  If the
        final flush fails, the session stays open with its rounds pending;
        leaving a ``with`` block on an exception closes it without
        flushing, which is how pending rounds are dropped.
        """
        with self._mutex:
            if self._closed:
                return None
            report = self._pipeline.flush()
            self._closed = True
            return report

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Flush only on clean exit: after an error the pending deltas may
        # describe state the caller no longer wants applied.
        if exc_type is None:
            self.close()
        else:
            with self._mutex:
                self._closed = True

    # ------------------------------------------------------------ inspection

    @property
    def closed(self) -> bool:
        """Whether the session was closed (closed sessions reject ingests)."""
        return self._closed

    @property
    def reports(self) -> List:
        """Refresh reports of every flush, in order."""
        return self._pipeline.reports

    @property
    def skipped_flushes(self) -> int:
        """Flushes skipped because the pending deltas annihilated to nothing."""
        return self._pipeline.skipped_flushes

    @property
    def annihilated_rows(self) -> int:
        """Tuples annihilated by coalescing across the session's lifetime."""
        return self._pipeline.annihilated_rows

    @property
    def pending_rows(self) -> int:
        """Tuples a flush would currently propagate (after coalescing)."""
        return self._pipeline.scheduler.pending.pending_rows()

    @property
    def pending_batches(self) -> int:
        """Update rounds deferred since the last flush."""
        return self._pipeline.scheduler.pending.batches

    @property
    def decisions(self) -> List[TickDecision]:
        """Every scheduler decision so far (the explain trace)."""
        return list(self._pipeline.scheduler.decisions)

    def explain_schedule(self) -> str:
        """Human-readable decision trace, like ``Warehouse.explain()``.

        One line per tick (arrived/pending/annihilated rows, the verdict and
        its reason), followed by a
        summary of what the flushes actually did.
        """
        lines = [self._pipeline.scheduler.render_trace()]
        total_changes = sum(report.total_changes() for report in self.reports)
        recomputes = sum(len(report.recomputed_views) for report in self.reports)
        flushed_rounds = sum(getattr(report, "rounds", 1) for report in self.reports)
        summary = (
            f"flushes: {len(self.reports)} ({flushed_rounds} "
            f"{'round' if flushed_rounds == 1 else 'rounds'} refreshed, "
            f"{total_changes} view tuples changed incrementally, "
            f"{recomputes} view recomputations"
        )
        if self.skipped_flushes:
            summary += f", {self.skipped_flushes} flushes skipped — fully annihilated"
        lines.append(summary + ")")
        return "\n".join(lines)

    # ----------------------------------------------------------------- guard

    def _require_open(self) -> None:
        if self._closed:
            raise StreamClosedError(
                "this stream session is closed — open a new one with "
                "Warehouse.stream()"
            )
