"""The background refresh daemon: the serving driver of the ingest pipeline.

:class:`RefreshDaemon` is the single writer of the serving layer.  Client
threads :meth:`submit` update batches into a bounded FIFO write queue and
return immediately; the daemon thread dequeues them in order and drives
the session's ingest pipeline — the same object a stream session drives on
its caller thread (``repro.api.stream.IngestPipeline``).  ``pipeline.tick``
resolves a batch into concrete deltas and runs the
:class:`~repro.stream.StreamScheduler` tick; when the scheduler's staleness
bound (or a :class:`~repro.serving.slo.FreshnessSLO`) says the views may
fall no further behind, ``pipeline.flush()`` refreshes the pending rounds
and the daemon publishes a new
:class:`~repro.serving.snapshot.SnapshotManager` version.

Because *all* resolution, refresh and publication happens on this one
thread, the engine underneath (database, refresher, key
high-water marks) stays effectively single-threaded: readers only ever
touch published snapshots, never the live views.  The daemon holds one
mutex for its queue/staleness bookkeeping and never calls into the engine
while holding it.

The SLO is layered *over* the stream policy's bounds: after
each tick, if any view's staleness exceeds its SLO and the scheduler said
``defer``, the daemon overrides the verdict to ``refresh`` (the decision
trace records the override and its reason).  Time-based bounds
(``max_seconds``) are additionally checked on an idle tick every
``tick_seconds``, so a quiet queue cannot let a pending round age past its
promise.

Failure model mirrors the stream session: the refresh path is
non-transactional, so any exception on the daemon thread **poisons the
daemon** — the crash is captured, the thread exits, and the next client
call observes it through :meth:`check` (the session translates it into a
``ServingError``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, List, Mapping, Optional, Sequence, Tuple

from repro.serving.slo import FreshnessSLO, Staleness
from repro.serving.snapshot import SnapshotManager
from repro.serving.sync import Condition, Mutex, Thread
from repro.storage.delta import DeltaStore
from repro.storage.relation import Relation


class DaemonCrash(RuntimeError):
    """The refresh daemon died; the original exception is the ``__cause__``."""


class IngestOverflow(RuntimeError):
    """The write queue is full — the ingest was shed, nothing was enqueued."""


@dataclass
class _Command:
    """One queued client request (an update round, or an explicit flush)."""

    kind: str  # "ingest" | "flush"
    seq: int
    enqueued_at: float
    batch: object = None
    seed: Optional[int] = None
    #: Known delta rows at enqueue time (0 for specs, resolved at tick time).
    rows_hint: int = 0


@dataclass
class _TickedRound:
    """One round the scheduler absorbed but a flush has not yet applied."""

    enqueued_at: float
    rows: int
    views: Tuple[str, ...]


@dataclass
class DaemonStats:
    """Counters ``explain_serving()`` renders."""

    ticks: int = 0
    flushes: int = 0
    skipped_flushes: int = 0
    slo_overrides: int = 0
    timeout_flushes: int = 0
    queue_peak: int = 0


class RefreshDaemon:
    """Background thread that owns ingestion, refresh and snapshot publish.

    The daemon is wired with the session's ingest pipeline and callables
    instead of a ``Warehouse`` so the serving package never imports the
    façade (the dependency points the other way):

    ``pipeline``
        The ingest pipeline, duck-typed: ``tick(batch, seed)`` resolves a
        queued batch and returns ``(deltas, decision)``, ``flush()``
        refreshes the pending rounds, ``scheduler.override_last`` rewrites
        a verdict, and ``reports`` / ``skipped_flushes`` count the flushes.
        Both calls run on the daemon thread and may read the database.
    ``capture()``
        The current view contents to publish as the next snapshot.
    ``views_of(deltas)``
        Which served views a round's relations feed (staleness accounting).
    ``slo_for(view)``
        The view's :class:`FreshnessSLO`.
    """

    def __init__(
        self,
        *,
        pipeline,
        snapshots: SnapshotManager,
        capture: Callable[[], Mapping[str, Relation]],
        views_of: Callable[[DeltaStore], Sequence[str]],
        slo_for: Callable[[str], FreshnessSLO],
        view_names: Sequence[str],
        queue_capacity: int = 1024,
        tick_seconds: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be positive, got {queue_capacity}")
        if tick_seconds <= 0:
            raise ValueError(f"tick_seconds must be positive, got {tick_seconds}")
        self.pipeline = pipeline
        self.snapshots = snapshots
        self._capture = capture
        self._views_of = views_of
        self._slo_for = slo_for
        self._view_names = list(view_names)
        self._capacity = queue_capacity
        self._tick_seconds = tick_seconds
        self._clock = clock

        self._mutex = Mutex()
        #: Signalled on every state change: enqueue, tick, flush, stop, crash.
        self._progress = Condition(self._mutex)
        self._queue: Deque[_Command] = deque()
        self._ticked: List[_TickedRound] = []
        self._enqueued_seq = 0
        self._processed_seq = 0
        self._as_of = 0
        self._paused = False
        self._stopping = False
        self._final_flush = False
        self._crash: Optional[BaseException] = None
        self._thread: Optional[Thread] = None

        #: Daemon-side decision log (SLO overrides, forced flushes, publishes).
        self.events: List[str] = []
        self._stats = DaemonStats()

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Start the refresh thread (call exactly once)."""
        if self._thread is not None:
            raise RuntimeError("refresh daemon already started")
        self._thread = Thread(
            target=self._run, name="repro-serving-refresh", daemon=True
        )
        self._thread.start()

    def stop(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the thread; with ``drain`` the queue is processed and pending
        rounds get a final flush first (mirrors ``StreamSession.close()``)."""
        with self._mutex:
            self._stopping = True
            self._paused = False
            if drain:
                self._final_flush = True
            else:
                self._queue.clear()
            self._progress.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def pause(self) -> None:
        """Freeze the daemon (queue keeps accepting; nothing ticks/flushes).

        Test hook: lets staleness build up deterministically so degradation
        policies can be exercised without timing races.
        """
        with self._mutex:
            self._paused = True
            self._progress.notify_all()

    def resume(self) -> None:
        with self._mutex:
            self._paused = False
            self._progress.notify_all()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------ client calls

    def check(self) -> None:
        """Surface a daemon crash into the calling thread (else no-op)."""
        with self._mutex:
            crash = self._crash
        if crash is not None:
            raise DaemonCrash(
                f"the refresh daemon crashed: {type(crash).__name__}: {crash}"
            ) from crash

    def submit(
        self, batch: object, seed: Optional[int], rows_hint: int = 0
    ) -> int:
        """Enqueue one update round; returns its sequence number.

        Non-blocking: raises :class:`IngestOverflow` when the queue is at
        capacity instead of waiting (deterministic shedding — the caller
        decides whether to retry, flush, or drop).
        """
        self.check()
        with self._mutex:
            if self._stopping:
                raise DaemonCrash("the refresh daemon is stopped")
            queued = sum(1 for c in self._queue if c.kind == "ingest")
            if queued >= self._capacity:
                raise IngestOverflow(
                    f"serving write queue is full ({self._capacity} rounds "
                    f"pending) — the ingest was shed"
                )
            return self._enqueue("ingest", batch=batch, seed=seed, rows_hint=rows_hint)

    def request_flush(self) -> int:
        """Enqueue an explicit flush barrier; returns its sequence number."""
        self.check()
        with self._mutex:
            if self._stopping:
                raise DaemonCrash("the refresh daemon is stopped")
            return self._enqueue("flush")

    def _enqueue(self, kind: str, **kwargs) -> int:
        self._enqueued_seq += 1
        command = _Command(
            kind=kind,
            seq=self._enqueued_seq,
            enqueued_at=self._clock(),
            **kwargs,
        )
        self._queue.append(command)
        self._stats.queue_peak = max(self._stats.queue_peak, len(self._queue))
        self._progress.notify_all()
        return command.seq

    def wait_processed(self, seq: int, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has processed command ``seq``.

        Returns ``False`` on timeout; raises :class:`DaemonCrash` if the
        daemon died before getting there.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._mutex:
            while self._processed_seq < seq:
                if self._crash is not None:
                    break
                if self._stopping and not self._queue:
                    break
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._progress.wait(timeout=remaining)
        self.check()
        with self._mutex:
            return self._processed_seq >= seq

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until everything enqueued so far has been processed."""
        with self._mutex:
            target = self._enqueued_seq
        return self.wait_processed(target, timeout=timeout)

    def staleness(self, view: str) -> Staleness:
        """The view's current staleness (queued + ticked, unflushed rounds)."""
        self.check()
        with self._mutex:
            return self._staleness_locked(view, self._clock())

    def wait_until_fresh(
        self, view: str, slo: FreshnessSLO, timeout: float
    ) -> bool:
        """Block until the view satisfies ``slo`` (or the timeout lapses).

        The block-until-fresh read policy.  Returns whether the view became
        fresh enough; a daemon crash while waiting raises.
        """
        deadline = self._clock() + timeout
        with self._mutex:
            while True:
                if self._crash is not None:
                    break
                staleness = self._staleness_locked(view, self._clock())
                if slo.satisfied_by(staleness):
                    return True
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._progress.wait(timeout=remaining)
        self.check()
        return False  # pragma: no cover - check() always raises here

    @property
    def as_of_round(self) -> int:
        """Ingested rounds reflected in the published snapshots so far."""
        with self._mutex:
            return self._as_of

    def stats(self) -> DaemonStats:
        """Point-in-time counters for ``explain_serving()``; the flush
        counters are the pipeline's."""
        with self._mutex:
            return replace(
                self._stats,
                flushes=len(self.pipeline.reports),
                skipped_flushes=self.pipeline.skipped_flushes,
            )

    # -------------------------------------------------------------- the thread

    def _run(self) -> None:
        try:
            while True:
                command: Optional[_Command] = None
                with self._mutex:
                    if self._queue and not self._paused:
                        command = self._queue.popleft()
                    elif self._stopping:
                        break
                    else:
                        self._progress.wait(timeout=self._tick_seconds)
                        if self._paused:
                            continue
                        # Idle wake: nothing queued, but pending rounds may
                        # have aged past a max_seconds bound.
                        if self._queue or not self._ticked:
                            continue
                if command is not None:
                    self._execute(command)
                else:
                    self._idle_tick()
            if self._final_flush:
                self._flush("final flush at close")
        except BaseException as exc:
            with self._mutex:
                self._crash = exc
                self._stopping = True
                self.events.append(
                    f"daemon crashed: {type(exc).__name__}: {exc}"
                )
                self._progress.notify_all()

    def _execute(self, command: _Command) -> None:
        if command.kind == "flush":
            self._flush("explicit flush requested")
        else:
            self._tick(command)
        with self._mutex:
            self._processed_seq = max(self._processed_seq, command.seq)
            self._progress.notify_all()

    def _tick(self, command: _Command) -> None:
        deltas, decision = self.pipeline.tick(command.batch, command.seed)
        views = tuple(self._views_of(deltas))
        with self._mutex:
            self._stats.ticks += 1
            self._ticked.append(
                _TickedRound(
                    enqueued_at=command.enqueued_at,
                    rows=deltas.total_rows(),
                    views=views,
                )
            )
            violation = None
            if not decision.refreshes:
                violation = self._slo_violation_locked(self._clock())
        if violation is not None:
            view, reason = violation
            decision = self.pipeline.scheduler.override_last(
                "refresh", f"freshness SLO on {view!r}: {reason}"
            )
            with self._mutex:
                self._stats.slo_overrides += 1
                self.events.append(
                    f"tick {self._stats.ticks}: overrode defer — SLO on "
                    f"{view!r}: {reason}"
                )
        if decision.refreshes:
            self._flush(decision.reason)

    def _idle_tick(self) -> None:
        """Queue was quiet for a full tick: enforce time-based SLOs."""
        with self._mutex:
            violation = self._slo_violation_locked(self._clock())
        if violation is not None:
            view, reason = violation
            with self._mutex:
                self._stats.timeout_flushes += 1
                self.events.append(
                    f"idle tick: forced flush — SLO on {view!r}: {reason}"
                )
            self._flush(f"freshness SLO on {view!r}: {reason}")

    def _flush(self, reason: str) -> None:
        self.pipeline.flush()
        with self._mutex:
            if not self._ticked:
                return
            self._as_of += len(self._ticked)
            self._ticked = []
            as_of = self._as_of
        version = self.snapshots.publish(self._capture(), as_of)
        with self._mutex:
            self.events.append(
                f"published snapshot v{version} as of round {as_of} [{reason}]"
            )
            self._progress.notify_all()

    # ---------------------------------------------------------- staleness math

    def _staleness_locked(self, view: str, now: float) -> Staleness:
        rounds = 0
        rows = 0
        oldest: Optional[float] = None
        for record in self._ticked:
            if view in record.views:
                rounds += 1
                rows += record.rows
                if oldest is None or record.enqueued_at < oldest:
                    oldest = record.enqueued_at
        for command in self._queue:
            if command.kind != "ingest":
                continue
            # Unresolved rounds conservatively count against every view.
            rounds += 1
            rows += command.rows_hint
            if oldest is None or command.enqueued_at < oldest:
                oldest = command.enqueued_at
        seconds = 0.0 if oldest is None else max(0.0, now - oldest)
        return Staleness(rounds=rounds, rows=rows, seconds=seconds)

    def _slo_violation_locked(self, now: float) -> Optional[Tuple[str, str]]:
        """First (view, reason) whose SLO the current staleness violates."""
        for view in self._view_names:
            slo = self._slo_for(view)
            if slo.unbounded:
                continue
            reason = slo.violation(self._staleness_locked(view, now))
            if reason is not None:
                return view, reason
        return None

    # -------------------------------------------------------------------- text

    def render_events(self) -> str:
        """The daemon-side event log, one line each."""
        with self._mutex:
            events = list(self.events)
        if not events:
            return "(no daemon events)"
        return "\n".join(events)
