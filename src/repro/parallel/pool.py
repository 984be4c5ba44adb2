"""Process pool running per-shard physical plans and delta propagation.

One worker per shard.  Each worker owns a shard database (its partition of
the sharded relations, full copies of the broadcast ones — see
:func:`repro.parallel.shard.shard_database`), a
:class:`~repro.engine.physical.PhysicalExecutor` over it, a
:class:`~repro.engine.differential.DifferentialEngine` with a worker-lifetime
:class:`~repro.engine.differential.OldValueCache`, and a registry of MQO
temporaries materialized once per shard.  The parent sends commands (pickled
expressions/relations over a duplex pipe), workers reply with per-shard
result relations, and the parent merges them through the plan's merge kernel.

Two executor modes share one worker implementation:

* ``"fork"`` — one ``multiprocessing`` process per shard, started with the
  ``fork`` method so the parent database is inherited copy-on-write instead
  of pickled.  All workers are dispatched before any reply is awaited, so
  shards genuinely execute concurrently.
* ``"inline"`` — the same ``_WorkerState`` objects driven sequentially in
  the parent process.  This is the portability/testing fallback (platforms
  without ``fork``) and is bag-identical to fork mode by construction.

Delta propagation stays exact: per-shard differentials are computed only for
``concat``-merge views (the differential of a linear select/project/join
expression is itself linear, so the per-shard δ bags concat to the serial
δ); aggregate views keep their serial differential in the parent.  Updates
against a sharded relation are partitioned with the same key function as the
base table, so co-partitioning survives every refresh round.
"""

from __future__ import annotations

import gc
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression
from repro.engine.database import Database
from repro.engine.differential import (
    DifferentialEngine,
    ExpressionDelta,
    OldValueCache,
)
from repro.engine.executor import MaterializedRegistry
from repro.parallel.shard import (
    MERGE_CONCAT,
    ShardPlan,
    ShardSpec,
    merge_concat,
    merge_shards,
    partition_relation,
    plan_shards,
)
from repro.storage.delta import DeltaKind
from repro.storage.relation import Relation

__all__ = ["ShardPool", "ShardPoolError"]


class ShardPoolError(RuntimeError):
    """A worker failed; carries the worker's traceback text."""


class _WorkerState:
    """Everything one shard worker owns; shared by fork and inline modes."""

    def __init__(self, database: Database, spec: ShardSpec, shard: int) -> None:
        from repro.engine.physical import PhysicalExecutor
        from repro.parallel.shard import shard_database

        self.database = shard_database(database, spec, shard)
        self.physical = PhysicalExecutor(self.database)
        self.engine = DifferentialEngine(self.database, physical=self.physical)
        self.registry = MaterializedRegistry()
        self.temporaries: Dict[str, Expression] = {}
        self.cache = OldValueCache()

    # ---------------------------------------------------------------- commands

    def handle(self, message: Tuple[Any, ...]) -> Any:
        command = message[0]
        if command == "ping":
            return message[1]
        if command == "eval":
            return [
                self.physical.evaluate(expression, self.registry)
                for _key, expression in message[1]
            ]
        if command == "temporaries":
            for name, expression in message[1]:
                if not self.database.has_view(name):
                    self.database.materialize_view(
                        name, self.physical.evaluate(expression, self.registry)
                    )
                self.registry.register(expression, name)
                self.temporaries[name] = expression
            return None
        if command == "drop_temporaries":
            names = message[1] if message[1] is not None else list(self.temporaries)
            for name in names:
                expression = self.temporaries.pop(name, None)
                if expression is not None:
                    self.registry.unregister(expression)
                if self.database.has_view(name):
                    self.database.drop_view(name)
            return None
        if command == "differentials":
            _, items, relation, kind, delta_rows = message
            replies = []
            for _name, expression in items:
                change = self.engine.differentiate(
                    expression,
                    relation,
                    kind,
                    delta_rows,
                    materialized=self.registry,
                    cache=self.cache,
                )
                replies.append((change.inserts, change.deletes))
            return replies
        if command == "apply":
            _, relation, kind, delta_rows, stale_temporaries = message
            self.database.apply_update(relation, kind, delta_rows)
            self.handle(("drop_temporaries", list(stale_temporaries)))
            self.cache.advance_round(relation)
            return None
        raise ValueError(f"unknown shard-pool command {command!r}")


def _worker_main(connection: Any, database: Database, spec: ShardSpec, shard: int) -> None:
    """Forked worker loop: build the shard state, then serve commands."""
    try:
        state = _WorkerState(database, spec, shard)
        # The inherited heap (the parent's full database plus whatever else
        # was live at fork time) is permanent from this worker's point of
        # view.  Freeze it so cyclic-GC passes neither scan those objects nor
        # dirty their headers — GC bookkeeping writes would make the kernel
        # copy the entire copy-on-write heap, one page at a time.
        gc.freeze()
        connection.send(("ok", None))
    except Exception:  # pragma: no cover - construction failures surface in parent
        connection.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            message = connection.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        if message[0] == "close":
            connection.send(("ok", None))
            break
        try:
            connection.send(("ok", state.handle(message)))
        except Exception:
            connection.send(("error", traceback.format_exc()))


class ShardPool:
    """Executes expressions and delta propagation across shard workers.

    ``mode`` is ``"fork"``, ``"inline"``, or ``None`` (fork when the
    platform supports it, inline otherwise).  The pool is lazy about
    nothing: workers are started (and shard databases built) in the
    constructor, so the one-time partition cost is paid once per pool, not
    per query.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        database: Database,
        spec: ShardSpec,
        mode: Optional[str] = None,
    ) -> None:
        if mode not in (None, "fork", "inline"):
            raise ValueError(f"mode must be 'fork', 'inline' or None, got {mode!r}")
        if mode is None:
            import multiprocessing

            mode = "fork" if "fork" in multiprocessing.get_all_start_methods() else "inline"
        self.spec = spec
        self.mode = mode
        #: Kept for static shard-plan verification (P010–P012), not execution.
        self._database = database
        self._plans: Dict[str, ShardPlan] = {}
        self._closed = False
        self._processes: List[Any] = []
        self._connections: List[Any] = []
        self._states: List[_WorkerState] = []
        if mode == "fork":
            import multiprocessing

            context = multiprocessing.get_context("fork")
            for shard in range(spec.workers):
                parent_end, child_end = context.Pipe(duplex=True)
                process = context.Process(
                    target=_worker_main,
                    args=(child_end, database, spec, shard),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._processes.append(process)
                self._connections.append(parent_end)
            # Wait for every worker to finish building its shard database.
            for shard, connection in enumerate(self._connections):
                status, payload = connection.recv()
                if status != "ok":
                    self.close()
                    raise ShardPoolError(f"shard {shard} failed to start:\n{payload}")
        else:
            self._states = [
                _WorkerState(database, spec, shard) for shard in range(spec.workers)
            ]

    # ------------------------------------------------------------------ plumbing

    @property
    def workers(self) -> int:
        """Number of shard workers."""
        return self.spec.workers

    def plan(self, expression: Expression) -> ShardPlan:
        """The (memoized, statically verified) shard plan for an expression.

        Every fresh plan runs through the static shard-plan verifier
        (``REPRO-P010``/``P011``/``P012``) before anything is dispatched —
        a rejected plan signals a planner defect, so it raises instead of
        silently falling back.
        """
        key = expression.canonical()
        plan = self._plans.get(key)
        if plan is None:
            plan = plan_shards(expression, self.spec)
            from repro.analysis.diagnostics import has_errors, render_diagnostics
            from repro.analysis.planlint import verify_shard_plan

            diagnostics = verify_shard_plan(plan, self.spec, self._database)
            if has_errors(diagnostics):
                raise ShardPoolError(
                    "shard plan failed static verification:\n"
                    + render_diagnostics(diagnostics)
                )
            self._plans[key] = plan
        return plan

    def _request_all(self, message: Tuple[Any, ...]) -> List[Any]:
        """Send one command to every worker, collect every reply in order.

        Fork mode dispatches to all workers before awaiting any reply —
        that is where the shard concurrency comes from.
        """
        return self._request_each([message] * self.workers)

    def _request_each(self, messages: Sequence[Tuple[Any, ...]]) -> List[Any]:
        if self._closed:
            raise ShardPoolError("pool is closed")
        if self.mode == "inline":
            return [state.handle(message) for state, message in zip(self._states, messages)]
        for connection, message in zip(self._connections, messages):
            connection.send(message)
        replies: List[Any] = []
        for shard, connection in enumerate(self._connections):
            status, payload = connection.recv()
            if status != "ok":
                raise ShardPoolError(f"shard {shard} failed:\n{payload}")
            replies.append(payload)
        return replies

    # ----------------------------------------------------------------- execution

    def evaluate_many(
        self,
        items: Sequence[Tuple[str, Expression]],
        temporaries: Sequence[Tuple[str, Expression]] = (),
    ) -> Dict[str, Optional[Relation]]:
        """Evaluate many expressions across shards in one exchange.

        Returns ``key → merged result`` for every shard-parallelizable
        expression and ``key → None`` for the rest — the caller runs those
        through the serial engine (which stays the oracle).  ``temporaries``
        (MQO shared sub-expressions) are materialized once per shard before
        any evaluation, so every shard plan of this batch reuses them.
        """
        plans = {key: self.plan(expression) for key, expression in items}
        results: Dict[str, Optional[Relation]] = {key: None for key, _ in items}
        eligible = [
            (key, plans[key].shard_expression)
            for key, _ in items
            if plans[key].parallel
        ]
        if not eligible:
            return results
        if temporaries:
            self._request_all(("temporaries", list(temporaries)))
        replies = self._request_all(("eval", eligible))
        for index, (key, _) in enumerate(eligible):
            parts = [reply[index] for reply in replies]
            results[key] = merge_shards(plans[key], parts)
        return results

    def evaluate(self, expression: Expression) -> Optional[Relation]:
        """Single-expression convenience over :meth:`evaluate_many`."""
        return self.evaluate_many([("__one__", expression)])["__one__"]

    # ------------------------------------------------------------ refresh rounds

    def differentials(
        self,
        views: Sequence[Tuple[str, Expression]],
        relation: str,
        kind: DeltaKind,
        delta_rows: Relation,
    ) -> Dict[str, Optional[ExpressionDelta]]:
        """Per-shard differentials for one single-relation update round.

        Only ``concat``-merge views qualify (a linear expression's
        differential is linear, so per-shard δ bags concat to the serial δ);
        other views map to ``None`` and keep their serial differential in
        the parent.  The database — parent and workers — must still hold the
        round's *pre-update* state.
        """
        plans = {name: self.plan(expression) for name, expression in views}
        results: Dict[str, Optional[ExpressionDelta]] = {
            name: None for name, _ in views
        }
        eligible = [
            (name, expression)
            for name, expression in views
            if plans[name].merge == MERGE_CONCAT
        ]
        if not eligible:
            return results
        parts = self._delta_parts(relation, delta_rows)
        replies = self._request_each(
            [("differentials", eligible, relation, kind, part) for part in parts]
        )
        for index, (name, _) in enumerate(eligible):
            inserts = merge_concat([reply[index][0] for reply in replies])
            deletes = merge_concat([reply[index][1] for reply in replies])
            results[name] = ExpressionDelta(inserts=inserts, deletes=deletes)
        return results

    def apply_update(
        self,
        relation: str,
        kind: DeltaKind,
        delta_rows: Relation,
        stale_temporaries: Sequence[str] = (),
    ) -> None:
        """Apply one base update to every worker's shard database.

        Deltas against a sharded relation are partitioned with the same key
        function as the base table (co-partitioning survives); deltas
        against broadcast relations are applied in full everywhere.
        ``stale_temporaries`` names per-shard temporaries this update just
        invalidated — workers drop them, mirroring the parent refresher's
        staleness discipline.
        """
        parts = self._delta_parts(relation, delta_rows)
        self._request_each(
            [("apply", relation, kind, part, tuple(stale_temporaries)) for part in parts]
        )

    def materialize_temporaries(self, temporaries: Sequence[Tuple[str, Expression]]) -> None:
        """Materialize MQO temporaries once per shard (idempotent)."""
        if temporaries:
            self._request_all(("temporaries", list(temporaries)))

    def drop_temporaries(self, names: Optional[Sequence[str]] = None) -> None:
        """Drop the named (default: all) per-shard temporaries."""
        self._request_all(("drop_temporaries", list(names) if names is not None else None))

    def _delta_parts(self, relation: str, delta_rows: Relation) -> List[Relation]:
        key = self.spec.key_map.get(relation)
        if key is None:
            return [delta_rows] * self.workers
        return partition_relation(delta_rows, key, self.spec)

    # ---------------------------------------------------------------- lifecycle

    def ping(self, payload: Optional[Relation] = None) -> None:
        """One echo roundtrip per worker (capacity-model IPC calibration)."""
        self._request_all(("ping", payload))

    def close(self) -> None:
        """Shut every worker down; the pool is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for connection in self._connections:
            try:
                connection.recv()
            except (EOFError, OSError):
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._processes = []
        self._connections = []
        self._states = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
