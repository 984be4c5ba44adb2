"""Span tracing of the layers' public entry points, installed from ``perf/``.

Nothing under ``src/`` knows about this file.  :class:`Tracer` replaces the
attributes named in :data:`ENTRY_POINTS` with timing wrappers while a traced
operation runs and restores the originals afterwards, so an untraced run
executes the program exactly as shipped.  Every wrapped call records one
span — id, parent id, name, thread, start, end, self time, payload — in
memory; a layer's *self time* is its span minus the child spans it covers,
so the self times of one operation add up to the wall of its root span.

Each entry point feeds exactly one ``*_s`` ledger metric, so the ``*_s``
per-layer metrics of a run add up to the wall of its root spans (checked by
:func:`ledger`, within :data:`SUM_TOLERANCE`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Self times must add up to the root spans' wall within this share.
SUM_TOLERANCE = 0.05


class Span(NamedTuple):
    id: int
    parent: int  # 0 = root of its thread
    name: str
    thread: int
    start: float
    end: float
    self_seconds: float
    #: What the entry point's ``measure`` hook counted (rows, hits, ...).
    payload: Any


def _rows_in(args, _kwargs, _result):
    # from_rows is a classmethod: (cls, rows, arity)
    return len(args[1])


def _delta_rows(args, kwargs, result):
    delta_rows = kwargs["delta_rows"] if "delta_rows" in kwargs else args[4]
    return len(delta_rows), len(result.inserts) + len(result.deletes)


def _cache_hits(args, _kwargs, _result):
    """Hits/misses a shared ``OldValueCache`` gained since its last round."""
    cache = args[0]
    seen = getattr(cache, "_perf_seen", (0, 0))
    cache._perf_seen = (cache.hits, cache.misses)
    return cache.hits - seen[0], cache.misses - seen[1]


#: The fixed table of wrapped entry points and nothing else:
#: (ledger metric that receives the self time, owner, attribute, payload hook).
#: The owner is ``module`` for a function and ``module:Class`` for a method;
#: the span is named ``Class.attribute`` (or the bare function name).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("analysis.define_views_s", "repro.api.warehouse:Warehouse", "define_views", None),
    ("api.optimize_self_s", "repro.api.warehouse:Warehouse", "optimize", None),
    ("api.optimize_self_s", "repro.api.warehouse:Warehouse", "optimize_queries", None),
    ("api.apply_self_s", "repro.api.warehouse:Warehouse", "apply", None),
    ("api.stream_ingest_self_s", "repro.api.stream:StreamSession", "ingest", None),
    ("api.stream_ingest_self_s", "repro.api.stream:StreamSession", "flush", None),
    ("api.stream_ingest_self_s", "repro.api.stream:StreamSession", "close", None),
    ("serving.query_self_s", "repro.api.serving:ServingSession", "query", None),
    ("serving.submit_s", "repro.api.serving:ServingSession", "ingest", None),
    ("serving.flush_wait_s", "repro.api.serving:ServingSession", "flush", None),
    # Warehouse._verify_rounds imports this name from the package per call.
    ("analysis.verify_delta_round_s", "repro.analysis", "verify_delta_round", None),
    ("optimizer.build_s", "repro.maintenance.optimizer:ViewMaintenanceOptimizer", "build", None),
    ("maintenance.no_greedy_s", "repro.maintenance.optimizer:ViewMaintenanceOptimizer", "no_greedy", None),
    ("maintenance.greedy_s", "repro.maintenance.optimizer:ViewMaintenanceOptimizer", "optimize", None),
    ("maintenance.greedy_s", "repro.maintenance.greedy:GreedyViewSelector", "run", None),
    ("optimizer.volcano_s", "repro.optimizer.volcano:VolcanoSearch", "optimize", None),
    ("mqo.optimize_s", "repro.mqo.greedy:MultiQueryOptimizer", "optimize", None),
    ("catalog.cardinality_s", "repro.catalog.estimator:CardinalityEstimator", "cardinality", None),
    ("catalog.round_cost_s", "repro.catalog.estimator:CardinalityEstimator", "refresh_round_cost", None),
    ("maintenance.refresh_many_self_s", "repro.maintenance.maintainer:ViewRefresher", "ensure_views", None),
    ("maintenance.refresh_many_self_s", "repro.maintenance.maintainer:ViewRefresher", "refresh_many", None),
    ("maintenance.refresh_many_self_s", "repro.maintenance.maintainer:ViewRefresher", "verify_against_recomputation", None),
    ("engine.physical.plan_s", "repro.engine.physical:PhysicalExecutor", "plan", None),
    ("engine.physical.evaluate_s", "repro.engine.physical:PhysicalExecutor", "evaluate", None),
    ("engine.differential.self_s", "repro.engine.differential:DifferentialEngine", "differentiate", _delta_rows),
    ("engine.differential.self_s", "repro.engine.differential:OldValueCache", "advance_round", _cache_hits),
    ("engine.database.update_view_s", "repro.engine.database:Database", "update_view", None),
    ("engine.database.apply_update_s", "repro.engine.database:Database", "apply_update", None),
    ("engine.database.copy_s", "repro.engine.database:Database", "copy", None),
    ("catalog.refresh_statistics_s", "repro.engine.database:Database", "refresh_statistics", None),
    ("storage.index_maintain_s", "repro.engine.database:Database", "rebuild_indexes", None),
    ("storage.difference_s", "repro.storage.relation:Relation", "difference", None),
    ("storage.apply_delta_s", "repro.storage.relation:Relation", "apply_delta", None),
    ("storage.union_all_s", "repro.storage.relation:Relation", "union_all", None),
    ("storage.from_rows_s", "repro.storage.columns:<active>", "from_rows", _rows_in),
    ("storage.to_rows_s", "repro.storage.columns:<active>", "to_rows", None),
    ("storage.index_maintain_s", "repro.storage.index:HashIndex", "apply_insert", None),
    ("storage.index_maintain_s", "repro.storage.index:HashIndex", "apply_delete", None),
    ("storage.index_maintain_s", "repro.storage.index:HashIndex", "retarget", None),
    ("storage.index_maintain_s", "repro.storage.index:SortedIndex", "apply_insert", None),
    ("storage.index_maintain_s", "repro.storage.index:SortedIndex", "apply_delete", None),
    ("storage.index_maintain_s", "repro.storage.index:SortedIndex", "retarget", None),
    # Only called from inside their own module, which resolves them per call.
    ("storage.coalesce_s", "repro.storage.delta", "coalesce_delta", None),
    ("storage.coalesce_s", "repro.storage.delta", "merge_round", None),
    ("stream.pending_ingest_s", "repro.stream.pending:PendingDeltas", "ingest", None),
    ("stream.pending_ingest_s", "repro.stream.pending:PendingDeltas", "take", None),
    ("stream.scheduler_s", "repro.stream.scheduler:StreamScheduler", "ingest", None),
    ("serving.publish_s", "repro.serving.snapshot:SnapshotManager", "publish", None),
    ("serving.pin_s", "repro.serving.snapshot:SnapshotManager", "pin", None),
    ("serving.submit_s", "repro.serving.daemon:RefreshDaemon", "submit", None),
)

#: Index entry points that maintain incrementally (vs ``rebuild_indexes``).
_INCREMENTAL_INDEX = tuple(
    f"{cls}.{method}"
    for cls in ("HashIndex", "SortedIndex")
    for method in ("apply_insert", "apply_delete", "retarget")
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return module, ""
    if class_name == "<active>":
        cls = module.active_backend()
        return cls, "ColumnStore"
    return getattr(module, class_name), class_name


class Tracer:
    """Installs the wrappers, records spans, and aggregates them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        self._metric_of: Dict[str, str] = {}
        self._targets = []
        for metric, owner, attribute, measure in ENTRY_POINTS:
            target, prefix = _resolve_owner(owner)
            name = f"{prefix}.{attribute}" if prefix else attribute
            self._metric_of[name] = metric
            self._targets.append((target, attribute, name, measure))

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, function: Callable, measure: Optional[Callable]) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [next(ids), 0.0]  # span id, seconds covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            payload = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                if measure is not None:
                    payload = measure(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append(
                    Span(frame[0], parent, name, threading.get_ident(), start, end,
                         end - start - frame[1], payload)
                )

        return traced

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target, attribute, name, measure in self._targets:
            original = target.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapper: Any = classmethod(self._wrap(name, original.__func__, measure))
            else:
                wrapper = self._wrap(name, original, measure)
            setattr(target, attribute, wrapper)
            self._installed.append((target, attribute, original))

    def uninstall(self) -> None:
        """Restore the program's own attributes."""
        for target, attribute, original in reversed(self._installed):
            setattr(target, attribute, original)
        self._installed = []

    # ----------------------------------------------------------- aggregation

    def mark(self) -> int:
        """How many spans are recorded so far (a cut point for :func:`ledger`)."""
        return len(self.spans)

    def ledger(self, upto: Optional[int] = None) -> "Ledger":
        return Ledger(self.spans[:upto], self._metric_of)

    def write_spans(self, path: str) -> None:
        """Every recorded span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict(), default=repr) + "\n")


class Ledger:
    """Per-name totals of a span list, and the layer metrics derived from them."""

    def __init__(self, spans: Sequence[Span], metric_of: Dict[str, str]) -> None:
        self.spans = spans
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.root_wall = 0.0
        for span in spans:
            self.calls[span.name] += 1
            self.self_seconds[span.name] += span.self_seconds
            if span.parent == 0:
                self.root_wall += span.end - span.start
        #: Self seconds per ``*_s`` ledger metric (every span feeds one).
        self.metric_seconds: Dict[str, float] = {
            metric: 0.0 for metric in metric_of.values()
        }
        for name, seconds in self.self_seconds.items():
            self.metric_seconds[metric_of[name]] += seconds

    def check_sum(self) -> None:
        """The ``*_s`` metrics must add up to the root spans' wall."""
        total = sum(self.metric_seconds.values())
        if abs(total - self.root_wall) > SUM_TOLERANCE * max(self.root_wall, 1e-9):
            raise AssertionError(
                f"traced self times sum to {total:.4f}s but the root spans "
                f"cover {self.root_wall:.4f}s (tolerance {SUM_TOLERANCE:.0%})"
            )

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)

    def payloads(self, name: str) -> List[Any]:
        return [s.payload for s in self.spans if s.name == name and s.payload is not None]

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that ran (at any depth) inside an ``ancestor`` span."""
        by_id = {span.id: span for span in self.spans}
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = by_id.get(parent.parent)
            count += parent is not None
        return count

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric that comes from spans alone."""

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        out: Dict[str, float] = dict(self.metric_seconds)
        calls = self.calls_of
        out["analysis.verify_delta_round_calls"] = calls("verify_delta_round")
        out["optimizer.volcano_calls"] = calls("VolcanoSearch.optimize")
        out["catalog.cardinality_calls"] = calls("CardinalityEstimator.cardinality")
        out["catalog.round_cost_calls"] = calls("CardinalityEstimator.refresh_round_cost")
        out["engine.physical.evaluate_calls"] = calls("PhysicalExecutor.evaluate")
        out["engine.physical.plan_miss_ratio"] = ratio(
            self.calls_under("VolcanoSearch.optimize", "PhysicalExecutor.plan"),
            calls("PhysicalExecutor.plan"),
        )
        deltas = self.payloads("DifferentialEngine.differentiate")
        out["engine.differential.calls"] = calls("DifferentialEngine.differentiate")
        out["engine.differential.rows_in"] = sum(p[0] for p in deltas)
        out["engine.differential.rows_out"] = sum(p[1] for p in deltas)
        cache = self.payloads("OldValueCache.advance_round")
        hits, misses = sum(p[0] for p in cache), sum(p[1] for p in cache)
        out["engine.differential.old_cache_hit_ratio"] = ratio(hits, hits + misses)
        out["engine.database.calls"] = calls(
            "Database.update_view", "Database.apply_update", "Database.copy"
        )
        incremental = calls(*_INCREMENTAL_INDEX)
        out["engine.database.index_incremental_ratio"] = ratio(
            incremental, incremental + calls("Database.rebuild_indexes")
        )
        out["storage.from_rows_calls"] = calls("ColumnStore.from_rows")
        out["storage.from_rows_rows"] = sum(self.payloads("ColumnStore.from_rows"))
        out["storage.to_rows_calls"] = calls("ColumnStore.to_rows")
        out["storage.difference_calls"] = calls("Relation.difference")
        out["storage.conversion_share"] = ratio(
            out["storage.from_rows_s"] + out["storage.to_rows_s"], self.root_wall
        )
        out["host.traced_wall_s"] = self.root_wall
        return out
