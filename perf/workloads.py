"""The four benchmark workloads.

Each workload is a class with the same four steps:

``inputs(seed)``   everything random, derived from the seed alone — the
                   program only ever receives these generated inputs;
``setup(inputs)``  what a user does before the first measured operation
                   (timed by the runner as ``setup_s``, several times);
``measure(...)``   the timed region, for ``--seconds`` seconds;
``check(...)``     the reference check, outside every timed region.

The closed-loop workloads always finish a fixed *prefix* of operations
first, however slow the host is, and then keep going in whole cycles to the
cycle boundary nearest ``--seconds``.  Count metrics are taken over the
prefix only, so the same seed gives the same counts on every run; timings
use every operation of the window.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.expressions import base_relations
from repro.api import Warehouse, WarehouseConfig
from repro.api.errors import ServingError
from repro.engine.executor import evaluate
from repro.serving import FreshnessSLO
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import generate_update_stream, uniform_deltas

from tracing import Tracer

now = time.perf_counter

#: Statistics-only planning catalog: the paper's scale factor.
PLAN_SCALE = 0.1


@dataclass(frozen=True)
class Sizes:
    """Everything that differs between the real benchmark and ``--smoke``."""

    #: Scale factor of the executable TPC-D data.
    data_scale: float
    #: Times the set-up is repeated; ``setup_s`` is the median.  The cheap
    #: set-up of ``select_sweep`` (about a second) is repeated more often.
    setup_reps: int
    sweep_setup_reps: int
    #: View sets and update percentages of the sweep (jittered per seed).
    sweep_view_sets: Tuple[str, ...]
    sweep_percentages: Tuple[float, ...]
    #: ``refresh_batch`` rounds in the prefix (one more when tracing, so the
    #: traced and the untraced side get the same number).
    refresh_rounds: int
    #: Churn rounds pre-generated per second of ``--seconds`` (the seed commit
    #: consumes about 8 a second).
    stream_rounds_per_second: float
    #: ``stream_max_batches`` of the coalescing policy (None = the default).
    stream_max_batches: Optional[int]
    #: Seconds between two produced rounds of ``serve_mixed``.
    serve_round_seconds: float


FULL = Sizes(
    data_scale=0.005,
    setup_reps=3,
    sweep_setup_reps=5,
    sweep_view_sets=("plain", "aggregate", "large", "large_aggregate"),
    sweep_percentages=(0.01, 0.05, 0.10, 0.20, 0.40, 0.80),
    refresh_rounds=3,
    stream_rounds_per_second=8.0,
    stream_max_batches=None,
    serve_round_seconds=1.0,
)

SMOKE = Sizes(
    data_scale=0.0005,
    setup_reps=1,
    sweep_setup_reps=1,
    sweep_view_sets=("plain", "aggregate"),
    sweep_percentages=(0.05, 0.40),
    refresh_rounds=1,
    stream_rounds_per_second=24.0,
    stream_max_batches=4,
    serve_round_seconds=0.25,
)


class Mismatch(Exception):
    """A workload's outputs differ from the reference."""


# ------------------------------------------------------------ closed-loop runner


class Op(NamedTuple):
    kind: str
    key: Any
    call: Callable[[], Any]


class Sample(NamedTuple):
    kind: str
    key: Any
    wall: float
    traced: bool
    #: What the operation returned; ``None`` when it raised.
    result: Any


@dataclass
class Measurement:
    """What a timed region produced (the runner turns it into metrics)."""

    samples: List[Sample] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    #: Wall of the whole timed region.
    wall: float = 0.0
    #: Samples (and recorded spans) that make up the fixed prefix, and the
    #: process's peak resident set when it completed.
    prefix: int = 0
    prefix_mark: Optional[int] = None
    prefix_rss_mb: float = 0.0
    #: The three generic end-to-end numbers, filled by the workload.
    op_p50_ms: float = 0.0
    work_per_s: float = 0.0
    cost_ratio: float = 0.0
    #: Per-layer numbers that come from the program's public report objects.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Operation walls the trace-overhead guard compares (traced, untraced).
    overhead_pairs: Tuple[List[float], List[float]] = ((), ())
    #: What ``check()`` needs from the timed region.
    evidence: Any = None

    def prefix_samples(self, traced_only: bool = False) -> List[Sample]:
        chosen = self.samples[: self.prefix]
        return [s for s in chosen if s.traced] if traced_only else chosen


def closed_loop(
    ops: Iterator[Op],
    seconds: float,
    boundary: Callable[[Sample], bool],
    prefix_boundaries: int,
    tracer: Optional[Tracer],
    last: Optional[Op] = None,
) -> Measurement:
    """One caller issuing each operation after the previous one completed.

    Operations come in cycles that end where ``boundary`` says so (a sweep
    pass, a refresh round, a stream flush).  The loop stops at the boundary
    nearest to ``seconds`` (another cycle as long as the last one would end
    farther from it) and never before ``prefix_boundaries`` of them — whole
    cycles only, so every cycle weighs the same in a rate — and then runs
    ``last``, still inside the timed region.  With a tracer, every second
    operation runs with the wrappers installed, so the traced and untraced
    sides interleave over the same inputs.
    """
    m = Measurement()
    boundaries = 0
    started = cycle_started = now()

    def run(op: Op) -> Sample:
        traced = tracer is not None and len(m.samples) % 2 == 1
        if traced:
            tracer.install()
        result = None
        begin = now()
        try:
            result = op.call()
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            m.failed += 1
        finally:
            wall = now() - begin
            if traced:
                tracer.uninstall()
        m.samples.append(Sample(op.kind, op.key, wall, traced, result))
        return m.samples[-1]

    for op in ops:
        if not boundary(run(op)):
            continue
        boundaries += 1
        if boundaries == prefix_boundaries:
            m.prefix = len(m.samples)
            m.prefix_mark = tracer.mark() if tracer is not None else None
            m.prefix_rss_mb = peak_rss_mb()
        at = now()
        cycle, cycle_started = at - cycle_started, at
        if m.prefix and at - started + cycle / 2 >= seconds:
            break
    else:
        if not m.prefix:
            raise RuntimeError("inputs ran out before the fixed prefix completed")
        print("note: the pre-generated inputs ran out before --seconds had passed")
    if last is not None:
        run(last)
    m.wall = now() - started
    m.attempted = len(m.samples)
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _overhead_pairs(samples: Sequence[Sample]):
    """Walls of the traced and of the untraced operations among ``samples``."""
    return [s.wall for s in samples if s.traced], [s.wall for s in samples if not s.traced]


def _crc(*parts: Any) -> int:
    return zlib.crc32(repr(parts).encode())


def _config(profile: str, **overrides) -> WarehouseConfig:
    # workers=1 everywhere: this host has two cores and the parallel layer
    # is recorded at <= 1x on it; REPRO_WORKERS must not change the load.
    return WarehouseConfig.profile(profile, workers=1, **overrides)


def _involved(views: Dict[str, Any]) -> List[str]:
    return sorted({r for e in views.values() for r in base_relations(e)})


def _check_tables(database, initial, rounds, relations: Sequence[str], context: str) -> None:
    """The base tables must hold the initial rows plus every round's inserts
    minus its deletes — multiset arithmetic, independent of the program."""
    for name in relations:
        expected = initial.table(name).counter()
        for deltas in rounds:
            delta = deltas.delta(name)
            if delta is None:
                continue
            expected.update(delta.inserts.iter_rows())
            expected.subtract(delta.deletes.iter_rows())
        if +expected != database.table(name).counter() or min(expected.values(), default=0) < 0:
            raise Mismatch(f"{context}: base table {name!r} is not initial + inserts - deletes")


def _verify_views(wh: Warehouse, context: str) -> None:
    wrong = sorted(name for name, ok in wh.verify().items() if not ok)
    if wrong:
        raise Mismatch(f"{context}: views {wrong} differ from recomputation")


def _report_rows(reports: Sequence[Any]) -> Tuple[int, int]:
    """(base rows applied, view rows changed) of some refresh reports."""
    return (
        sum(r.base_rows_applied for r in reports),
        sum(r.total_changes() for r in reports),
    )


def _refresh_layers(reports: Sequence[Any]) -> Dict[str, float]:
    return {
        "maintenance.recomputed_views": sum(len(r.recomputed_views) for r in reports),
        "maintenance.view_rows_changed": sum(r.total_changes() for r in reports),
    }


# ------------------------------------------------------------------ select_sweep


class SelectSweep:
    """The paper's experiment: Greedy vs NoGreedy plan selection, no data."""

    name = "select_sweep"

    VIEW_SETS: Dict[str, Callable[[], Dict[str, Any]]] = {
        "plain": queries.view_set_plain,
        "aggregate": queries.view_set_aggregate,
        "large": queries.large_view_set,
        "large_aggregate": partial(queries.large_view_set, with_aggregates=True),
    }

    @dataclass
    class Inputs:
        #: (with_pk_indexes, view set name), in visiting order.
        configs: List[Tuple[bool, str]]
        #: Update percentages, in visiting order.
        percentages: List[float]

        def digest(self) -> int:
            return _crc(self.configs, self.percentages)

    def __init__(self, sizes: Sizes, _seconds: float) -> None:
        self.sizes = sizes
        self.setup_reps = sizes.sweep_setup_reps

    def inputs(self, seed: int) -> "SelectSweep.Inputs":
        rng = random.Random(seed)
        # The paper's update percentages, each moved by up to a tenth, and a
        # seeded visiting order: a result memoised per exact percentage or
        # an order-dependent cache cannot flatter the sweep.
        percentages = [p * rng.uniform(0.9, 1.1) for p in self.sizes.sweep_percentages]
        rng.shuffle(percentages)
        configs = [(pk, name) for pk in (True, False) for name in self.sizes.sweep_view_sets]
        rng.shuffle(configs)
        return self.Inputs(configs, percentages)

    # One pass = every config: a new Warehouse with its views defined, then
    # NoGreedy and Greedy at every percentage; then one ad-hoc query batch.

    @staticmethod
    def _define(slot: Dict[str, Warehouse], pk: bool, views: Dict[str, Any]) -> int:
        wh = Warehouse(_config("paper", with_pk_indexes=pk)).load(scale=PLAN_SCALE)
        wh.define_views(views)
        slot["wh"] = wh
        return len(views)

    @staticmethod
    def _optimize(slot: Dict[str, Warehouse], percentage: float, greedy: bool):
        result = slot["wh"].optimize(update_percentage=percentage, greedy=greedy)
        selection = result.selection
        return {
            "cost": result.total_cost,
            "dag_nodes": len(result.dag),
            "benefit_evaluations": selection.benefit_evaluations if selection else 0,
            "iterations": selection.iterations if selection else 0,
            "selections": len(selection.selections) if selection else 0,
        }

    @staticmethod
    def _mqo():
        wh = Warehouse(_config("paper")).load(scale=PLAN_SCALE)
        return wh.optimize_queries(queries.example_3_1_queries()).improvement_ratio

    def _pass(self, inputs: "SelectSweep.Inputs", percentages: Sequence[float]) -> Iterator[Op]:
        for pk, name in inputs.configs:
            slot: Dict[str, Warehouse] = {}
            yield Op("define", (pk, name), partial(self._define, slot, pk, self.VIEW_SETS[name]()))
            for percentage in percentages:
                point = (pk, name, percentage)
                yield Op("no_greedy", point, partial(self._optimize, slot, percentage, False))
                yield Op("greedy", point, partial(self._optimize, slot, percentage, True))
        yield Op("mqo", None, self._mqo)

    def setup(self, inputs: "SelectSweep.Inputs") -> None:
        # Warm-up: a reduced pass (first percentage only) fills the
        # process-wide caches every later pass reuses.
        for op in self._pass(inputs, inputs.percentages[:1]):
            op.call()

    def measure(self, _state: None, inputs, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        def ops() -> Iterator[Op]:
            while True:
                yield from self._pass(inputs, inputs.percentages)

        pass_ops = sum(1 for _ in self._pass(inputs, inputs.percentages))
        # Tracing alternates operations and a pass has an odd number of
        # them, so two passes visit every point once traced, once untraced.
        if pass_ops % 2 == 0:
            raise RuntimeError("a sweep pass needs an odd number of operations")
        m = closed_loop(
            ops(), seconds, lambda s: s.kind == "mqo", 2 if tracer is not None else 1, tracer
        )
        greedy = sorted(s.wall for s in m.samples if s.kind == "greedy")
        m.op_p50_ms = _median(greedy) * 1e3
        m.work_per_s = sum(1 for s in m.samples if s.kind != "define") / m.wall

        first = [s for s in m.samples[:pass_ops] if s.result is not None]
        cost = {(s.kind, s.key): s.result["cost"] for s in first if s.kind in ("no_greedy", "greedy")}
        points = m.evidence = [
            (key, cost[("no_greedy", key)], cost[("greedy", key)])
            for kind, key in cost
            if kind == "greedy" and ("no_greedy", key) in cost
        ]
        m.cost_ratio = math.exp(
            sum(math.log(g / ng) for _, ng, g in points) / max(1, len(points))
        )

        traced = [
            s.result for s in m.prefix_samples(traced_only=True)
            if s.kind in ("no_greedy", "greedy") and s.result is not None
        ]
        m.layers = {
            "optimizer.dag_nodes": sum(r["dag_nodes"] for r in traced),
            "maintenance.benefit_evaluations": sum(r["benefit_evaluations"] for r in traced),
            "maintenance.greedy_iterations": sum(r["iterations"] for r in traced),
            "maintenance.selections": sum(r["selections"] for r in traced),
            "maintenance.optimize_p95_ms": greedy[int(0.95 * (len(greedy) - 1))] * 1e3,
            "mqo.improvement_ratio": next((s.result for s in first if s.kind == "mqo"), 0.0),
        }
        # Every operation of two passes has a traced and an untraced sample.
        sides: Dict[Tuple[str, Any], Dict[bool, float]] = {}
        for s in m.samples[: 2 * pass_ops]:
            sides.setdefault((s.kind, s.key), {})[s.traced] = s.wall
        both = [v for v in sides.values() if len(v) == 2]
        m.overhead_pairs = [v[True] for v in both], [v[False] for v in both]
        return m

    def check(self, _state: None, inputs, m: Measurement) -> None:
        if len(m.evidence) != len(inputs.configs) * len(inputs.percentages):
            raise Mismatch(f"only {len(m.evidence)} sweep points produced both costs")
        for key, no_greedy, greedy in m.evidence:
            if not greedy <= no_greedy * (1 + 1e-9):
                raise Mismatch(
                    f"Greedy cost {greedy!r} exceeds NoGreedy cost {no_greedy!r} at {key}"
                )


# ------------------------------------------------------- shared data-workload set-up


@dataclass
class DataState:
    wh: Warehouse
    #: Wall of the first ``apply(0.0)``, which builds every view from scratch.
    materialize_s: float


def _data_setup(sizes: Sizes, seed: int, views: Dict[str, Any], warmup, **config) -> DataState:
    """Generate and load the data, define and plan the views, build them,
    and run one warm-up refresh so lazily compiled plans are paid for."""
    wh = Warehouse(_config("fast", **config)).load(scale=PLAN_SCALE)
    wh.load_data(database=small_database(scale_factor=sizes.data_scale, seed=seed))
    wh.define_views(views)
    wh.optimize()
    begin = now()
    wh.apply(0.0)
    materialize_s = now() - begin
    wh.apply(warmup)
    return DataState(wh, materialize_s)


def _initial(sizes: Sizes, seed: int):
    """The generated database as it is before any update."""
    return small_database(scale_factor=sizes.data_scale, seed=seed)


# ----------------------------------------------------------------- refresh_batch


class RefreshBatch:
    """The maintenance window: large update batches through ``apply()``."""

    name = "refresh_batch"
    UPDATE = 0.05

    @dataclass
    class Inputs:
        seed: int
        views: Dict[str, Any]
        relations: List[str]
        #: Lock-step simulation the batches are generated against.
        sim: Any
        warmup: Any
        issued: List[Any]

        def digest(self) -> int:
            return _crc(sorted(self.warmup.delta_sizes().items()),
                        self.warmup.delta(self.relations[0]).inserts.rows[:5])

        def next_batch(self):
            deltas = uniform_deltas(
                self.sim, RefreshBatch.UPDATE, self.relations,
                seed=self.seed * 1000 + len(self.issued),
            )
            for delta in deltas:
                self.sim.apply_delta(delta)
            self.issued.append(deltas)
            return deltas

    def __init__(self, sizes: Sizes, _seconds: float) -> None:
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps

    def inputs(self, seed: int) -> "RefreshBatch.Inputs":
        views = queries.large_view_set(with_aggregates=True)
        inputs = self.Inputs(
            seed, views, _involved(views),
            small_database(scale_factor=self.sizes.data_scale, seed=seed), None, [],
        )
        inputs.warmup = inputs.next_batch()
        return inputs

    def setup(self, inputs: "RefreshBatch.Inputs") -> DataState:
        return _data_setup(self.sizes, inputs.seed, inputs.views, inputs.warmup)

    def measure(self, state: DataState, inputs, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        def ops() -> Iterator[Op]:
            while True:
                # Generated between two operations, outside their timing.  The
                # method is looked up per call, so a traced call finds the wrapper.
                batch = inputs.next_batch()
                yield Op("apply", len(inputs.issued), lambda: state.wh.apply(batch))

        rounds = self.sizes.refresh_rounds + (1 if tracer is not None else 0)
        m = closed_loop(ops(), seconds, lambda s: True, rounds, tracer)
        done = [s for s in m.samples if s.result is not None]
        m.op_p50_ms = _median([s.wall for s in done]) * 1e3
        m.work_per_s = sum(s.result.base_rows_applied for s in done) / max(
            1e-9, sum(s.wall for s in done)
        )
        offered = sum(b.total_rows() for b in inputs.issued[1 : 1 + m.prefix])
        base, changed = _report_rows([s.result for s in m.prefix_samples() if s.result])
        m.cost_ratio = (base + changed) / max(1, offered)
        m.layers = _refresh_layers(
            [s.result for s in m.prefix_samples(traced_only=True) if s.result]
        )
        m.layers["api.materialize_s"] = state.materialize_s
        m.overhead_pairs = _overhead_pairs(done)
        return m

    def check(self, state: DataState, inputs, _m: Measurement) -> None:
        _verify_views(state.wh, self.name)
        _check_tables(
            state.wh.database, _initial(self.sizes, inputs.seed), inputs.issued,
            inputs.relations, self.name,
        )


# ------------------------------------------------------------------ stream_churn


@dataclass
class StreamInputs:
    seed: int
    views: Dict[str, Any]
    relations: List[str]
    #: ``rounds[0]`` is the warm-up refresh; the timed region starts at 1.
    rounds: List[Any]

    def digest(self) -> int:
        return _crc([sorted(r.delta_sizes().items()) for r in self.rounds[:3]],
                    self.rounds[0].delta(self.relations[0]).inserts.rows[:5])


def _stream_inputs(sizes: Sizes, seed: int, views, count: int) -> StreamInputs:
    relations = _involved(views)
    rounds = generate_update_stream(
        small_database(scale_factor=sizes.data_scale, seed=seed),
        0.01, count, relations=relations, overlap=0.6, seed=seed + 1,
    )
    return StreamInputs(seed, views, relations, rounds)


class StreamChurn:
    """Many small churn rounds coalesced into few multi-round flushes."""

    name = "stream_churn"

    def __init__(self, sizes: Sizes, seconds: float) -> None:
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps
        self.config = {}
        if sizes.stream_max_batches is not None:
            self.config["stream_max_batches"] = sizes.stream_max_batches
        # Whole flush cycles: the scheduler flushes after stream_max_batches
        # rounds at the latest.
        cycle = _config("fast", **self.config).stream_max_batches
        cycles = math.ceil(sizes.stream_rounds_per_second * seconds / cycle)
        self.count = 1 + cycle * cycles

    def inputs(self, seed: int) -> StreamInputs:
        return _stream_inputs(
            self.sizes, seed, queries.large_view_set(with_aggregates=True), self.count
        )

    def setup(self, inputs: StreamInputs) -> DataState:
        return _data_setup(self.sizes, inputs.seed, inputs.views, inputs.rounds[0], **self.config)

    def measure(self, state: DataState, inputs, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        session = state.wh.stream()  # the config's default policy: coalesce
        ops = (
            Op("ingest", k, lambda deltas=deltas: session.ingest(deltas))
            for k, deltas in enumerate(inputs.rounds[1:], 1)
        )
        # A cycle ends with a flush the scheduler decided on; the prefix is
        # the first one.  close() then finds nothing pending.
        m = closed_loop(
            ops, seconds, lambda s: bool(s.result and s.result.refreshes), 1,
            tracer, last=Op("close", None, lambda: session.close()),
        )
        ingests = [s for s in m.samples if s.kind == "ingest"]
        m.evidence = len(ingests)  # rounds consumed
        offered = sum(r.total_rows() for r in inputs.rounds[1 : 1 + len(ingests)])
        flushed = [s for s in ingests if s.result is not None and s.result.refreshes]
        quiet = [s for s in ingests if s.result is not None and not s.result.refreshes]
        m.op_p50_ms = _median([s.wall for s in quiet]) * 1e3
        m.work_per_s = offered / m.wall

        # Exact counts: the rounds of the first flush, and its report.
        prefix_offered = sum(r.total_rows() for r in inputs.rounds[1 : 1 + m.prefix])
        base, changed = _report_rows(session.reports[:1])
        m.cost_ratio = (base + changed) / max(1, prefix_offered)
        annihilated = prefix_offered - base
        m.layers = {
            **_refresh_layers(session.reports[:1]),
            "stream.flushes": len(session.reports),
            "stream.flush_max_s": max((s.wall for s in flushed), default=0.0),
            "stream.annihilated_rows": annihilated,
            "stream.annihilated_frac": annihilated / max(1, prefix_offered),
            "stream.rounds_per_flush": len(ingests) / max(1, len(session.reports)),
            "api.materialize_s": state.materialize_s,
        }
        m.overhead_pairs = _overhead_pairs(quiet)
        return m

    def check(self, state: DataState, inputs, m: Measurement) -> None:
        _verify_views(state.wh, self.name)
        _check_tables(
            state.wh.database, _initial(self.sizes, inputs.seed),
            inputs.rounds[: 1 + m.evidence], inputs.relations, self.name,
        )


# ------------------------------------------------------------------- serve_mixed


class Read(NamedTuple):
    due: float
    start: float
    done: float
    view: str
    version: int
    as_of_round: int
    ok: bool


class Reader(threading.Thread):
    """Open-loop reader: one ``query()`` per period, alternating the views.

    Each read is due at a fixed time whether or not the previous one has
    finished; a read that starts late because an earlier one stalled is still
    timed from its due time.
    """

    def __init__(self, session, views: Sequence[str], consume: str, start_at: float, period: float) -> None:
        super().__init__(name="perf-reader")
        self.session, self.views, self.consume = session, list(views), consume
        self.start_at, self.period = start_at, period
        self.reads: List[Read] = []
        #: (view, version) -> (as_of_round, contents) of every distinct serve.
        self.served: Dict[Tuple[str, int], Tuple[int, Any]] = {}
        self.stop = threading.Event()

    def run(self) -> None:
        index = 0
        while not self.stop.is_set():
            due = self.start_at + index * self.period
            delay = due - now()
            if delay > 0 and self.stop.wait(delay):
                break
            view = self.views[index % len(self.views)]
            index += 1
            start = now()
            try:
                result = self.session.query(view)
                len(result)
                if view == self.consume:
                    list(result.relation.iter_rows())
            except Exception:  # counted as a failed read and a missed limit
                traceback.print_exc(file=sys.stderr)
                self.reads.append(Read(due, start, now(), view, -1, -1, False))
                continue
            self.reads.append(
                Read(due, start, now(), view, result.version, result.as_of_round, True)
            )
            self.served.setdefault((view, result.version), (result.as_of_round, result.relation))


class ServeMixed:
    """Reads beside writes: an open-loop producer and an open-loop reader."""

    name = "serve_mixed"
    #: Seconds between two reads of the reader (200 reads a second).
    READ_PERIOD = 0.005
    #: A read completed within this many seconds of its due time is on time.
    READ_LIMIT = 0.020

    def __init__(self, sizes: Sizes, seconds: float) -> None:
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps
        self.rounds = max(3, int(round(seconds / sizes.serve_round_seconds)))

    def inputs(self, seed: int) -> StreamInputs:
        views = {**queries.standalone_join_view(), **queries.standalone_agg_view()}
        return _stream_inputs(self.sizes, seed, views, 1 + self.rounds)

    def setup(self, inputs: StreamInputs) -> DataState:
        return _data_setup(self.sizes, inputs.seed, inputs.views, inputs.rounds[0])

    def measure(self, state: DataState, inputs, _seconds: float, tracer: Optional[Tracer]) -> Measurement:
        sizes = self.sizes
        m = Measurement()
        aggregate_view = next(iter(queries.standalone_agg_view()))
        session = state.wh.serve(
            read_policy="serve-stale", slo=FreshnessSLO(max_rounds=2), stream_policy="eager"
        )
        started = now()
        start_at = started + 0.05
        reader = Reader(session, list(inputs.views), aggregate_view, start_at, self.READ_PERIOD)
        reader.start()
        ingested_at: Dict[int, float] = {}
        traced_rounds = set()
        producer_late = 0.0
        try:
            for k, deltas in enumerate(inputs.rounds[1:], 1):
                due = start_at + (k - 1) * sizes.serve_round_seconds
                time.sleep(max(0.0, due - now()))
                if tracer is not None and k % 2 == 0:
                    tracer.install()
                    traced_rounds.add(k)
                producer_late = max(producer_late, now() - due)
                ingested_at[k] = now()
                try:
                    session.ingest(deltas)
                except ServingError:  # shed or rejected: counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    m.failed += 1
                # The round's refresh runs on the daemon thread while the
                # producer sleeps; the wrappers stay on until the next round.
                if tracer is not None and k % 2 == 1:
                    tracer.uninstall()
            session.flush()
            time.sleep(self.READ_LIMIT + 2 * self.READ_PERIOD)  # let the last round be read
        finally:
            reader.stop.set()
            reader.join()
            if tracer is not None:
                tracer.uninstall()
        m.wall = now() - started
        m.prefix_mark = tracer.mark() if tracer is not None else None
        m.prefix_rss_mb = peak_rss_mb()
        m.evidence = reader
        stats, snapshots = session.daemon.stats(), session.snapshots.stats()
        reports = session.reports
        session.close()

        reads = reader.reads
        m.attempted = len(ingested_at) + len(reads)
        m.failed += sum(1 for r in reads if not r.ok)
        # Ingest-to-visible lag: the first read completion that observes
        # round k, minus the time ingest() of round k was called.
        lags: Dict[int, float] = {}
        ordered = sorted((r for r in reads if r.ok), key=lambda r: r.done)
        position = 0
        for k in sorted(ingested_at):
            while position < len(ordered) and ordered[position].as_of_round < k:
                position += 1
            if position == len(ordered):
                raise Mismatch(f"{self.name}: round {k} never became visible to the reader")
            lags[k] = ordered[position].done - ingested_at[k]
        latencies = sorted(r.done - r.due for r in reads)
        on_time = sum(1 for r in reads if r.ok and r.done - r.due <= self.READ_LIMIT)
        m.op_p50_ms = _median(list(lags.values())) * 1e3
        m.work_per_s = on_time / m.wall
        offered = sum(r.total_rows() for r in inputs.rounds[1:])
        base, changed = _report_rows(reports)
        m.cost_ratio = (base + changed) / max(1, offered)

        def percentile(fraction: float) -> float:
            return latencies[int(fraction * (len(latencies) - 1))] if latencies else 0.0

        m.layers = {
            **_refresh_layers(reports),
            "host.traced_ops": len(traced_rounds),
            "stream.flushes": stats.flushes,
            "serving.queue_peak": stats.queue_peak,
            "serving.degraded_reads": session.degraded_reads,
            "serving.rejected_reads": session.rejected_reads,
            "serving.shed_ingests": session.shed_ingests,
            "serving.refresh_busy_frac": sum(r.elapsed_seconds for r in reports) / m.wall,
            "serving.read_p50_ms": percentile(0.50) * 1e3,
            "serving.read_p99_ms": percentile(0.99) * 1e3,
            "serving.read_max_ms": percentile(1.0) * 1e3,
            "serving.read_within_20ms_frac": on_time / max(1, len(reads)),
            "serving.visible_lag_max_s": max(lags.values()),
            "serving.generator_late_max_ms": producer_late * 1e3,
            "serving.reader_late_max_ms": max((r.start - r.due for r in reads), default=0.0) * 1e3,
            "serving.publishes": snapshots.published,
            "api.materialize_s": state.materialize_s,
        }
        m.overhead_pairs = (
            [lag for k, lag in lags.items() if k in traced_rounds],
            [lag for k, lag in lags.items() if k not in traced_rounds],
        )
        return m

    def check(self, state: DataState, inputs, m: Measurement) -> None:
        reader = m.evidence
        # Versions and rounds only ever move forward, for each view.
        for view in inputs.views:
            seen = [(r.version, r.as_of_round) for r in reader.reads if r.ok and r.view == view]
            for earlier, later in zip(seen, seen[1:]):
                if later[0] < earlier[0] or later[1] < earlier[1]:
                    raise Mismatch(
                        f"{self.name}: reads of {view!r} went back from (version, round) "
                        f"{earlier} to {later}"
                    )
        final = max(as_of for as_of, _ in reader.served.values())
        if final != self.rounds:
            raise Mismatch(f"{self.name}: last served round is {final}, expected {self.rounds}")
        # Every distinct served (view, version) against full recomputation
        # over a lock-step replay of the base tables — never the
        # differential path.
        by_round: Dict[int, List[Tuple[str, int, Any]]] = {}
        for (view, version), (as_of, contents) in reader.served.items():
            by_round.setdefault(as_of, []).append((view, version, contents))
        database = _initial(self.sizes, inputs.seed)
        _check_tables(state.wh.database, database, inputs.rounds, inputs.relations, self.name)
        for k in range(0, self.rounds + 1):
            # rounds[0] was the warm-up refresh, before the session opened.
            for delta in inputs.rounds[k]:
                database.apply_delta(delta)
            for view, version, contents in by_round.get(k, ()):
                if not contents.same_bag(evaluate(inputs.views[view], database)):
                    raise Mismatch(
                        f"{self.name}: view {view!r} version {version} (as of round {k}) "
                        f"differs from recomputation"
                    )


#: name -> workload class; every class is built with (sizes, seconds).
WORKLOADS = {
    workload.name: workload
    for workload in (SelectSweep, RefreshBatch, StreamChurn, ServeMixed)
}
