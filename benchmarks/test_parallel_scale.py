"""Sharded execution scale ramp: worker counts × scale factors, with the
capacity model's predicted curve recorded next to the measured one.

The tentpole claim of the parallel layer is that sharded execution of the
fig3/fig5-style views tracks the serial engine exactly while wall-clock
follows the capacity model ``T(n) = T_serial/min(n, cores) + overheads``.
This benchmark evaluates a small view pool serially (the oracle and the
``workers=1`` baseline), then through :class:`repro.parallel.ShardPool`
at growing worker counts and scale factors, verifies every merged result
bag-identical to serial execution, and records measured vs. predicted
seconds per cell to ``results/BENCH_parallel.json`` — the artifact
``tools/bench_compare.py`` diffs across commits.

Two gates, both honest about the host:

* the **speedup gate** (``PARALLEL_SPEEDUP_FLOOR``, default 2x at the
  largest scale with 4 workers) only fires when the host actually has
  4+ effective cores — on a single-core runner the model itself predicts
  a flat curve, so the payload records the skip instead;
* the **fit gate** (``PARALLEL_FIT_TOLERANCE``, default 30%) compares the
  capacity model's prediction against the measurement at the largest
  scale factor on every host, since the model takes the core count as an
  input and should be right about flat curves too.

``PARALLEL_SCALE_FACTORS`` and ``PARALLEL_WORKER_COUNTS`` trim the grid on
constrained runners, like the other ``*_SCALE_FACTORS`` knobs.
"""

import gc
import os
import statistics
import time

import pytest

from repro.engine.physical import PhysicalExecutor
from repro.parallel import CapacityModel, ShardPool, ShardSpec, effective_cores, fit_error
from repro.storage.relation import Relation
from repro.workloads import queries
from repro.workloads.datagen import small_database

from benchmarks.helpers import write_json_result, write_result

SCALE_FACTORS = tuple(
    float(token)
    for token in os.environ.get("PARALLEL_SCALE_FACTORS", "0.002,0.02,0.1").split(",")
    if token.strip()
)

WORKER_COUNTS = tuple(
    int(token)
    for token in os.environ.get("PARALLEL_WORKER_COUNTS", "1,2,4,8").split(",")
    if token.strip()
)

#: Required serial-over-parallel speedup at the largest scale factor with
#: four workers — only meaningful (and only asserted) on a 4+ core host.
MINIMUM_SPEEDUP = float(os.environ.get("PARALLEL_SPEEDUP_FLOOR", "2.0"))
SPEEDUP_WORKERS = 4

#: Maximum median relative error of the capacity model's predictions
#: against the measurements, over every (scale, workers) cell.
FIT_TOLERANCE = float(os.environ.get("PARALLEL_FIT_TOLERANCE", "0.30"))

#: Rows of lineitem echoed through the pipe during calibration.
CALIBRATION_ROWS = 2048

REPETITIONS = 3


def _ramp_views():
    views = {}
    views.update(queries.standalone_join_view())
    views.update(queries.standalone_agg_view())
    views["v02_order_nations"] = queries.large_view_set()["v02_order_nations"]
    return views


def _best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPETITIONS):
        # The oracle bags built between cells leave gen-2 garbage behind;
        # collect it now so a GC pause doesn't land inside the timed region.
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bag_digest(relation) -> tuple:
    """Order-independent bag digest: (row count, 64-bit sum of row hashes).

    Holding full bags of every serial result would keep millions of tuples
    live in the parent for the whole ramp, and every gen-2 GC pass — the
    parent's and the forked workers', through their inherited heap — would
    pay to scan them.  A hash-sum digest is multiplicity-sensitive and
    order-independent; the exact bag-equivalence proofs live in
    ``tests/test_parallel_shard.py`` / ``tests/test_parallel_pool.py``.
    """
    total = 0
    count = 0
    for row in relation.iter_rows():
        total = (total + hash(row)) & 0xFFFFFFFFFFFFFFFF
        count += 1
    return count, total


def _calibration_sample(database) -> Relation:
    lineitem = database.table("lineitem")
    rows = list(lineitem.iter_rows())[:CALIBRATION_ROWS]
    return Relation(lineitem.schema, rows, name="lineitem")


def test_parallel_scale_ramp(benchmark):
    """Sharded execution stays bag-identical to serial as workers grow."""
    views = _ramp_views()
    items = list(views.items())
    cores = effective_cores()
    points = []

    def run_ramp():
        for scale_factor in SCALE_FACTORS:
            database = small_database(scale_factor=scale_factor)
            physical = PhysicalExecutor(database)

            def run_serial():
                for expression in views.values():
                    physical.evaluate(expression)

            run_serial()  # warm plans and stores
            serial_seconds = _best_time(run_serial)
            # The serial engine is the oracle (its own equivalence to the
            # row-at-a-time interpreter is the columnar benchmark's gate).
            serial_digests = {
                name: _bag_digest(physical.evaluate(expression))
                for name, expression in views.items()
            }

            sample = _calibration_sample(database)
            point = {
                "scale_factor": scale_factor,
                "views": len(views),
                "rows": {
                    name: len(database.table(name)) for name in ("orders", "lineitem")
                },
                "timing": {"serial_seconds": serial_seconds},
                "workers": [],
            }
            shipped_rows = None
            for workers in WORKER_COUNTS:
                spec = ShardSpec.for_database(database, workers=workers)
                with ShardPool(database, spec) as pool:
                    if shipped_rows is None:
                        # Rows crossing the pipe per evaluation round: the
                        # worker-side expression's full output (partitioning
                        # is exact, so the shard outputs sum to it).
                        shipped_rows = sum(
                            len(physical.evaluate(pool.plan(e).shard_expression))
                            for e in views.values()
                            if pool.plan(e).parallel
                        )
                    results = pool.evaluate_many(items)  # warm workers + plans
                    parallel_seconds = _best_time(lambda: pool.evaluate_many(items))
                    verified = all(
                        results[name] is not None
                        and _bag_digest(results[name]) == serial_digests[name]
                        for name in views
                    )
                    del results
                    model = CapacityModel.calibrate(pool, sample)
                    predicted = model.predict_seconds(
                        serial_seconds, workers, merged_rows=shipped_rows
                    )
                    point["workers"].append(
                        {
                            "workers": workers,
                            "mode": pool.mode,
                            "verified": verified,
                            "merged_rows": shipped_rows,
                            "fit_error": fit_error(predicted, parallel_seconds),
                            "capacity": model.parameters.as_dict(),
                            "timing": {
                                "parallel_seconds": parallel_seconds,
                                "predicted_seconds": predicted,
                                "speedup": serial_seconds
                                / max(parallel_seconds, 1e-9),
                            },
                        }
                    )
            points.append(point)

    benchmark.pedantic(run_ramp, rounds=1, iterations=1)

    payload = {
        "experiment": "parallel_scale",
        "effective_cores": cores,
        "worker_counts": list(WORKER_COUNTS),
        "points": points,
    }
    largest = points[-1]
    gate_cell = next(
        (c for c in largest["workers"] if c["workers"] == SPEEDUP_WORKERS), None
    )
    if cores >= SPEEDUP_WORKERS and gate_cell is not None:
        payload["speedup_gate"] = {
            "floor": MINIMUM_SPEEDUP,
            "measured": gate_cell["timing"]["speedup"],
        }
    else:
        payload["speedup_gate"] = {
            "skipped": f"host has {cores} effective core(s); "
            f"the gate needs {SPEEDUP_WORKERS}",
        }
    write_json_result("parallel", payload)
    write_result("parallel_scale", _render_curves(payload))

    for point in points:
        for cell in point["workers"]:
            assert cell["verified"], (
                f"workers={cell['workers']} diverged from serial execution at "
                f"SF {point['scale_factor']}"
            )
    fits = [cell["fit_error"] for point in points for cell in point["workers"]]
    median_fit = statistics.median(fits)
    assert median_fit <= FIT_TOLERANCE, (
        f"capacity model off by {median_fit:.0%} (median over "
        f"{len(fits)} grid cells; tolerance: {FIT_TOLERANCE:.0%})"
    )
    if "skipped" in payload["speedup_gate"]:
        pytest.skip(payload["speedup_gate"]["skipped"] + "; curves recorded")
    measured = payload["speedup_gate"]["measured"]
    assert measured >= MINIMUM_SPEEDUP, (
        f"only {measured:.2f}x over serial at SF {largest['scale_factor']} with "
        f"{SPEEDUP_WORKERS} workers (required: {MINIMUM_SPEEDUP}x)"
    )


def _render_curves(payload) -> str:
    """Human-readable measured-vs-predicted table for ``results/``."""
    lines = [
        f"parallel scale ramp ({payload['effective_cores']} effective cores)",
        f"{'SF':>6}  {'workers':>7}  {'serial_s':>9}  {'parallel_s':>10}  "
        f"{'predicted_s':>11}  {'speedup':>7}  {'fit':>5}",
    ]
    for point in payload["points"]:
        serial = point["timing"]["serial_seconds"]
        for cell in point["workers"]:
            timing = cell["timing"]
            lines.append(
                f"{point['scale_factor']:6g}  {cell['workers']:7d}  {serial:9.4f}  "
                f"{timing['parallel_seconds']:10.4f}  "
                f"{timing['predicted_seconds']:11.4f}  "
                f"{timing['speedup']:6.2f}x  {cell['fit_error']:4.0%}"
            )
    gate = payload["speedup_gate"]
    if "skipped" in gate:
        lines.append(f"speedup gate: skipped ({gate['skipped']})")
    else:
        lines.append(
            f"speedup gate: {gate['measured']:.2f}x measured vs {gate['floor']:.2f}x floor"
        )
    return "\n".join(lines)
