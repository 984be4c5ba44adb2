"""Columnar engine scale ramp over growing scale factors.

This benchmark executes the fig3 views (a four-relation join and an
aggregation over it) through the physical pipeline at SF 0.002 → 0.02 →
0.1, checks each bag against a freshly recomputed interpreter oracle, and
records the timings to ``results/BENCH_columnar.json`` — the artifact
``tools/bench_compare.py`` diffs across commits.

The scale ramp is trimmed via ``COLUMNAR_SCALE_FACTORS`` (comma-separated)
on constrained runners.
"""

import os
import time
from collections import Counter

from repro.engine import executor
from repro.engine.physical import PhysicalExecutor
from repro.workloads import queries
from repro.workloads.datagen import small_database

from benchmarks.helpers import write_json_result

#: The ramp the tentpole claims cover (ROADMAP: "scale factors beyond
#: 0.002").  Overridable so CI smoke runs can stop at 0.02.
SCALE_FACTORS = tuple(
    float(token)
    for token in os.environ.get("COLUMNAR_SCALE_FACTORS", "0.002,0.02,0.1").split(",")
    if token.strip()
)

REPETITIONS = 2


def _ramp_views():
    views = {}
    views.update(queries.standalone_join_view())
    views.update(queries.standalone_agg_view())
    return views


def _best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_columnar_scale_ramp(benchmark):
    """The physical pipeline stays bag-identical to recomputation as scale grows."""
    views = _ramp_views()
    points = []

    def run_ramp():
        for scale_factor in SCALE_FACTORS:
            database = small_database(scale_factor=scale_factor)
            physical = PhysicalExecutor(database)
            verified = True
            elapsed = 0.0
            for expression in views.values():
                physical.evaluate(expression)  # warm plan + stores
                elapsed += _best_time(lambda e=expression: physical.evaluate(e))
                # Recompute through the row-at-a-time interpreter: the oracle.
                verified = verified and Counter(
                    physical.evaluate(expression).iter_rows()
                ) == Counter(executor.evaluate(expression, database).iter_rows())
            points.append(
                {
                    "scale_factor": scale_factor,
                    "views": len(views),
                    "verified": verified,
                    "timing": {"physical_seconds": elapsed},
                }
            )

    benchmark.pedantic(run_ramp, rounds=1, iterations=1)
    write_json_result("columnar", {"experiment": "columnar_scale", "points": points})

    for point in points:
        assert point["verified"], (
            f"physical execution diverged from recomputation at "
            f"SF {point['scale_factor']}"
        )
