#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
        one workload in this process; the last line of standard output is
        one JSON object {"correct", "attempted", "failed", "metrics"} with
        the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1)
    python3 perf/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
        every workload, each in a fresh subprocess, one after another,
        untraced and traced unless --trace picks one; results go to --out
    python3 perf/run.py --smoke
        reduced sizes; checks the benchmark itself (see smoke())

A mismatch against a workload's reference aborts with a diagnostic, a
non-zero exit code and no numbers.  See perf/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

now = time.perf_counter

#: Count metrics that must repeat exactly when the seed repeats (checked by
#: --smoke on the three closed-loop workloads; serve_mixed depends on timing).
EXACT = (
    "cost_ratio",
    "optimizer.dag_nodes",
    "maintenance.benefit_evaluations",
    "maintenance.greedy_iterations",
    "maintenance.selections",
    "maintenance.view_rows_changed",
    "maintenance.recomputed_views",
    "mqo.improvement_ratio",
    "engine.differential.calls",
    "engine.differential.rows_in",
    "engine.differential.rows_out",
    "storage.from_rows_calls",
    "storage.difference_calls",
    "stream.annihilated_rows",
    "host.traced_ops",
)


@functools.cache
def declared() -> dict:
    """BENCHMARK.json: the declared workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_string_hashes() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0``.

    String hashes are randomised per process, which moves dict and set
    layouts and with them the speed of small operations from run to run.
    Pinned, two runs of one commit differ by the host's noise only.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"}
        )


@functools.cache
def load_modules():
    """Import the program from this checkout's ``src/`` (no install step),
    then the benchmark's own modules, which import it."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf: the program is not here: {ROOT / 'src' / 'repro'} does not exist")
    sys.path[:0] = [str(ROOT / "src"), str(PERF)]
    from repro.storage.columns import numpy_enabled

    if not numpy_enabled():
        sys.exit("perf: the benchmark measures the numpy column backend, which is not active")
    import tracing
    import workloads

    return workloads, tracing


def calibration_ms() -> float:
    """A fixed pure-Python + numpy spin: flags a noisy host, never normalises."""
    import numpy

    walls = []
    for _ in range(3):
        begin = now()
        total = 0
        for i in range(150_000):
            total += i * i
        values = numpy.arange(200_000, dtype=numpy.float64)
        for _ in range(10):
            values = numpy.sqrt(values * values + 1.0)
        walls.append((now() - begin) * 1e3)
    return statistics.median(walls)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, spans: str = ""
) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``spans`` names a file that receives every span of a traced run.
    """
    workloads, tracing = load_modules()
    sizes = workloads.SMOKE if smoke else workloads.FULL
    workload = workloads.WORKLOADS[name](sizes, seconds)
    calibration_before = calibration_ms()
    inputs = workload.inputs(seed)

    setup_walls: List[float] = []
    state = None
    for _ in range(workload.setup_reps):
        state = None
        gc.collect()
        begin = now()
        state = workload.setup(inputs)
        setup_walls.append(now() - begin)

    tracer = tracing.Tracer() if trace else None
    m = workload.measure(state, inputs, seconds, tracer)
    calibration_after = calibration_ms()
    workload.check(state, inputs, m)  # raises Mismatch: no numbers on a wrong output

    if not trace:
        values = {
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": m.prefix_rss_mb,
            "op_p50_ms": m.op_p50_ms,
            "work_per_s": m.work_per_s,
            "cost_ratio": m.cost_ratio,
        }
        wanted = declared()["end_to_end"]
    else:
        if spans:
            tracer.write_spans(spans)
        ledger = tracer.ledger(m.prefix_mark)
        ledger.check_sum()
        traced = m.prefix_samples(traced_only=True)
        if traced:  # closed loop: the root spans are the operations themselves
            op_wall = sum(s.wall for s in traced)
            if abs(ledger.root_wall - op_wall) > tracing.SUM_TOLERANCE * op_wall:
                raise AssertionError(
                    f"root spans cover {ledger.root_wall:.4f}s of {op_wall:.4f}s traced operations"
                )
        with_trace, without = m.overhead_pairs
        values = {
            "host.traced_ops": len(traced),
            **ledger.metrics(),
            **m.layers,
            "host.calibration_before_ms": calibration_before,
            "host.calibration_after_ms": calibration_after,
            "host.trace_overhead_frac": (
                statistics.median(with_trace) / statistics.median(without) - 1.0
                if with_trace and without
                else 0.0
            ),
        }
        wanted = declared()["per_layer"]

    units = {metric["name"]: metric["unit"] for metric in wanted}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise AssertionError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer that did nothing on this workload reports 0 (per-layer only).
    metrics = {
        name: {"value": values.get(name, 0) if trace else values[name], "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": True,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


def show(name: str, trace: bool, result: dict) -> None:
    print(f"== {name} ({'per-layer, traced' if trace else 'end-to-end, untraced'}): "
          f"{result['attempted']} operations, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"{metric:44s} {entry['value']:.6g} {entry['unit']}")


def run_all(args) -> int:
    """Every workload in a fresh subprocess, one after another."""
    traces = [0, 1] if args.trace is None else [args.trace]
    results = []
    for name in [w["name"] for w in declared()["workloads"]]:
        for trace in traces:
            command = [
                sys.executable, str(PERF / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(done.stdout, end="")
                print(f"perf: {name} failed with exit code {done.returncode}", file=sys.stderr)
                return done.returncode
            *report, last = done.stdout.splitlines()
            print("\n".join(report), flush=True)
            results.append({"workload": name, "trace": trace, **json.loads(last)})
    out = Path(args.out) if args.out else PERF / "out" / f"run-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "results": results}, indent=1) + "\n")
    print(f"results written to {out}")
    return 0


#: Window of a --smoke run: shorter than any fixed prefix, so the prefix is
#: all that runs.
SMOKE_SECONDS = 0.05


def smoke(seed: int) -> int:
    """Check the benchmark itself on reduced sizes.

    Every declared metric is emitted with its unit under a well-formed name;
    traced self times add up (run_workload asserts it); the same seed
    repeats every exact count; another seed changes the generated inputs.
    """
    workloads, _ = load_modules()
    spec = declared()
    well_formed = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        runs = {}
        for attempt in (1, 2):
            for trace in (False, True):
                result = run_workload(name, seed, SMOKE_SECONDS, trace, smoke=True)
                section = spec["per_layer" if trace else "end_to_end"]
                for metric in section:
                    entry = result["metrics"].get(metric["name"])
                    assert well_formed.match(metric["name"]), metric["name"]
                    assert entry is not None and entry["unit"] == metric["unit"], metric["name"]
                assert len(result["metrics"]) == len(section), name
                assert result["failed"] == 0, (name, result["failed"])
                runs[attempt, trace] = result["metrics"]
        if name != "serve_mixed":
            for trace in (False, True):
                for metric in EXACT:
                    first = runs[1, trace].get(metric)
                    assert first == runs[2, trace].get(metric), (
                        f"{name}: {metric} did not repeat: {first} vs {runs[2, trace].get(metric)}"
                    )
        workload = workloads.WORKLOADS[name](workloads.SMOKE, SMOKE_SECONDS)
        assert workload.inputs(seed).digest() != workload.inputs(seed + 1).digest(), (
            f"{name}: seeds {seed} and {seed + 1} generate the same inputs"
        )
        print(f"smoke {name}: ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=20010521)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer ledger (default: 0, or both without --workload)")
    parser.add_argument("--out", help="write the results of a run of all workloads here")
    parser.add_argument("--spans", default="",
                        help="with --workload and --trace 1: write every span here, one JSON object per line")
    parser.add_argument("--smoke", action="store_true", help="check the benchmark on reduced sizes")
    args = parser.parse_args()
    pin_string_hashes()
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        return run_all(args)
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    workloads, _ = load_modules()
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), spans=args.spans
        )
    except workloads.Mismatch as mismatch:
        print(f"perf: WRONG OUTPUT: {mismatch}", file=sys.stderr)
        return 1
    show(args.workload, bool(args.trace), result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
