#!/usr/bin/env python3
"""Compare two sides of benchmark results, one row per workload x metric.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

Each file is what ``perf/run.py --out`` wrote.  A side's value is the median
over its files; the ratio is B's median over A's (the base).  The verdict
uses the metric's bound from BENCHMARK.json:

    worse / better   B's median differs from A's by more than the bound
    same             it does not
    unresolved       either side's own spread (quartile distance over the
                     median) exceeds the bound — unless every run of one
                     side beats every run of the other

Per-layer metrics have no bound; with ``--layers`` they are listed with
both medians and the ratio only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (workload, trace, metric) -> one value per result file
Side = Dict[Tuple[str, int, str], List[float]]


def load(paths: List[str]) -> Side:
    side: Side = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            for metric, entry in result["metrics"].items():
                side.setdefault((result["workload"], result["trace"], metric), []).append(entry["value"])
    return side


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 with a single run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        if all(sign * y > sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def quartile_text(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.5g}"
    quartiles = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{quartiles[0]:.5g}..{quartiles[2]:.5g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", help="exactly two files: A B")
    parser.add_argument("--a", nargs="+", default=[], help="result files of the base side")
    parser.add_argument("--b", nargs="+", default=[], help="result files of the other side")
    parser.add_argument("--layers", action="store_true", help="also list the per-layer metrics")
    args = parser.parse_args()
    if args.files and not (args.a or args.b) and len(args.files) == 2:
        args.a, args.b = args.files[:1], args.files[1:]
    if not (args.a and args.b) or (args.files and len(args.files) != 2):
        parser.error("give two files, or --a FILES --b FILES")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(args.a), load(args.b)
    sections = [(0, spec["end_to_end"])] + ([(1, spec["per_layer"])] if args.layers else [])
    print(f"A = {len(args.a)} file(s) (base), B = {len(args.b)} file(s); "
          f"median [first..third quartile]; ratio = B / A")
    worse = 0
    for trace, metrics in sections:
        for workload in [w["name"] for w in spec["workloads"]]:
            for metric in metrics:
                key = (workload, trace, metric["name"])
                if key not in a or key not in b:
                    continue
                base = statistics.median(a[key])
                ratio = statistics.median(b[key]) / base if base else float("nan")
                row = (f"{workload:14s} {metric['name']:40s} {metric['unit']:6s} "
                       f"A {quartile_text(a[key]):32s} B {quartile_text(b[key]):32s} "
                       f"B/A {ratio:7.4f} (base {base:.5g})")
                if "bound" in metric:
                    outcome = verdict(a[key], b[key], metric["better"], metric["bound"])
                    worse += outcome == "worse"
                    row += f"  {metric['better']} is better, bound {metric['bound']:g}: {outcome}"
                print(row)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
