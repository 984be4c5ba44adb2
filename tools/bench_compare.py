#!/usr/bin/env python3
"""Diff the ``timing`` sub-objects of two ``BENCH_*.json`` trees.

Every benchmark in this repo records its machine-readable numbers under
``results/BENCH_<name>.json`` with wall-clock measurements grouped in
``timing`` objects (possibly nested — per point, per policy).  This tool
pairs two such trees — typically a baseline checkout's ``results/``
directory against the working tree's — and prints one line per shared
timing entry:

* keys ending in ``_seconds`` or ``_ms`` are wall times, reported as a
  **speedup** (baseline / current; > 1 means the current tree is faster) —
  the ``_ms`` spelling is what latency percentiles (``p50_ms`` / ``p99_ms``
  in ``BENCH_serving.json``) use;
* every other numeric key (speedup gates, ratios, throughputs) is reported
  as the plain change factor (current / baseline).

Usage::

    python tools/bench_compare.py <baseline> <current> [--fail-under RATIO]

where each argument is either a single ``BENCH_*.json`` file or a
directory containing them (only filenames present on both sides are
compared).  Exits non-zero when the two trees share no timing entries at
all — a wiring error in CI, not a benchmark regression.

``--fail-under`` turns the table into a regression gate: when the
geometric-mean speedup over all shared wall-clock entries falls below the
given ratio, the exit status is non-zero.  A floor of ``0.8`` tolerates
~20% noise on shared CI runners while still catching real slowdowns.
Sub-millisecond cells (either side below 1 ms) are shown but excluded from
the geomean: at that scale scheduler jitter dwarfs the measurement, and a
noise-driven 0.3 ms → 0.9 ms swing must not fail the gate on its own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Iterator, List, Tuple


def _timing_entries(payload, path: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, value)`` for every numeric leaf under a ``timing``."""
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            child = f"{path}.{key}" if path else key
            if key == "timing" and isinstance(value, dict):
                for leaf, number in sorted(value.items()):
                    if isinstance(number, (int, float)) and not isinstance(number, bool):
                        yield f"{child}.{leaf}", float(number)
            else:
                yield from _timing_entries(value, child)
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            yield from _timing_entries(item, f"{path}[{index}]")


def _is_wall_clock(entry: str) -> bool:
    """Whether a timing key records a wall-clock duration (ratio = speedup)."""
    leaf = entry.rsplit(".", 1)[-1]
    return leaf.endswith("_seconds") or leaf.endswith("_ms")


def _sub_millisecond(entry: str, old_value: float, new_value: float) -> bool:
    """Whether either side of a wall-clock cell is below one millisecond.

    Such cells are noise-dominated on shared runners and are excluded from
    the geomean gate (still printed, marked ``~``).
    """
    floor = 1.0 if entry.rsplit(".", 1)[-1].endswith("_ms") else 0.001
    return old_value < floor or new_value < floor


def _load(path: str) -> Dict[str, dict]:
    """Map ``BENCH_*.json`` basenames to parsed payloads for a file or dir."""
    if os.path.isdir(path):
        names = sorted(
            name
            for name in os.listdir(path)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        files = [os.path.join(path, name) for name in names]
    else:
        files = [path]
    payloads = {}
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            payloads[os.path.basename(file)] = json.load(handle)
    return payloads


def compare_trees(baseline: str, current: str) -> List[Tuple[str, float, float, float]]:
    """``(entry, baseline_value, current_value, ratio)`` per shared timing leaf.

    The ratio follows the key's meaning: baseline/current for ``*_seconds``
    (speedup), current/baseline otherwise (change factor).
    """
    old_payloads = _load(baseline)
    new_payloads = _load(current)
    if os.path.isfile(baseline) and os.path.isfile(current):
        # Two explicit files always pair with each other, whatever their
        # basenames (e.g. a downloaded artifact vs the working tree).
        name = os.path.basename(current)
        old_payloads = {name: next(iter(old_payloads.values()))}
        new_payloads = {name: next(iter(new_payloads.values()))}
    rows = []
    for name in sorted(set(old_payloads) & set(new_payloads)):
        old_entries = dict(_timing_entries(old_payloads[name]))
        new_entries = dict(_timing_entries(new_payloads[name]))
        for entry in sorted(set(old_entries) & set(new_entries)):
            old_value = old_entries[entry]
            new_value = new_entries[entry]
            if _is_wall_clock(entry):
                ratio = old_value / new_value if new_value else math.inf
            else:
                ratio = new_value / old_value if old_value else math.inf
            rows.append((f"{name}:{entry}", old_value, new_value, ratio))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json file or results/ dir")
    parser.add_argument("current", help="current BENCH_*.json file or results/ dir")
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero when the geometric-mean wall-clock speedup "
        "(baseline/current) falls below this ratio",
    )
    args = parser.parse_args(argv)

    rows = compare_trees(args.baseline, args.current)
    if not rows:
        print("bench_compare: no shared timing entries between the two trees", file=sys.stderr)
        return 1

    width = max(len(entry) for entry, *_ in rows)
    print(f"{'entry'.ljust(width)}  {'baseline':>12}  {'current':>12}  {'ratio':>8}")
    speedups = []
    ignored = 0
    for entry, old_value, new_value, ratio in rows:
        wall_clock = _is_wall_clock(entry)
        if not wall_clock:
            marker = "·"
        elif _sub_millisecond(entry, old_value, new_value):
            marker = "~"  # sub-millisecond: printed, excluded from the gate
        else:
            marker = "x"
        print(f"{entry.ljust(width)}  {old_value:12.6g}  {new_value:12.6g}  {ratio:7.2f}{marker}")
        if wall_clock and math.isfinite(ratio) and ratio > 0:
            if _sub_millisecond(entry, old_value, new_value):
                ignored += 1
            else:
                speedups.append(ratio)
    geomean = None
    if speedups:
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        print(f"\ngeometric-mean speedup over {len(speedups)} timing entries: {geomean:.2f}x")
        if ignored:
            print(f"({ignored} sub-millisecond entr{'y' if ignored == 1 else 'ies'} excluded from the gate)")
    if args.fail_under is not None:
        if geomean is None:
            if ignored:
                # Every shared wall-clock cell was sub-millisecond: nothing
                # the gate could meaningfully judge — pass, loudly.
                print(
                    f"bench_compare: all {ignored} wall-clock entries are "
                    f"sub-millisecond; the --fail-under gate has nothing to "
                    f"judge and passes",
                    file=sys.stderr,
                )
                return 0
            # A gate over zero wall-clock entries would vacuously pass —
            # treat it as the same wiring error as two disjoint trees.
            print(
                "bench_compare: --fail-under given but no wall-clock entries "
                "were compared",
                file=sys.stderr,
            )
            return 1
        if geomean < args.fail_under:
            print(
                f"bench_compare: geometric-mean speedup {geomean:.2f}x is below "
                f"the --fail-under floor {args.fail_under:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
