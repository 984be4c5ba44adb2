"""Rendering of experiment results: text tables and machine-readable JSON.

The paper reports its results as line plots; this reproduction records the
same series as text tables (one row per update percentage) so they can be
diffed, asserted on in benchmarks, and pasted into ``EXPERIMENTS.md``.  Each
result also serializes to a JSON payload (written as ``BENCH_<name>.json``
under ``results/`` by the benchmark suite) so the performance trajectory can
be tracked across changes by tooling instead of eyeballs.

**Determinism contract.**  Everything written to ``results/*.txt`` is a pure
function of the code and the fixed seeds — plan costs, cardinalities, row
counts, selections — so a PR that does not change behavior produces a
byte-identical file.  Wall-clock measurements (seconds, milliseconds, and
the speedups derived from them) are machine noise by nature; they are
excluded from the text tables and isolated in ``"timing"`` sub-objects of
the JSON payloads (one per payload/point), so a noisy re-run churns exactly
those sub-objects and nothing else.  :func:`split_timing` is the single
classifier both sides use.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.bench.harness import FigurePoint, FigureSeries

#: Key shapes that denote wall-clock measurements (and their derivatives).
_TIMING_SUFFIXES = ("_seconds", "_ms", "_speedup")


def is_timing_key(key: str) -> bool:
    """Whether a result field holds a wall-clock measurement (or derivative)."""
    return key.endswith(_TIMING_SUFFIXES) or key in ("speedup", "seconds", "ms")


def split_timing(values: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Partition a flat result mapping into (deterministic, timing) halves."""
    deterministic: Dict[str, Any] = {}
    timing: Dict[str, Any] = {}
    for key, value in values.items():
        (timing if is_timing_key(key) else deterministic)[key] = value
    return deterministic, timing


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    widths = {col: len(col) for col in columns}
    rendered: List[Dict[str, str]] = []
    for row in rows:
        formatted = {}
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.2f}"
            else:
                text = str(value)
            formatted[col] = text
            widths[col] = max(widths[col], len(text))
        rendered.append(formatted)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(row[col].rjust(widths[col]) for col in columns) for row in rendered
    ]
    return "\n".join([header, separator, *body])


def format_series(series: FigureSeries) -> str:
    """Render one figure's sweep as a table, mirroring the paper's plot."""
    rows = series.as_rows()
    table = format_table(rows, ["update_pct", "no_greedy", "greedy", "ratio", "selections"])
    return f"{series.experiment}: {series.description}\n{table}"


def format_comparison(label: str, values: Mapping[str, float]) -> str:
    """Render a simple name→value summary block.

    Wall-clock fields (see :func:`is_timing_key`) are omitted — they live in
    the JSON payload's ``timing`` sub-object — so the text file stays
    deterministic across re-runs.
    """
    deterministic, timing = split_timing(values)
    lines = [label]
    for key, value in deterministic.items():
        if isinstance(value, float):
            lines.append(f"  {key}: {value:.3f}")
        else:
            lines.append(f"  {key}: {value}")
    if timing:
        lines.append(
            f"  (wall-clock fields — {', '.join(timing)} — recorded in the "
            f"BENCH json only)"
        )
    return "\n".join(lines)


# -------------------------------------------------------------- JSON payloads

def series_payload(series: FigureSeries) -> Dict[str, Any]:
    """A JSON-serializable payload for one figure sweep.

    Records every :class:`FigurePoint` field (plan costs, selections,
    optimization timings) so cross-change comparisons do not depend on the
    text rendering.
    """
    return {
        "experiment": series.experiment,
        "description": series.description,
        "points": [_point_payload(point) for point in series.points],
        "max_benefit_ratio": series.max_ratio(),
    }


def _point_payload(point: FigurePoint) -> Dict[str, Any]:
    return {
        "update_percentage": point.update_percentage,
        "no_greedy_cost": point.no_greedy_cost,
        "greedy_cost": point.greedy_cost,
        "benefit_ratio": point.benefit_ratio,
        "greedy_selections": point.greedy_selections,
        "greedy_indexes": point.greedy_indexes,
        "greedy_permanent": point.greedy_permanent,
        "greedy_temporary": point.greedy_temporary,
        "timing": {"optimization_seconds": point.optimization_seconds},
    }


def comparison_payload(label: str, values: Mapping[str, Any]) -> Dict[str, Any]:
    """A JSON-serializable payload for a name→value summary block.

    Wall-clock fields are split out into the ``timing`` sub-object per the
    module's determinism contract.
    """
    deterministic, timing = split_timing(values)
    payload: Dict[str, Any] = {"label": label, "values": deterministic}
    if timing:
        payload["timing"] = timing
    return payload


def execution_payload(result) -> Dict[str, Any]:
    """A JSON-serializable payload for a physical-vs-interpreter comparison.

    Accepts an :class:`repro.bench.experiments.ExecutionComparisonResult`
    (duck-typed, to keep this module free of experiment imports).
    """
    return {
        "experiment": result.experiment,
        "scale_factor": result.scale_factor,
        # Physical timings are execution-only: planning is a one-time,
        # cached cost, reported per point under timing.planning_seconds.
        "plan_cache_warmed": True,
        "points": [
            {
                "view": p.view,
                "rows": p.rows,
                "plan_cost": p.plan_cost,
                "timing": {
                    "logical_seconds": p.logical_seconds,
                    "physical_seconds": p.physical_seconds,
                    "planning_seconds": p.planning_seconds,
                    "speedup": p.speedup,
                },
            }
            for p in result.points
        ],
        "timing": {
            "total_logical_seconds": result.total_logical_seconds,
            "total_physical_seconds": result.total_physical_seconds,
            "overall_speedup": result.overall_speedup,
        },
    }


def refresh_payload(result) -> Dict[str, Any]:
    """A JSON-serializable payload for a refresh-path comparison.

    Accepts an :class:`repro.bench.experiments.RefreshComparisonResult`
    (duck-typed, like :func:`execution_payload`).
    """
    return {
        "experiment": result.experiment,
        "scale_factor": result.scale_factor,
        "update_percentage": result.update_percentage,
        "all_verified": result.all_verified,
        "points": [
            {
                "workload": p.workload,
                "views": p.views,
                "rounds": p.rounds,
                "changes": p.changes,
                "verified": p.verified,
                "timing": {"vectorized_seconds": p.vectorized_seconds},
            }
            for p in result.points
        ],
        "timing": {
            "total_vectorized_seconds": result.total_vectorized_seconds,
        },
    }


def estimation_payload(result) -> Dict[str, Any]:
    """A JSON-serializable payload for the estimation-quality experiment.

    Accepts an :class:`repro.bench.estimation.EstimationQualityResult`
    (duck-typed, like :func:`execution_payload`).
    """
    return {
        "experiment": result.experiment,
        "scale_factor": result.scale_factor,
        "workloads": [
            {
                "workload": workload.workload,
                "views": workload.views,
                "modes": {
                    mode: {
                        "operators": len(mres.estimates),
                        "estimated_operators": len(mres.qerrors),
                        "median_qerror": mres.median_qerror,
                        "mean_qerror": mres.mean_qerror,
                        "max_qerror": mres.max_qerror,
                        "plan_cost": mres.plan_cost,
                        "timing": {"runtime_seconds": mres.runtime_seconds},
                    }
                    for mode, mres in workload.modes.items()
                },
            }
            for workload in result.workloads
        ],
    }


def _timing_note(experiment: str) -> str:
    return f"(wall-clock timings and speedups: results/BENCH_{experiment}.json)"


def format_estimation(result) -> str:
    """Text table for the estimation-quality experiment (deterministic only)."""
    table = format_table(
        result.as_rows(),
        [
            "workload",
            "mode",
            "operators",
            "median_qerror",
            "mean_qerror",
            "max_qerror",
            "plan_cost",
        ],
    )
    return (
        f"{result.experiment}: histogram + runtime-feedback estimation vs the "
        f"System-R uniformity baseline (scale factor {result.scale_factor})\n"
        f"{table}\n{_timing_note(result.experiment)}"
    )


def format_refresh_comparison(result) -> str:
    """Text table for a refresh-path comparison (deterministic only)."""
    table = format_table(
        result.as_rows(),
        ["workload", "views", "rounds", "changes", "verified"],
    )
    summary = f"verified={result.all_verified} {_timing_note(result.experiment)}"
    return (
        f"{result.experiment}: vectorized differential engine, every round "
        f"verified against recomputation (scale factor {result.scale_factor}, "
        f"{result.update_percentage:.0%} updates)\n{table}\n{summary}"
    )


def format_execution_comparison(result) -> str:
    """Text table for a physical-vs-interpreter comparison (deterministic only)."""
    table = format_table(
        result.as_rows(),
        ["view", "rows", "plan_cost"],
    )
    return (
        f"{result.experiment}: vectorized physical plans vs row-at-a-time "
        f"interpreter (scale factor {result.scale_factor})\n{table}\n"
        f"{_timing_note(result.experiment)}"
    )


def stream_payload(result) -> Dict[str, Any]:
    """A JSON-serializable payload for the stream-policy comparison.

    Accepts a :class:`repro.bench.experiments.StreamComparisonResult`
    (duck-typed, like :func:`execution_payload`).
    """
    return {
        "experiment": result.experiment,
        "scale_factor": result.scale_factor,
        "update_percentage": result.update_percentage,
        "rounds": result.rounds,
        "overlap": result.overlap,
        "views": result.views,
        "views_identical": result.views_identical,
        "all_verified": result.all_verified,
        "rows_saved": result.rows_saved,
        "policies": [
            {
                "policy": o.policy,
                "flushes": o.flushes,
                "rounds_refreshed": o.rounds_refreshed,
                "skipped_flushes": o.skipped_flushes,
                "base_rows_applied": o.base_rows_applied,
                "view_rows_changed": o.view_rows_changed,
                "view_recomputations": o.view_recomputations,
                "annihilated_rows": o.annihilated_rows,
                "rows_propagated": o.rows_propagated,
                "verified": o.verified,
                "timing": {"refresh_seconds": o.refresh_seconds},
            }
            for o in result.outcomes.values()
        ],
        "timing": {"speedup": result.speedup},
    }


def format_stream_comparison(result) -> str:
    """Text table for the stream-policy comparison (deterministic only)."""
    table = format_table(
        result.as_rows(),
        [
            "policy",
            "flushes",
            "rounds_refreshed",
            "base_rows",
            "view_rows",
            "recomputes",
            "annihilated",
            "verified",
        ],
    )
    summary = (
        f"rows saved by coalescing+deferral: {result.rows_saved} "
        f"(views identical: {result.views_identical}, verified: "
        f"{result.all_verified}) {_timing_note(result.experiment)}"
    )
    return (
        f"{result.experiment}: eager per-round refresh vs coalesced deferred "
        f"refresh (scale factor {result.scale_factor}, "
        f"{result.update_percentage:.0%} updates x {result.rounds} rounds, "
        f"{result.overlap:.0%} insert/delete overlap)\n{table}\n{summary}"
    )


def render_json(payload: Mapping[str, Any]) -> str:
    """Stable JSON rendering for ``BENCH_*.json`` files."""
    return json.dumps(payload, indent=2, sort_keys=True)
