"""Rendering of experiment results as text tables.

The paper reports its results as line plots; this reproduction records the
same series as text tables (one row per update percentage) so they can be
diffed and asserted on in benchmarks.

**Determinism contract.**  Everything written to ``results/*.txt`` is a pure
function of the code and the fixed seeds — plan costs, cardinalities, row
counts, selections — so a PR that does not change behavior produces a
byte-identical file.  Wall-clock measurements never reach these tables;
end-to-end timings are ``perf/``'s job.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.bench.harness import FigureSeries


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


def format_comparison(label: str, values: Mapping[str, object]) -> str:
    """Render a simple name→value summary block."""
    lines = [label]
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f"  {key}: {value:.3f}")
        else:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def format_estimation(result) -> str:
    """Text table for the estimation-quality experiment.

    Accepts an :class:`repro.bench.estimation.EstimationQualityResult`
    (duck-typed, to keep this module free of experiment imports).
    """
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
        f"{table}"
    )
