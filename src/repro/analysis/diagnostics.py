"""Structured diagnostics for the static-analysis passes.

Every static check in :mod:`repro.analysis` — the expression analyzer, the
plan verifier — reports problems as :class:`Diagnostic` objects instead of
raising mid-walk: a diagnostic carries a stable error code, a severity, a
human message, the path to the offending node, and a fix hint.  Callers
decide what to do with them (the :class:`~repro.api.Warehouse` raises a
``WarehouseError`` on analyzer errors; the physical executor raises a
``PhysicalPlanError`` on verifier errors and renders the same codes for
run-time resolution failures; ``explain`` renders them inline).

Code families
-------------

* ``REPRO-A0xx`` — expression analyzer (:mod:`repro.analysis.typecheck`)
* ``REPRO-P0xx`` — plan verifier (:mod:`repro.analysis.planlint`)
* ``REPRO-L0xx`` — repo invariant linter (``tools/lint_invariants.py``)

The linter lives outside the package (it lints this repository, not user
queries) but shares the code namespace so one table documents everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "Diagnostic",
    "CODES",
    "SEVERITIES",
    "errors",
    "warnings",
    "has_errors",
    "render_diagnostics",
]

#: Every diagnostic code the static-analysis subsystem can emit, with the
#: one-line meaning documented in ARCHITECTURE.md.  Tests assert codes used
#: at runtime appear here, so the table cannot silently drift.
CODES: Dict[str, str] = {
    # ----------------------------------------------- expression analyzer (A)
    "REPRO-A001": "unknown base relation",
    "REPRO-A002": "unknown column",
    "REPRO-A003": "ambiguous column reference",
    "REPRO-A004": "comparison between incompatible types",
    "REPRO-A005": "join condition over incompatible key types",
    "REPRO-A006": "aggregate requires a numeric input column",
    "REPRO-A007": "union inputs do not line up",
    "REPRO-A008": "difference inputs do not line up",
    "REPRO-A009": "duplicate output column name",
    # --------------------------------------------------- plan verifier (P)
    "REPRO-P001": "plan step references a column its input does not produce",
    "REPRO-P002": "join condition unresolvable or over incompatible types",
    "REPRO-P003": "index nested-loop join misdirected (inner side/index)",
    "REPRO-P004": "delta references a relation outside the update round",
    "REPRO-P005": "stale delta rule (delta schema disagrees with its base)",
    "REPRO-P006": "reused result is not materialized",
    "REPRO-P007": "shared temporaries are not topologically ordered",
    "REPRO-P008": "set-operation inputs have different arities",
    "REPRO-P009": "plan scans a relation unknown to the database",
    # ------------------------------------------------ invariant linter (L)
    "REPRO-L001": "numpy imported outside storage/columns.py",
    "REPRO-L002": "wall-clock call outside a sanctioned timing writer",
    "REPRO-L003": "Relation internals mutated outside storage/relation.py",
    "REPRO-L004": "mutable default argument",
    "REPRO-L005": "package __init__ missing __all__",
    "REPRO-L006": "unused module-level import",
    "REPRO-L007": "builtin name shadowed",
    "REPRO-L008": "multiprocessing or concurrent.futures imported under src/repro",
    "REPRO-L009": "threading imported outside src/repro/serving/",
    "REPRO-L010": "aggregate-state mapping written outside engine/database.py",
    "REPRO-L011": "storage/index.py materializes a relation's rows or store",
    "REPRO-L013": "object.__setattr__ outside __init__/__post_init__ under src/repro",
    "REPRO-L014": "StreamScheduler built or _refresh_rounds called outside the ingest pipeline",
    "REPRO-L015": "a plan's join algorithm label read under src/repro/engine/",
    "REPRO-L016": "a reference kernel called from DifferentialEngine or engine/physical.py",
}

#: Diagnostic severities, in increasing order of trouble.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    #: Stable code from :data:`CODES` (``REPRO-A002``, ``REPRO-P001``, ...).
    code: str
    #: ``"error"`` (the expression/plan cannot run correctly) or
    #: ``"warning"`` (suspicious but executable).
    severity: str
    #: Human-readable statement of the problem.
    message: str
    #: Slash-separated path from the root to the offending node
    #: (``"aggregate/select/join"`` for expressions, plan-step descriptions
    #: for plans).  Empty when the finding is global.
    path: str = ""
    #: Actionable fix suggestion, when one exists.
    hint: str = ""

    def render(self) -> str:
        """One-line rendering: ``code [severity] message (at path; hint)``."""
        parts = [f"{self.code} [{self.severity}] {self.message}"]
        if self.path:
            parts.append(f"at {self.path}")
        if self.hint:
            parts.append(f"hint: {self.hint}")
        return " — ".join(parts)


def errors(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset, original order preserved."""
    return [d for d in diagnostics if d.severity == "error"]


def warnings(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The warning-severity subset, original order preserved."""
    return [d for d in diagnostics if d.severity == "warning"]


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    """Whether any diagnostic is an error."""
    return any(d.severity == "error" for d in diagnostics)


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line rendering used by error messages and ``explain`` output."""
    if not diagnostics:
        return "no diagnostics"
    return "\n".join(d.render() for d in diagnostics)
