"""Static analysis: expression type checking and plan verification.

Two of the three static passes live here (the third, the repo invariant
linter, is ``tools/lint_invariants.py`` — it lints this repository rather
than user queries, but shares the ``REPRO-Lxxx`` code namespace):

* :mod:`repro.analysis.typecheck` — schema/dtype/nullability inference and
  column provenance over :class:`~repro.algebra.expressions.Expression`
  trees, emitting ``REPRO-Axxx`` diagnostics;
* :mod:`repro.analysis.planlint` — pre-execution verification of compiled
  plans, update rounds, and MQO temporary ordering, emitting
  ``REPRO-Pxxx`` diagnostics.

Both passes report through :class:`~repro.analysis.diagnostics.Diagnostic`
and never raise on bad input — callers decide the failure policy.
"""

from repro.analysis.diagnostics import (
    CODES,
    SEVERITIES,
    Diagnostic,
    errors,
    has_errors,
    render_diagnostics,
    warnings,
)
from repro.analysis.planlint import (
    render_verification,
    verify_delta_round,
    verify_plan,
    verify_temporaries,
)
from repro.analysis.typecheck import (
    AnalysisResult,
    ColumnInfo,
    ColumnProvenance,
    analyze,
    compatible_types,
    provenance,
    structural_diagnostics,
)

__all__ = [
    "CODES",
    "SEVERITIES",
    "Diagnostic",
    "errors",
    "warnings",
    "has_errors",
    "render_diagnostics",
    "AnalysisResult",
    "ColumnInfo",
    "ColumnProvenance",
    "analyze",
    "compatible_types",
    "provenance",
    "structural_diagnostics",
    "verify_plan",
    "verify_delta_round",
    "verify_temporaries",
    "render_verification",
]
