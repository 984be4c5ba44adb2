"""Pre-execution verification of physical plans and differential rules.

``verify_plan`` walks an optimizer-extracted
:class:`~repro.optimizer.plans.PlanNode` tree *before* it is compiled and
run, checking that every step is actually executable over what its inputs
produce:

* projection / selection / group-by columns resolve against the input
  schema the plan really builds (``REPRO-P001`` — the "mutated payload"
  fault);
* join conditions bind in some orientation and the bound key columns have
  comparable types (``REPRO-P002``);
* index nested-loop joins point their probe at a stored inner side, and
  that side carries a usable catalog index (``REPRO-P003`` — the "wrong
  join orientation" fault; a missing index is only a warning, because every
  join executes as a hash join and only the plan's cost is wrong);
* set operations combine same-arity inputs (``REPRO-P008``), scans name
  known relations (``REPRO-P009``), reuse leaves are resolvable
  (``REPRO-P006``).

``verify_delta_round`` checks an update round before it is propagated:
every delta names a relation known to the database (``REPRO-P004``) and
each delta's bags still carry the base relation's schema — a delta logged
against an outdated schema is the classic *stale δ-rule* (``REPRO-P005``).

``verify_temporaries`` checks the MQO shared-temporary materialization
order: a temporary whose expression contains another temporary must come
*after* it (``REPRO-P007``).

Everything here is conservative: a check that would need information the
verifier does not have (an opaque sub-plan, a missing catalog) is skipped,
never guessed — plans for every supported workload must verify with zero
diagnostics.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.algebra.expressions import BaseRelation, Expression, walk
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.typecheck import compatible_types
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema, SchemaError
from repro.optimizer.dag import OperatorKind
from repro.optimizer.plans import PlanNode
from repro.storage.delta import DeltaStore

__all__ = [
    "verify_plan",
    "verify_delta_round",
    "verify_temporaries",
    "render_verification",
]


def _position_of(schema: Schema, name: str) -> Optional[int]:
    """Resolve ``name`` in ``schema`` (None when missing or ambiguous)."""
    try:
        return schema.index_of(name)
    except SchemaError:
        return None


class _PlanVerifier:
    """One verification walk over a plan tree."""

    def __init__(
        self,
        database: Optional[Any],
        catalog: Optional[Catalog],
        materialized: Optional[Any],
    ) -> None:
        self.database = database
        if catalog is None and database is not None:
            catalog = database.catalog
        self.catalog = catalog
        self.materialized = materialized
        self.diagnostics: List[Diagnostic] = []

    def report(
        self, code: str, severity: str, message: str, node: PlanNode, hint: str = ""
    ) -> None:
        self.diagnostics.append(
            Diagnostic(code, severity, message, node.description, hint)
        )

    # The walk returns each step's output schema, or None when it cannot be
    # determined (opaque leaves, failed children): checks needing an unknown
    # schema are skipped so one root cause produces one diagnostic.

    def infer(self, node: PlanNode) -> Optional[Schema]:
        if node.reused:
            return self._reuse(node)
        op = node.operator
        if op is None:
            if isinstance(node.expression, BaseRelation):
                return self._scan_schema(node.expression.name, node)
            # Exotic leaf: no operator to verify (compilation rejects it).
            return self._expression_schema(node.expression)
        if op.kind is OperatorKind.SCAN:
            return self._scan_schema(op.relation, node)
        inputs = [self.infer(child) for child in node.children]
        if op.kind is OperatorKind.SELECT:
            schema = inputs[0] if inputs else None
            if schema is not None and op.predicate is not None:
                self._check_columns(
                    sorted(op.predicate.columns()), schema, node,
                    what="selection predicate",
                )
            return schema
        if op.kind is OperatorKind.PROJECT:
            schema = inputs[0] if inputs else None
            if schema is None:
                return None
            missing = self._check_columns(
                op.columns, schema, node, what="projection"
            )
            if missing:
                return None
            return schema.project(op.columns)
        if op.kind is OperatorKind.JOIN:
            return self._join(node, inputs)
        if op.kind is OperatorKind.AGGREGATE:
            return self._aggregate(node, inputs)
        if op.kind in (OperatorKind.UNION, OperatorKind.DIFFERENCE):
            return self._setop(node, inputs)
        if op.kind is OperatorKind.DISTINCT:
            return inputs[0] if inputs else None
        return None

    # -------------------------------------------------------------- leaves

    def _scan_schema(self, relation: Optional[str], node: PlanNode) -> Optional[Schema]:
        if relation is None:
            return None
        if self.catalog is not None and self.catalog.has_table(relation):
            return self.catalog.schema(relation)
        if self.database is not None:
            if self.database.has_relation(relation):
                return self.database.table(relation).schema
            self.report(
                "REPRO-P009",
                "error",
                f"plan scans relation {relation!r}, which the database does "
                f"not contain",
                node,
                "load the relation or drop the view using it",
            )
            return None
        return None

    def _reuse_candidates(self, node: PlanNode) -> List[str]:
        """Names a reuse step may resolve to, mirroring ``compile_reuse``.

        Registry bindings are keyed by the expression's canonical form and
        win over the plan's DAG-scoped ``view_name`` label.
        """
        candidates: List[str] = []
        if self.materialized is not None and node.expression is not None:
            registered = self.materialized.lookup(node.expression)
            if registered:
                candidates.append(registered)
        if node.view_name:
            candidates.append(node.view_name)
        return candidates

    def _resolve_reuse(self, node: PlanNode) -> Optional[str]:
        """The stored name a reuse step will actually read, if any."""
        if self.database is None:
            return None
        for name in self._reuse_candidates(node):
            if self.database.has_view(name) or self.database.has_relation(name):
                return name
        return None

    def _reuse(self, node: PlanNode) -> Optional[Schema]:
        resolved = self._resolve_reuse(node)
        if self.database is not None and resolved is None:
            label = ", ".join(self._reuse_candidates(node)) or node.description
            self.report(
                "REPRO-P006",
                "error",
                f"reused result {label!r} is not materialized",
                node,
                "materialize the result (or re-plan) before executing",
            )
        if resolved is not None:
            if self.database.has_view(resolved):
                return self.database.view(resolved).schema
            return self.database.table(resolved).schema
        return self._expression_schema(node.expression)

    def _expression_schema(self, expression: Optional[Expression]) -> Optional[Schema]:
        if expression is None or self.catalog is None:
            return None
        try:
            from repro.algebra.schema_derivation import derive_schema

            return derive_schema(expression, self.catalog)
        except Exception:
            return None

    # ----------------------------------------------------------- operators

    def _check_columns(
        self,
        columns: Sequence[str],
        schema: Schema,
        node: PlanNode,
        *,
        what: str,
    ) -> List[str]:
        """Report columns unresolvable in ``schema``; returns the missing ones."""
        missing: List[str] = []
        for name in columns:
            if _position_of(schema, name) is None:
                missing.append(name)
                self.report(
                    "REPRO-P001",
                    "error",
                    f"{what} references {name!r}, which the input does not "
                    f"produce (input columns: "
                    f"{', '.join(c.unqualified for c in schema.columns)})",
                    node,
                    "the plan payload disagrees with its input — replan "
                    "instead of patching plan steps",
                )
        return missing

    def _join(
        self, node: PlanNode, inputs: List[Optional[Schema]]
    ) -> Optional[Schema]:
        left = inputs[0] if len(inputs) > 0 else None
        right = inputs[1] if len(inputs) > 1 else None
        op = node.operator
        bound: List[Tuple[int, int]] = []
        if left is not None and right is not None:
            for a, b in op.conditions:
                la, rb = _position_of(left, a), _position_of(right, b)
                if la is None or rb is None:
                    lb, ra = _position_of(left, b), _position_of(right, a)
                    if lb is not None and ra is not None:
                        la, rb = lb, ra
                    else:
                        self.report(
                            "REPRO-P002",
                            "error",
                            f"join condition {a!r}={b!r} binds in neither "
                            f"orientation (left: "
                            f"{', '.join(c.unqualified for c in left.columns)}"
                            f"; right: "
                            f"{', '.join(c.unqualified for c in right.columns)})",
                            node,
                            "join conditions must name one column from each "
                            "input",
                        )
                        continue
                bound.append((la, rb))
                ltype = left.columns[la].ctype
                rtype = right.columns[rb].ctype
                if not compatible_types(ltype, rtype):
                    self.report(
                        "REPRO-P002",
                        "error",
                        f"join condition {a!r}={b!r} compares "
                        f"{ltype.value} with {rtype.value}",
                        node,
                        "join keys must have comparable types",
                    )
        algorithm = node.algorithm or ""
        if algorithm.startswith("index_nested_loop"):
            self._check_index_join(node, left, right, algorithm)
        if left is not None and right is not None:
            return left.concat(right)
        return None

    def _check_index_join(
        self,
        node: PlanNode,
        left: Optional[Schema],
        right: Optional[Schema],
        algorithm: str,
    ) -> None:
        inner_side = "left" if algorithm.endswith("_left") else "right"
        inner_index = 0 if inner_side == "left" else 1
        if inner_index >= len(node.children):
            return
        inner_node = node.children[inner_index]
        inner_schema = left if inner_side == "left" else right
        if inner_node.reused:
            # Materialized intermediates are stored by construction; if the
            # walk could not resolve one, P006 already covers it.  Their
            # indexes live outside the catalog, so the index check is
            # skipped either way.
            return
        inner_name = self._stored_name(inner_node)
        if inner_name is None:
            self.report(
                "REPRO-P003",
                "error",
                f"index nested-loop join probes its {inner_side} input, "
                f"which is not a stored relation "
                f"({inner_node.description})",
                node,
                "an index lookup needs a stored (or materialized) inner "
                "side — the orientation is wrong or the plan was mutated",
            )
            return
        if inner_schema is None or not node.operator.conditions:
            return
        # Which columns of the inner side the probe will look up.
        inner_columns: List[str] = []
        for a, b in node.operator.conditions:
            for candidate in (a, b):
                if _position_of(inner_schema, candidate) is not None:
                    inner_columns.append(candidate)
                    break
        if not inner_columns:
            self.report(
                "REPRO-P003",
                "error",
                f"index nested-loop join probes {inner_name!r} but no join "
                f"column resolves on that side",
                node,
                "the inner side must supply the join key — flip the "
                "orientation",
            )
            return
        if self.catalog is not None and self.catalog.has_table(inner_name):
            if not self.catalog.has_index_on(inner_name, inner_columns[:1]):
                self.report(
                    "REPRO-P003",
                    "warning",
                    f"index nested-loop join probes {inner_name!r} on "
                    f"{inner_columns[0]!r}, which has no declared index",
                    node,
                    "the plan was costed with an index probe it cannot "
                    "have; declare the index or cost a hash join",
                )

    @staticmethod
    def _stored_name(node: PlanNode) -> Optional[str]:
        if node.operator is not None and node.operator.kind is OperatorKind.SCAN:
            return node.operator.relation
        if isinstance(node.expression, BaseRelation):
            return node.expression.name
        return None

    def _aggregate(
        self, node: PlanNode, inputs: List[Optional[Schema]]
    ) -> Optional[Schema]:
        schema = inputs[0] if inputs else None
        op = node.operator
        if schema is not None:
            wanted = list(op.group_by) + [
                spec.column for spec in op.aggregates if spec.column is not None
            ]
            self._check_columns(wanted, schema, node, what="aggregation")
        return self._expression_schema(node.expression)

    def _setop(
        self, node: PlanNode, inputs: List[Optional[Schema]]
    ) -> Optional[Schema]:
        known = [schema for schema in inputs if schema is not None]
        for schema in known[1:]:
            if len(schema) != len(known[0]):
                self.report(
                    "REPRO-P008",
                    "error",
                    f"set-operation inputs have different arities "
                    f"({len(known[0])} vs {len(schema)} columns)",
                    node,
                    "project both inputs to the same column list",
                )
        return known[0] if known else None


def verify_plan(
    plan: PlanNode,
    database: Optional[Any] = None,
    catalog: Optional[Catalog] = None,
    materialized: Optional[Any] = None,
) -> List[Diagnostic]:
    """Verify a compiled-to-be plan tree; returns every diagnostic found.

    ``database`` enables materialization checks (reuse leaves resolve, scans
    name loaded relations); ``catalog`` enables schema/type checks; the
    ``materialized`` registry lets reuse steps resolve the way
    ``compile_plan`` resolves them.  Passing a database alone is enough —
    its catalog is used.  Checks whose prerequisites are missing are
    skipped, so the verifier never produces false alarms on information it
    does not have.
    """
    verifier = _PlanVerifier(database, catalog, materialized)
    verifier.infer(plan)
    return verifier.diagnostics


# ------------------------------------------------------------- delta rounds

def verify_delta_round(
    deltas: DeltaStore,
    database: Any,
    views: Optional[Any] = None,
) -> List[Diagnostic]:
    """Verify one update round before any delta is propagated.

    * every delta's relation must exist in the database (``REPRO-P004``) —
      a δ-rule over a relation outside the round's universe can never be
      applied;
    * each delta's insert/delete bags must carry the base relation's schema
      (``REPRO-P005``) — a mismatch means the delta was logged against an
      outdated definition (the *stale δ-rule* fault) and would corrupt the
      base table silently;
    * with ``views`` given (name → expression mapping), updated relations no
      registered view depends on are flagged as warnings: propagating them
      is legal but does nothing.
    """
    out: List[Diagnostic] = []
    depended: Optional[set] = None
    if views:
        from repro.algebra.expressions import base_relations

        depended = set()
        for expression in views.values():
            depended |= base_relations(expression)
    for delta in deltas:
        if not database.has_relation(delta.relation):
            out.append(
                Diagnostic(
                    "REPRO-P004",
                    "error",
                    f"update round carries a delta for {delta.relation!r}, "
                    f"which is not a loaded relation",
                    f"δ{delta.relation}",
                    "deltas must target relations in the update round's "
                    "universe — regenerate the batch",
                )
            )
            continue
        base = database.table(delta.relation).schema
        for label, bag in (("δ+", delta.inserts), ("δ-", delta.deletes)):
            if not len(bag) or bag.schema.names == base.names:
                continue
            names = tuple(c.unqualified for c in bag.schema.columns)
            base_names = tuple(c.unqualified for c in base.columns)
            if names != base_names:
                arity = ""
                if len(names) != len(base_names):
                    arity = (
                        f" (arity {len(names)}, the table expects "
                        f"{len(base_names)})"
                    )
                out.append(
                    Diagnostic(
                        "REPRO-P005",
                        "error",
                        f"{label}{delta.relation} schema {list(names)} "
                        f"disagrees with the base relation's "
                        f"{list(base_names)}{arity}",
                        f"{label}{delta.relation}",
                        "the delta was logged against a stale schema — "
                        "regenerate it from the current definition",
                    )
                )
        if depended is not None and delta.relation not in depended and not delta.is_empty:
            out.append(
                Diagnostic(
                    "REPRO-P004",
                    "warning",
                    f"update round touches {delta.relation!r}, which no "
                    f"registered view depends on",
                    f"δ{delta.relation}",
                    "the delta applies to the base table but refreshes "
                    "nothing",
                )
            )
    return out


# -------------------------------------------------------- MQO temporaries

def verify_temporaries(
    ordered: Sequence[Tuple[str, Expression]],
) -> List[Diagnostic]:
    """Verify a shared-temporary materialization order is topological.

    ``ordered`` is the (name, expression) sequence in intended
    materialization order.  A temporary whose expression *contains* another
    temporary's expression as a sub-expression must be materialized after
    it — otherwise the nested shared result is recomputed instead of
    reused.
    """
    out: List[Diagnostic] = []
    canonicals = [expression.canonical() for _, expression in ordered]
    subtrees = [
        {node.canonical() for node in walk(expression)}
        for _, expression in ordered
    ]
    for i, (name, _) in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if canonicals[j] in subtrees[i]:
                out.append(
                    Diagnostic(
                        "REPRO-P007",
                        "error",
                        f"temporary {name!r} contains temporary "
                        f"{ordered[j][0]!r} but is materialized first",
                        f"{name} -> {ordered[j][0]}",
                        "materialize nested shared results before the "
                        "results that contain them",
                    )
                )
    return out


def render_verification(diagnostics: Sequence[Diagnostic]) -> List[str]:
    """Explain-friendly rendering of a verification outcome."""
    if not diagnostics:
        return ["verified: no diagnostics"]
    lines = [f"{len(diagnostics)} diagnostic(s):"]
    lines.extend(f"  {d.render()}" for d in diagnostics)
    return lines
