#!/usr/bin/env python
"""AST lints encoding this repository's engine invariants (REPRO-L001..L016).

The invariants below were established in prose across earlier changes; this
tool makes them machine-checked so they cannot erode silently:

* **REPRO-L001** — ``numpy`` is imported in exactly one place,
  ``src/repro/storage/columns.py``; everything else goes through the column
  store (or the sanctioned ``from repro.storage.columns import numpy``
  re-export).  numpy is a hard requirement — the point is one owner of the
  dtype policy (which columns are typed, which stay ``object``, native
  values at every boundary), not optionality.
* **REPRO-L002** — wall-clock access (the ``time`` / ``datetime`` modules)
  is confined to the sanctioned timing writers: the bench package and the
  API/optimizer modules that fill ``*_seconds`` report fields.  Everywhere
  else, timing creep makes results irreproducible.  ``time.time()`` is
  banned outright — measured intervals use ``time.perf_counter()``.
* **REPRO-L003** — a Relation's row storage (``.rows`` / ``._rows``) is
  mutated only inside ``src/repro/storage/relation.py``, whose methods
  invalidate the derived caches (column cache, vectorized store); outside
  mutation silently desynchronizes them.
* **REPRO-L004** — no mutable default arguments.
* **REPRO-L005** — every package ``__init__.py`` declares ``__all__``.
* **REPRO-L006** — no unused module-level imports.
* **REPRO-L007** — builtin names are not shadowed by assignments,
  parameters, or loop targets.
* **REPRO-L008** — process-level parallelism (``multiprocessing`` /
  ``concurrent.futures``) is not imported anywhere: execution is serial
  and single-process.  A shard-parallel layer was measured slower than
  serial and removed (ARCHITECTURE.md, *Parallel execution: measured and
  removed*); a revival has to clear the gate recorded there first.
* **REPRO-L009** — ``threading`` is imported only inside
  ``src/repro/serving/``; everything else borrows primitives from the
  ``repro.serving.sync`` re-export (the same pattern as the numpy
  re-export), so concurrency stays auditable in one package and the engine
  layers cannot quietly grow threads.
* **REPRO-L010** — ``Database``'s δ-aggregate state mapping
  (``._aggregate_states``) is written only inside
  ``src/repro/engine/database.py``, which pairs every state with the
  ``Relation`` it describes and drops it on every other write to the view;
  a write from elsewhere could leave a state describing rows the view no
  longer holds (the L003 pattern: one file can desynchronise it).
* **REPRO-L011** — ``src/repro/storage/index.py`` never touches a
  relation's row list (``.rows`` / ``._rows``) or builds its column store
  (``vector_store(``): indexes read keys through
  ``Relation.key_columns`` and answer probes through ``Relation.rows_at``.
  Either shortcut materializes a second representation of the whole
  indexed relation: ``.rows`` on a store-only relation builds a tuple per
  row to hash an appended tail or answer one probe, and ``vector_store(``
  converts every column of a row-backed one where only the key columns
  are read.
* **REPRO-L013** — under ``src/repro``, ``object.__setattr__`` appears only
  inside an ``__init__`` or ``__post_init__``: a frozen node stays frozen
  once built.  Memoized derivations (an expression's canonical form and
  base relations) are exact only because a node's fields never change after
  construction; they cache through the instance ``__dict__``, which this
  rule does not flag.  (L012 was retired with the accessors it guarded.)
* **REPRO-L014** — one validate → tick → flush pipeline: under
  ``src/repro``, ``StreamScheduler(`` is constructed and
  ``._refresh_rounds(`` is called only in ``repro/api/stream.py`` (the
  pipeline and its flush).  ``apply()``, the stream session and the serving
  daemon all drive that pipeline; a second scheduler or refresh call
  elsewhere would fork the flush path again.
* **REPRO-L015** — one physical join: nothing under ``src/repro/engine/``
  reads an ``.algorithm`` attribute.  A plan step's join algorithm is a
  label of the disk cost model (``explain()`` and the plan verifier read
  it); the engine runs every join on the one hash kernel, and a read there
  would fork execution on the label again.
* **REPRO-L016** — the product path runs no reference kernel: inside
  ``class DifferentialEngine`` (``repro/engine/differential.py``) and
  anywhere in ``repro/engine/physical.py``, nothing calls the row kernels
  ``operators.hash_join`` / ``nested_loop_join`` / ``select`` /
  ``aggregate`` or the interpreter ``executor.evaluate``, however
  imported.  Those are the oracles ``verify()`` and the tests check the
  batch kernels against; a call from the product path would make the
  oracle check itself.

Usage::

    python tools/lint_invariants.py [path ...]     # default: src/repro tools

Findings print as ``path:line: CODE message`` and the exit status is 1 when
any exist.  A finding is suppressed by an inline comment on its line::

    import time  # lint: allow(L002) -- justification

Codes may be written with or without the ``REPRO-`` prefix; several codes
separate with commas.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: The one module allowed to import numpy (posix-style path suffix).
COLUMNS_MODULE = "repro/storage/columns.py"
#: The one module allowed to mutate Relation row storage.
RELATION_MODULE = "repro/storage/relation.py"
#: The one module allowed to write Database's aggregate-state mapping.
DATABASE_MODULE = "repro/engine/database.py"
#: The index module, which reads relations only through key columns (L011).
INDEX_MODULE = "repro/storage/index.py"
#: Relation accessors that materialize a second representation (L011).
_MATERIALIZING_ACCESSORS = frozenset({"rows", "_rows", "vector_store"})
#: Modules allowed to read the wall clock: the two benchmark drivers whose
#: paper claims are timings (§7.2 optimization cost, the estimation
#: plan-quality runtime guard), the writers that fill ``*_seconds`` report
#: fields, and the serving daemon's staleness clock.  This allowlist is
#: configuration — a new timing writer is added here, not suppressed
#: inline, so the sanctioned set stays reviewable in one place.
TIMING_ALLOWLIST: Tuple[str, ...] = (
    "repro/bench/experiments.py",
    "repro/bench/estimation.py",
    "repro/api/warehouse.py",
    "repro/mqo/greedy.py",
    "repro/maintenance/greedy.py",
    "repro/maintenance/optimizer.py",
    "repro/serving/daemon.py",
)
#: The package whose frozen nodes may be written only while constructed (L013).
PACKAGE_ROOT = "repro/"
#: The methods in which ``object.__setattr__`` may initialise a frozen node.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})
#: Calls confined to the ingest pipeline (L014): callee name → the modules
#: allowed to make the call.
PIPELINE_CALLS: Dict[str, Tuple[str, ...]] = {
    "StreamScheduler": ("repro/api/stream.py",),
    "_refresh_rounds": ("repro/api/stream.py",),
}
#: The package that executes plans without reading their join labels (L015).
ENGINE_PACKAGE = "repro/engine/"
#: The product path (L016): module → the class held to the rule there, or
#: ``None`` for the whole module.
PRODUCT_PATH: Dict[str, Optional[str]] = {
    "repro/engine/physical.py": None,
    "repro/engine/differential.py": "DifferentialEngine",
}
#: The reference kernels the product path may not call (L016), by module.
REFERENCE_KERNELS: Dict[str, FrozenSet[str]] = {
    "operators": frozenset({"hash_join", "nested_loop_join", "select", "aggregate"}),
    "executor": frozenset({"evaluate"}),
}
#: Module roots that imply process-level parallelism (L008).
_PARALLEL_MODULES = ("multiprocessing", "concurrent")
#: The one package allowed to import threading (posix-style path prefix):
#: the serving tier, whose ``sync`` module re-exports the primitives.
THREADING_PACKAGE = "repro/serving/"
#: Methods that mutate a list in place (for the L003 ``.rows`` check).
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "clear", "remove", "sort", "reverse"}
)
#: Methods that mutate a dict in place (for the L010 check).
_DICT_MUTATORS = frozenset({"pop", "popitem", "clear", "update", "setdefault"})
#: Relation-internal attributes nothing outside relation.py may assign.
_RELATION_INTERNALS = frozenset({"_rows", "_column_cache"})
#: Builtins whose shadowing is flagged (L007).  Deliberately curated — the
#: names below are either containers/types (shadowing breaks later calls in
#: the same scope) or widely-used functions.
_SHADOWED_BUILTINS = frozenset(
    {
        "list", "dict", "set", "tuple", "type", "str", "int", "float",
        "bool", "bytes", "object", "open", "input", "id", "sum", "min",
        "max", "all", "any", "len", "hash", "map", "filter", "zip",
        "range", "next", "iter", "format", "vars", "dir",
    }
)

_SUPPRESS = re.compile(r"#\s*lint:\s*allow\(([A-Za-z0-9,\s-]+)\)")


class Finding(NamedTuple):
    path: Path
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _posix(path: Path) -> str:
    return path.as_posix()


def _matches(path: Path, suffix: str) -> bool:
    text = _posix(path)
    if suffix.endswith("/"):
        return f"/{suffix}" in f"/{text}"
    return text.endswith(suffix)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number → codes suppressed on that line."""
    out: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS.search(line)
        if match is None:
            continue
        codes = {
            code.strip().upper().replace("REPRO-", "")
            for code in match.group(1).split(",")
            if code.strip()
        }
        out[number] = {f"REPRO-{code}" for code in codes}
    return out


# --------------------------------------------------------------------- checks

def _check_numpy_imports(tree: ast.Module, path: Path) -> List[Finding]:
    if _matches(path, COLUMNS_MODULE):
        return []
    findings = []
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L001",
                    "numpy imported outside storage/columns.py, the one owner "
                    "of the dtype policy — use the column store (or the "
                    "repro.storage.columns re-export)",
                )
            )
    return findings


def _check_wall_clock(tree: ast.Module, path: Path) -> List[Finding]:
    findings = []
    allowed = any(_matches(path, suffix) for suffix in TIMING_ALLOWLIST)
    for node in ast.walk(tree):
        if not allowed:
            names: List[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module.split(".")[0]]
            if any(name in ("time", "datetime") for name in names):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "REPRO-L002",
                        "wall-clock module imported outside a sanctioned "
                        "timing writer (see TIMING_ALLOWLIST in "
                        "tools/lint_invariants.py)",
                    )
                )
        # time.time() is banned even in the allowlist: intervals are
        # measured with the monotonic perf_counter.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L002",
                    "time.time() is not monotonic — use time.perf_counter()",
                )
            )
    return findings


def _check_process_parallelism(tree: ast.Module, path: Path) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        if any(
            name == root or name.startswith(root + ".")
            for name in names
            for root in _PARALLEL_MODULES
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L008",
                    "process-level parallelism imported — execution is serial "
                    "(see ARCHITECTURE.md, 'Parallel execution: measured and "
                    "removed', for the gate a parallel layer must clear)",
                )
            )
    return findings


def _check_threading_imports(tree: ast.Module, path: Path) -> List[Finding]:
    if _matches(path, THREADING_PACKAGE):
        return []
    findings = []
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        if any(
            name == "threading" or name.startswith("threading.") for name in names
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L009",
                    "threading imported outside src/repro/serving/ — take "
                    "primitives from the repro.serving.sync re-export so "
                    "concurrency stays confined to the serving tier",
                )
            )
    return findings


def _check_relation_mutation(tree: ast.Module, path: Path) -> List[Finding]:
    if _matches(path, RELATION_MODULE):
        return []
    findings = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                path,
                node.lineno,
                "REPRO-L003",
                f"{what} mutates Relation row storage outside "
                f"storage/relation.py — use the _invalidate()-guarded "
                f"methods (append/extend/replace_rows)",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # x._rows = ... / x.rows[i] = ...
                if isinstance(target, ast.Attribute) and target.attr in _RELATION_INTERNALS:
                    flag(target, f"assignment to .{target.attr}")
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in ("rows", "_rows")
                ):
                    flag(target, f"item assignment into .{target.value.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_MUTATORS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("rows", "_rows")
        ):
            flag(node, f".{node.func.value.attr}.{node.func.attr}()")
    return findings


def _check_aggregate_state_writes(tree: ast.Module, path: Path) -> List[Finding]:
    if _matches(path, DATABASE_MODULE):
        return []
    findings = []

    def is_mapping(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_aggregate_states"

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                path,
                node.lineno,
                "REPRO-L010",
                f"{what} writes Database's aggregate-state mapping outside "
                f"engine/database.py — hand the successor state to "
                f"update_view(state=...) instead",
            )
        )

    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if is_mapping(target):
                flag(target, "assignment to ._aggregate_states")
            elif isinstance(target, ast.Subscript) and is_mapping(target.value):
                flag(target, "item assignment into ._aggregate_states")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_MUTATORS
            and is_mapping(node.func.value)
        ):
            flag(node, f"._aggregate_states.{node.func.attr}()")
    return findings


def _check_index_materialization(tree: ast.Module, path: Path) -> List[Finding]:
    if not _matches(path, INDEX_MODULE):
        return []
    return [
        Finding(
            path,
            node.lineno,
            "REPRO-L011",
            f".{node.attr} in storage/index.py materializes another "
            f"representation of the indexed relation — read keys with "
            f"Relation.key_columns and probe results with Relation.rows_at",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _MATERIALIZING_ACCESSORS
    ]


def _check_frozen_writes(tree: ast.Module, path: Path) -> List[Finding]:
    if not _matches(path, PACKAGE_ROOT):
        return []
    findings = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and function not in _CONSTRUCTORS
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L013",
                    f"object.__setattr__ in {function or 'module scope'} writes "
                    f"a frozen node after construction — memoized derivations "
                    f"of the node go stale; build a new node instead",
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return findings


def _check_pipeline_calls(tree: ast.Module, path: Path) -> List[Finding]:
    if not _matches(path, PACKAGE_ROOT):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        allowed = PIPELINE_CALLS.get(name)
        if allowed is None or any(_matches(path, module) for module in allowed):
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "REPRO-L014",
                f"{name}( outside {' / '.join(allowed)} forks the ingest → "
                f"flush pipeline — drive repro.api.stream.IngestPipeline instead",
            )
        )
    return findings


def _check_join_label_reads(tree: ast.Module, path: Path) -> List[Finding]:
    if not _matches(path, ENGINE_PACKAGE):
        return []
    return [
        Finding(
            path,
            node.lineno,
            "REPRO-L015",
            ".algorithm read in the engine forks execution on the cost "
            "model's join label — every planned join runs HashJoin",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "algorithm"
        and isinstance(node.ctx, ast.Load)
    ]


def _check_reference_calls(tree: ast.Module, path: Path) -> List[Finding]:
    scopes = [scope for module, scope in PRODUCT_PATH.items() if _matches(path, module)]
    if not scopes:
        return []
    # Local names bound to a reference module or to a reference kernel.
    modules: Dict[str, str] = {}
    kernels: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in REFERENCE_KERNELS and source in ("engine", ""):
                    modules[local] = alias.name
                elif alias.name in REFERENCE_KERNELS.get(source, ()):
                    kernels[local] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = alias.name.rpartition(".")[2]
                if source in REFERENCE_KERNELS and alias.asname:
                    modules[alias.asname] = source
    findings = []

    def visit(node: ast.AST, held: bool) -> None:
        if isinstance(node, ast.ClassDef) and node.name in scopes:
            held = True
        if held and isinstance(node, ast.Call):
            func = node.func
            called = None
            if isinstance(func, ast.Name):
                called = kernels.get(func.id)
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in REFERENCE_KERNELS.get(modules.get(func.value.id, ""), ())
            ):
                called = f"{modules[func.value.id]}.{func.attr}"
            if called is not None:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "REPRO-L016",
                        f"{called}( on the product path runs a reference "
                        f"kernel — call its batch kernel; the references are "
                        f"the oracles verify() and the tests check against",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(tree, None in scopes)
    return findings


def _check_mutable_defaults(tree: ast.Module, path: Path) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                findings.append(
                    Finding(
                        path,
                        default.lineno,
                        "REPRO-L004",
                        f"mutable default argument in {node.name}() — "
                        f"default to None and construct inside",
                    )
                )
    return findings


def _check_dunder_all(tree: ast.Module, path: Path) -> List[Finding]:
    if path.name != "__init__.py":
        return []
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return []
    return [
        Finding(
            path,
            1,
            "REPRO-L005",
            "package __init__.py does not declare __all__",
        )
    ]


def _check_unused_imports(tree: ast.Module, path: Path) -> List[Finding]:
    imported: List[Tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported.append((alias.asname or alias.name, node.lineno))
    if not imported:
        return []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "a.b" usage of "import a.b" style roots is covered by the
            # Name node; nothing extra needed here.
            pass
    # Names re-exported through __all__ count as used.
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    used.add(element.value)
    return [
        Finding(
            path,
            lineno,
            "REPRO-L006",
            f"module-level import {name!r} is unused",
        )
        for name, lineno in imported
        if name not in used
    ]


def _check_builtin_shadowing(tree: ast.Module, path: Path) -> List[Finding]:
    findings = []

    def flag(name: str, node: ast.AST, what: str) -> None:
        if name in _SHADOWED_BUILTINS:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "REPRO-L007",
                    f"{what} {name!r} shadows the builtin",
                )
            )

    def flag_target(target: ast.expr, what: str) -> None:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                flag(leaf.id, leaf, what)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                flag(arg.arg, arg, "parameter")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                flag_target(target, "assignment to")
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            flag_target(node.target, "assignment to")
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            flag_target(node.target, "loop target")
        elif isinstance(node, ast.comprehension):
            flag_target(node.target, "comprehension target")
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    flag_target(item.optional_vars, "with-target")
    return findings


_CHECKS = (
    _check_numpy_imports,
    _check_wall_clock,
    _check_process_parallelism,
    _check_threading_imports,
    _check_relation_mutation,
    _check_aggregate_state_writes,
    _check_index_materialization,
    _check_frozen_writes,
    _check_pipeline_calls,
    _check_join_label_reads,
    _check_reference_calls,
    _check_mutable_defaults,
    _check_dunder_all,
    _check_unused_imports,
    _check_builtin_shadowing,
)


# --------------------------------------------------------------------- driver

def lint_file(path: Path) -> List[Finding]:
    """All unsuppressed findings for one Python file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, "REPRO-L000", f"syntax error: {exc.msg}")]
    suppressed = _suppressions(source)
    findings: List[Finding] = []
    for check in _CHECKS:
        findings.extend(check(tree, path))
    return [
        finding
        for finding in findings
        if finding.code not in suppressed.get(finding.line, set())
    ]


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: Sequence[str]) -> int:
    targets = list(argv) or ["src/repro", "tools"]
    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(targets):
        checked += 1
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (str(f.path), f.line, f.code))
    for finding in findings:
        print(finding.render())
    print(
        f"lint_invariants: {checked} files checked, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
