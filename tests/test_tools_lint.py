"""Tests for the repo invariant linter (``tools/lint_invariants.py``).

Each check is exercised on a small synthetic file (positive and negative),
the inline suppression syntax is verified, and — the load-bearing
assertion — the repository itself lints clean, so the CI lint job cannot
land red.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import CODES

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_PATH = REPO_ROOT / "tools" / "lint_invariants.py"

_spec = importlib.util.spec_from_file_location("lint_invariants", LINT_PATH)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def lint_source(tmp_path, source, relative="pkg/module.py"):
    """Lint ``source`` as if it lived at ``relative`` inside a repo."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint.lint_file(path)


def codes_of(findings):
    return [f.code for f in findings]


# ------------------------------------------------------------------- checks

def test_l001_numpy_import_confined_to_columns(tmp_path):
    source = "import numpy\n\nprint(numpy.zeros(3))\n"
    findings = lint_source(tmp_path, source, "repro/engine/kernels.py")
    assert "REPRO-L001" in codes_of(findings)
    # The one sanctioned module is exempt.
    assert codes_of(
        lint_source(tmp_path, source, "repro/storage/columns.py")
    ) == []


def test_l002_wall_clock_confined_to_timing_writers(tmp_path):
    source = "import time\n\nprint(time.perf_counter())\n"
    findings = lint_source(tmp_path, source, "repro/engine/operators.py")
    assert codes_of(findings) == ["REPRO-L002"]
    assert codes_of(lint_source(tmp_path, source, "repro/bench/experiments.py")) == []
    # The allowlist names modules, not packages: the rest of bench/ and
    # serving/ stay clock-free.
    for path in ("repro/bench/harness.py", "repro/serving/snapshot.py"):
        assert codes_of(lint_source(tmp_path, source, path)) == ["REPRO-L002"]


def test_l002_time_time_banned_even_in_allowlist(tmp_path):
    source = "import time\n\nprint(time.time())\n"
    findings = lint_source(tmp_path, source, "repro/bench/experiments.py")
    assert codes_of(findings) == ["REPRO-L002"]
    assert "perf_counter" in findings[0].message


def test_l003_relation_mutation_confined(tmp_path):
    source = (
        "def corrupt(relation, row):\n"
        "    relation._rows = [row]\n"
        "    relation.rows.append(row)\n"
        "    relation.rows[0] = row\n"
    )
    findings = lint_source(tmp_path, source, "repro/engine/helper.py")
    assert codes_of(findings) == ["REPRO-L003"] * 3
    assert codes_of(
        lint_source(tmp_path, source, "repro/storage/relation.py")
    ) == []


def test_l004_mutable_default_argument(tmp_path):
    source = "def f(items=[]):\n    return items\n"
    findings = lint_source(tmp_path, source)
    assert codes_of(findings) == ["REPRO-L004"]
    assert codes_of(lint_source(tmp_path, "def f(items=None):\n    pass\n")) == []


def test_l005_init_requires_dunder_all(tmp_path):
    findings = lint_source(tmp_path, "from pkg.mod import thing\n", "pkg/__init__.py")
    codes = codes_of(findings)
    assert "REPRO-L005" in codes
    clean = lint_source(
        tmp_path,
        "from pkg.mod import thing\n\n__all__ = [\"thing\"]\n",
        "pkg2/__init__.py",
    )
    assert codes_of(clean) == []  # __all__ also marks the import used


def test_l006_unused_module_level_import(tmp_path):
    findings = lint_source(tmp_path, "import os\nimport sys\n\nprint(sys.argv)\n")
    assert codes_of(findings) == ["REPRO-L006"]
    assert "'os'" in findings[0].message


def test_l007_builtin_shadowing(tmp_path):
    source = "def pick(list):\n    id = 3\n    return list[id]\n"
    findings = lint_source(tmp_path, source)
    assert codes_of(findings) == ["REPRO-L007", "REPRO-L007"]


def test_l008_multiprocessing_not_imported(tmp_path):
    source = "import multiprocessing\n\nprint(multiprocessing.cpu_count())\n"
    findings = lint_source(tmp_path, source, "repro/engine/operators.py")
    assert codes_of(findings) == ["REPRO-L008"]
    # concurrent.futures counts as process-level parallelism too.
    futures = "from concurrent.futures import ProcessPoolExecutor\n\nprint(ProcessPoolExecutor)\n"
    assert "REPRO-L008" in codes_of(
        lint_source(tmp_path, futures, "repro/mqo/sharing.py")
    )
    # No package is exempt: the former parallel package is flagged too.
    assert codes_of(lint_source(tmp_path, source, "repro/parallel/pool.py")) == [
        "REPRO-L008"
    ]
    # The usual escape hatch applies.
    assert codes_of(
        lint_source(
            tmp_path,
            "import multiprocessing  # lint: allow(L008)\n\nprint(multiprocessing)\n",
            "repro/engine/operators.py",
        )
    ) == []


def test_l009_threading_confined_to_serving(tmp_path):
    source = "import threading\n\nprint(threading.active_count())\n"
    findings = lint_source(tmp_path, source, "repro/engine/operators.py")
    assert codes_of(findings) == ["REPRO-L009"]
    assert "repro.serving.sync" in findings[0].message
    # ``from threading import ...`` is the same violation.
    assert "REPRO-L009" in codes_of(
        lint_source(
            tmp_path,
            "from threading import Lock\n\nprint(Lock)\n",
            "repro/api/stream.py",
        )
    )
    # The serving tier is the one sanctioned home.
    assert codes_of(lint_source(tmp_path, source, "repro/serving/sync.py")) == []
    assert codes_of(lint_source(tmp_path, source, "repro/parallel/pool.py")) == [
        "REPRO-L009"
    ]
    # The usual escape hatch applies.
    assert codes_of(
        lint_source(
            tmp_path,
            "import threading  # lint: allow(L009)\n\nprint(threading)\n",
            "repro/engine/operators.py",
        )
    ) == []


def test_l010_aggregate_state_mapping_written_only_by_database(tmp_path):
    source = (
        "def desynchronise(database, name, state):\n"
        "    database._aggregate_states[name] = (database.view(name), state)\n"
        "    database._aggregate_states.pop(name, None)\n"
        "    del database._aggregate_states[name]\n"
        "    database._aggregate_states = {}\n"
    )
    findings = lint_source(tmp_path, source, "repro/maintenance/maintainer.py")
    assert codes_of(findings) == ["REPRO-L010"] * 4
    assert "update_view(state=" in findings[0].message
    # The owning module is exempt; reading the mapping is not a write.
    assert codes_of(lint_source(tmp_path, source, "repro/engine/database.py")) == []
    assert codes_of(
        lint_source(
            tmp_path,
            "def peek(database, name):\n"
            "    return database._aggregate_states.get(name)\n",
            "repro/engine/differential.py",
        )
    ) == []


def test_l011_index_reads_key_columns_only(tmp_path):
    source = (
        "def probe(relation, positions):\n"
        "    rows = relation.rows\n"
        "    cached = relation._rows\n"
        "    store = relation.vector_store()\n"
        "    return rows, cached, store\n"
    )
    findings = lint_source(tmp_path, source, "repro/storage/index.py")
    assert codes_of(findings) == ["REPRO-L011"] * 3
    assert "key_columns" in findings[0].message
    # Only the index module is held to it; the sanctioned accessors pass.
    assert codes_of(lint_source(tmp_path, source, "repro/storage/relation.py")) == []
    assert codes_of(
        lint_source(
            tmp_path,
            "def probe(relation, positions):\n"
            "    return relation.key_columns(positions), relation.rows_at([0])\n",
            "repro/storage/index.py",
        )
    ) == []


def test_l013_frozen_nodes_written_only_while_constructed(tmp_path):
    source = (
        "class Node:\n"
        "    def __init__(self, child):\n"
        "        object.__setattr__(self, 'child', child)\n"
        "\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'child', tuple(self.child))\n"
        "\n"
        "    def rebind(self, child):\n"
        "        object.__setattr__(self, 'child', child)\n"
        "\n"
        "    def setter(self):\n"
        "        return object.__setattr__\n"
        "\n"
        "    def memo(self):\n"
        "        self.__dict__['_canonical'] = 'x'\n"
        "\n"
        "\n"
        "def graft(node, child):\n"
        "    object.__setattr__(node, 'child', child)\n"
        "\n"
        "\n"
        "object.__setattr__(Node, 'kind', 'leaf')\n"
    )
    findings = lint_source(tmp_path, source, "repro/algebra/expressions.py")
    assert codes_of(findings) == ["REPRO-L013"] * 4
    assert [f.line for f in findings] == [9, 12, 19, 22]
    assert "rebind" in findings[0].message
    # A helper nested in a constructor is not the constructor.
    nested = (
        "class Node:\n"
        "    def __init__(self, child):\n"
        "        def later():\n"
        "            object.__setattr__(self, 'child', child)\n"
        "        later()\n"
    )
    assert codes_of(lint_source(tmp_path, nested, "repro/algebra/nested.py")) == [
        "REPRO-L013"
    ]
    # Only the package is held to it.
    assert codes_of(lint_source(tmp_path, source, "tools/helper.py")) == []


def test_l014_one_ingest_pipeline(tmp_path):
    source = (
        "from repro.stream import StreamScheduler\n"
        "import repro.stream as stream\n"
        "\n"
        "def drive(warehouse, policy, rounds):\n"
        "    scheduler = StreamScheduler(policy)\n"
        "    other = stream.StreamScheduler(policy)\n"
        "    return warehouse._refresh_rounds(rounds)\n"
    )
    findings = lint_source(tmp_path, source, "repro/serving/daemon.py")
    assert codes_of(findings) == ["REPRO-L014"] * 3
    assert sorted(f.line for f in findings) == [5, 6, 7]
    # The pipeline builds the scheduler and flushes; nothing else does.
    assert codes_of(lint_source(tmp_path, source, "repro/api/stream.py")) == []
    assert codes_of(lint_source(tmp_path, source, "repro/api/warehouse.py")) == [
        "REPRO-L014"
    ] * 3
    # Only the package is held to it.
    assert codes_of(lint_source(tmp_path, source, "tools/helper.py")) == []


def test_l014_apply_flushes_through_the_pipeline(tmp_path):
    # apply() is a one-round flush of the pipeline: a direct refresh call
    # from the façade forks the commit path.
    source = (
        "class Warehouse:\n"
        "    def apply(self, deltas):\n"
        "        return self._refresh_rounds([deltas])\n"
    )
    findings = lint_source(tmp_path, source, "repro/api/warehouse.py")
    assert codes_of(findings) == ["REPRO-L014"]
    assert findings[0].line == 3
    assert "repro/api/stream.py" in findings[0].message


def test_l015_engine_does_not_read_join_labels(tmp_path):
    source = (
        "def compile_join(node, left, right):\n"
        "    if node.algorithm == 'merge':\n"
        "        return merge(left, right)\n"
        "    label = getattr(node, 'kind', None)\n"
        "    node.algorithm = label\n"
        "    return hash_join(left, right, node.algorithm)\n"
    )
    findings = lint_source(tmp_path, source, "repro/engine/physical.py")
    assert codes_of(findings) == ["REPRO-L015"] * 2
    assert sorted(f.line for f in findings) == [2, 6]
    assert "HashJoin" in findings[0].message
    # The planner and the plan verifier read the label; they are not held to it.
    assert codes_of(lint_source(tmp_path, source, "repro/analysis/planlint.py")) == []
    assert codes_of(lint_source(tmp_path, source, "repro/optimizer/volcano.py")) == []


def test_l016_product_path_runs_no_reference_kernel(tmp_path):
    # The opposite-sign overlap of an as-written δ-join, as it was once
    # written: the row reference inside the engine class.
    source = (
        "from repro.engine import operators\n"
        "from repro.engine.executor import evaluate\n"
        "\n"
        "def differentiate(node, left, right):\n"
        "    old = evaluate(node, None)\n"
        "    return operators.hash_join(left, right, node.conditions)\n"
        "\n"
        "class DifferentialEngine:\n"
        "    def differentiate(self, node, left, right):\n"
        "        def written_join():\n"
        "            return operators.hash_join(left, right, node.conditions)\n"
        "        old = self.physical.evaluate(node, None)\n"
        "        return written_join(), evaluate(node, None), old\n"
    )
    findings = lint_source(tmp_path, source, "repro/engine/differential.py")
    assert codes_of(findings) == ["REPRO-L016"] * 2
    assert sorted(f.line for f in findings) == [11, 13]
    assert "operators.hash_join(" in findings[0].message
    # The interpreted differentiate above the class is a reference: not held.
    assert codes_of(lint_source(tmp_path, source, "repro/engine/executor.py")) == []


def test_l016_holds_all_of_physical_under_any_import_spelling(tmp_path):
    source = (
        "import repro.engine.executor as interp\n"
        "from repro.engine import operators as ops\n"
        "from repro.engine.operators import aggregate, select as sel, select_batch\n"
        "\n"
        "def run(node, rows, database):\n"
        "    ops.nested_loop_join(rows, rows)\n"
        "    sel(rows, node.predicate)\n"
        "    aggregate(rows, [], [])\n"
        "    interp.evaluate(node, database)\n"
        "    select_batch(rows, node.predicate)\n"
        "    return ops.hash_join_batch(rows, rows)\n"
    )
    findings = lint_source(tmp_path, source, "repro/engine/physical.py")
    assert codes_of(findings) == ["REPRO-L016"] * 4
    assert sorted(f.line for f in findings) == [6, 7, 8, 9]
    # Only the product path is held to it.
    assert codes_of(lint_source(tmp_path, source, "repro/engine/database.py")) == []


def test_inline_suppression(tmp_path):
    assert codes_of(lint_source(tmp_path, "import os  # lint: allow(L006)\n")) == []
    assert codes_of(
        lint_source(tmp_path, "import os  # lint: allow(REPRO-L006)\n")
    ) == []
    # A suppression for a different code does not hide the finding.
    assert codes_of(
        lint_source(tmp_path, "import os  # lint: allow(L001)\n")
    ) == ["REPRO-L006"]


def test_syntax_errors_are_reported_not_raised(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert codes_of(findings) == ["REPRO-L000"]


# ------------------------------------------------------------ repo-wide gate

def test_repository_lints_clean():
    findings = []
    for path in lint.iter_python_files(
        [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "tools")]
    ):
        findings.extend(lint.lint_file(path))
    assert findings == [], "\n".join(f.render() for f in findings)


def test_linter_codes_are_documented():
    """Every code the linter can emit appears in the shared CODES table."""
    emitted = {f"REPRO-L{i:03d}" for i in (*range(1, 12), 13, 14, 15)}
    assert emitted <= set(CODES)
    for code in emitted:
        assert CODES[code], code
