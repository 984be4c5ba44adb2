"""The names the frozen ``perf/`` benchmark reaches into ``src/`` by.

``perf/tracing.py`` installs its wrappers with ``target.__dict__[attribute]``,
so every entry point must stay defined *directly* on the class or module it
names; ``perf/workloads.py`` and ``perf/run.py`` import a fixed set of names.
A refactor that moves, renames or inherits one of them makes the benchmark
run fail — this test fails first, in tier-1.
"""

import os
import sys

import pytest

PERF = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perf")


@pytest.fixture()
def perf_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERF)
    import tracing
    import workloads  # noqa: F401 - importing it checks every name it uses

    yield tracing
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_entry_point_resolves_and_is_restored(perf_modules):
    tracing = perf_modules
    tracer = tracing.Tracer()
    assert len(tracer._targets) == len(tracing.ENTRY_POINTS)
    originals = [
        (target, attribute, target.__dict__[attribute])
        for target, attribute, _name, _measure in tracer._targets
    ]
    tracer.install()
    try:
        for target, attribute, original in originals:
            assert target.__dict__[attribute] is not original, (target, attribute)
    finally:
        tracer.uninstall()
    for target, attribute, original in originals:
        assert target.__dict__[attribute] is original, (target, attribute)


def test_run_py_backend_probe():
    from repro.storage.columns import NumpyColumnStore, active_backend, numpy_enabled

    assert numpy_enabled()
    assert active_backend() is NumpyColumnStore
