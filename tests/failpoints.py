"""Failpoints and the committed-state checks of the fault-injection tests.

A :class:`Failpoint` wraps one method so that its ``nth`` counted call
raises :class:`Injected`, once.  What counts as a call is ``key``: by
default every call counts, and ``key(self, *args)`` counts distinct keys
instead (``DifferentialEngine.differentiate`` counts distinct
``(relation, kind)`` updates).

:func:`assert_database_equal` is what "a failed refresh changed nothing"
means: every base table and view bag-equal to the pre-call copy, the same
statistics, and every index equal to a fresh rebuild.
"""

from typing import Callable, List, Optional

from repro.storage.index import build_index


class Injected(RuntimeError):
    """A failpoint's error."""


class Failpoint:
    """``owner.name`` raising :class:`Injected` on its ``nth`` counted call."""

    def __init__(
        self,
        monkeypatch,
        owner: type,
        name: str,
        nth: int,
        key: Optional[Callable] = None,
    ) -> None:
        self.seen: List = []
        self.fired = False
        original = getattr(owner, name)

        def failpoint(*args, **kwargs):
            if not self.fired:
                mark = len(self.seen) if key is None else key(*args, **kwargs)
                if mark not in self.seen:
                    self.seen.append(mark)
                if len(self.seen) == nth:
                    self.fired = True
                    raise Injected(f"{owner.__name__}.{name} call {nth}: {mark}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, failpoint)


def update_key(engine, expression, relation, kind, *args, **kwargs):
    """What a ``DifferentialEngine.differentiate`` call counts as: its update."""
    return relation, kind


def assert_indexes_match_rebuild(db) -> None:
    """Every index the catalog declares equals one built from scratch."""
    for index in db.catalog.all_indexes():
        built = db.index_for(index.table, index.columns)
        relation = db.table(index.table)
        fresh = build_index(relation, index.columns, kind=built.kind)
        assert len(built) == len(fresh) == len(relation), index
        assert built.distinct_keys == fresh.distinct_keys, index
        positions = [relation.schema.index_of(c) for c in index.columns]
        for key in {tuple(row[p] for p in positions) for row in relation}:
            assert sorted(built.lookup(key)) == sorted(fresh.lookup(key)), (index, key)
        if built.kind == "btree":
            assert list(built.scan_sorted()) == list(fresh.scan_sorted()), index


def assert_database_equal(db, before, views) -> None:
    """``db`` holds what the copy ``before`` holds: tables, views, statistics
    and aggregate states, with every index equal to a rebuild."""
    for name in before.table_names():
        assert db.table(name).same_bag(before.table(name)), name
        assert db.catalog.stats(name) == before.catalog.stats(name), name
    for name in views:
        assert db.view(name).same_bag(before.view(name)), name
        assert db.catalog.view_stats(name) == before.catalog.view_stats(name), name
        assert db.aggregate_state(name) is before.aggregate_state(name), name
    assert db._logs is None
    assert_indexes_match_rebuild(db)
