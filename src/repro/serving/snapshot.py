"""Versioned copy-on-write view snapshots.

A *snapshot* is the set of materialized view contents a refresh commit
published, tagged with a monotonically increasing version number and the
update round it is current as of.  Readers :meth:`~SnapshotManager.pin` the
latest snapshot and read from it for as long as they like: refresh commits
publish *new* snapshots, they never touch a published one, so a pinned
reader can never observe torn or mid-refresh state.

The snapshots are copy-on-write for free, by construction: the refresh
machinery in :class:`~repro.engine.database.Database` always *replaces* a
view's :class:`~repro.storage.relation.Relation` object when merging a
differential or rematerializing (``Relation.merge_steps`` and
``materialize_view`` both build new relations), and relation row storage is
never mutated outside ``storage/relation.py`` (the REPRO-L003 lint).  A
snapshot therefore just captures object references — publishing costs O(
views), not O(rows) — and the old version's relations stay exactly as they
were for every reader still pinned to them.

Retirement mirrors the pinning: a version that is no longer current is
dropped the moment its last reader unpins (or immediately at publish time
when nobody pinned it), so memory holds at most ``1 + live readers``
versions of each view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.serving.sync import Condition, Mutex
from repro.storage.relation import Relation


class SnapshotError(RuntimeError):
    """Misuse of the snapshot layer (pin before publish, read after close)."""


@dataclass
class _SnapshotVersion:
    """One published version: immutable contents plus a pin count."""

    version: int
    as_of_round: int
    views: Dict[str, Relation]
    pins: int = 0


@dataclass
class SnapshotStats:
    """Counters ``explain_serving()`` renders."""

    published: int = 0
    retired: int = 0
    live_versions: int = 0
    current_version: int = 0
    pinned_readers: int = 0


class SnapshotHandle:
    """A reader's pin on one snapshot version.

    The handle is what query code reads through: :meth:`view` returns the
    pinned version's contents no matter how many refresh commits publish
    newer versions concurrently.  Close it (or use it as a context manager)
    to release the pin so superseded versions can be retired; reading
    through a closed handle raises.
    """

    def __init__(self, manager: "SnapshotManager", state: _SnapshotVersion) -> None:
        self._manager = manager
        self._state = state
        self._closed = False

    @property
    def version(self) -> int:
        """The monotonic snapshot version this handle is pinned to."""
        return self._state.version

    @property
    def as_of_round(self) -> int:
        """Ingested update rounds reflected in this snapshot."""
        return self._state.as_of_round

    @property
    def view_names(self) -> List[str]:
        """Views this snapshot carries."""
        return list(self._state.views)

    def view(self, name: str) -> Relation:
        """The pinned contents of one view (never a later version's)."""
        if self._closed:
            raise SnapshotError(
                f"snapshot handle v{self._state.version} is closed — pin a "
                f"fresh one"
            )
        try:
            return self._state.views[name]
        except KeyError as exc:
            raise SnapshotError(
                f"snapshot v{self._state.version} does not serve view {name!r} "
                f"(serves: {', '.join(sorted(self._state.views)) or 'none'})"
            ) from exc

    def close(self) -> None:
        """Release the pin (idempotent)."""
        if not self._closed:
            self._closed = True
            self._manager._unpin(self._state)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "pinned"
        return f"<SnapshotHandle v{self._state.version} round={self._state.as_of_round} {state}>"


class SnapshotManager:
    """Publishes versioned snapshots and tracks reader pins.

    One writer (the refresh daemon) calls :meth:`publish` at each refresh
    commit; any number of reader threads call :meth:`pin`.  All state
    transitions happen under one mutex and are O(1) in the data size — the
    contents themselves are shared by reference (see the module docstring
    for why that is safe).
    """

    def __init__(self) -> None:
        self._mutex = Mutex()
        #: Signalled at every publish — block-until-fresh readers wait here.
        self.published_event = Condition(self._mutex)
        self._current: Optional[_SnapshotVersion] = None
        self._superseded: List[_SnapshotVersion] = []
        self._next_version = 1
        self._published = 0
        self._retired = 0

    # ----------------------------------------------------------------- write

    def publish(self, views: Mapping[str, Relation], as_of_round: int) -> int:
        """Atomically publish a new current snapshot; returns its version.

        Superseded versions without readers are retired on the spot; pinned
        ones survive until their last reader unpins.
        """
        with self._mutex:
            state = _SnapshotVersion(
                version=self._next_version,
                as_of_round=as_of_round,
                views=dict(views),
            )
            self._next_version += 1
            previous = self._current
            self._current = state
            self._published += 1
            if previous is not None:
                if previous.pins == 0:
                    self._retire(previous)
                else:
                    self._superseded.append(previous)
            self.published_event.notify_all()
            return state.version

    def _retire(self, state: _SnapshotVersion) -> None:
        state.views = {}
        self._retired += 1

    # ------------------------------------------------------------------ read

    def pin(self) -> SnapshotHandle:
        """Pin the current snapshot and return a read handle."""
        with self._mutex:
            if self._current is None:
                raise SnapshotError(
                    "no snapshot published yet — the serving session "
                    "publishes the first one before accepting readers"
                )
            self._current.pins += 1
            return SnapshotHandle(self, self._current)

    def _unpin(self, state: _SnapshotVersion) -> None:
        with self._mutex:
            state.pins -= 1
            if state.pins == 0 and state is not self._current:
                self._superseded.remove(state)
                self._retire(state)

    # ------------------------------------------------------------ inspection

    @property
    def current_version(self) -> int:
        """Version of the current snapshot (0 before the first publish)."""
        with self._mutex:
            return self._current.version if self._current is not None else 0

    @property
    def current_round(self) -> int:
        """As-of round of the current snapshot (0 before the first publish)."""
        with self._mutex:
            return self._current.as_of_round if self._current is not None else 0

    def stats(self) -> SnapshotStats:
        """Point-in-time counters (versions published/retired/live, pins)."""
        with self._mutex:
            live = (1 if self._current is not None else 0) + len(self._superseded)
            pins = (self._current.pins if self._current is not None else 0) + sum(
                state.pins for state in self._superseded
            )
            return SnapshotStats(
                published=self._published,
                retired=self._retired,
                live_versions=live,
                current_version=(
                    self._current.version if self._current is not None else 0
                ),
                pinned_readers=pins,
            )
