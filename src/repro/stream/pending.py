"""The pending-delta buffer between update producers and the refresher.

:class:`PendingDeltas` absorbs per-relation update rounds as they arrive and
holds them until the scheduler decides to flush.  In coalescing mode (the
default) consecutive rounds of the same relation are composed —
insert-then-delete pairs annihilate, N rounds collapse into one — so a
deferred flush propagates strictly fewer tuples than replaying the rounds
eagerly.  With coalescing off the rounds are retained verbatim, which is
what lets the property tests replay them as an oracle and lets
:meth:`ViewRefresher.refresh_many` share one old-value cache across the
flushed sequence.

Coalescing is incremental and O(arrived rows) per ingest: the buffer keeps
per-relation row lists plus a counted index of still-cancellable pending
inserts, so a tick never re-scans what is already buffered.  The composed
bags are materialized once, at :meth:`take`.  The fold itself is defined by
:func:`repro.storage.delta.coalesce_stores` — the reference implementation
the property tests pin this buffer against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.delta import Delta, DeltaStore
from repro.storage.bagdiff import multiset_subtract
from repro.storage.relation import Relation, Row


@dataclass
class _PendingRelation:
    """One relation's buffered composition state (coalescing mode)."""

    #: Template bags (empty copies keep the schemas and δ+/δ− bag names).
    insert_template: Relation
    delete_template: Relation
    #: Every pending insert row, including ones later cancelled by deletes.
    insert_rows: List[Row] = field(default_factory=list)
    #: Live multiset of pending inserts still available for cancellation.
    available: Counter = field(default_factory=Counter)
    #: Insert copies cancelled by later deletes (removed at materialization).
    cancelled: Counter = field(default_factory=Counter)
    #: Total cancelled copies — kept as a running int so size queries on
    #: every scheduler tick stay O(relations), not O(distinct cancelled rows).
    cancelled_copies: int = 0
    #: Deletes that survived cancellation, in arrival order.
    delete_rows: List[Row] = field(default_factory=list)

    def absorb(self, delta: Delta) -> int:
        """Compose one round's delta in O(round rows); returns annihilated."""
        annihilated = 0
        for row in delta.deletes.rows:
            if self.available.get(row, 0) > 0:
                self.available[row] -= 1
                self.cancelled[row] += 1
                annihilated += 1
            else:
                self.delete_rows.append(row)
        self.cancelled_copies += annihilated
        if len(delta.inserts):
            self.insert_rows.extend(delta.inserts.rows)
            self.available.update(delta.inserts.rows)
        return annihilated

    @property
    def pending_inserts(self) -> int:
        return len(self.insert_rows) - self.cancelled_copies

    def materialize(self, relation: str) -> Delta:
        """The composed delta: pending inserts minus cancelled, plus deletes."""
        inserts = Relation.from_trusted_rows(
            self.insert_template.schema,
            multiset_subtract(self.insert_rows, self.cancelled.elements()),
            self.insert_template.name,
        )
        deletes = Relation.from_trusted_rows(
            self.delete_template.schema,
            list(self.delete_rows),
            self.delete_template.name,
        )
        return Delta(relation, inserts, deletes)


class PendingDeltas:
    """Buffered update rounds awaiting a refresh, optionally coalesced."""

    def __init__(self, coalesce: bool = True) -> None:
        self.coalesce = coalesce
        #: Rounds retained verbatim (coalescing off) — the eager-replay oracle.
        self._rounds: List[DeltaStore] = []
        #: Per-relation composition state, in first-seen propagation order.
        self._state: Dict[str, _PendingRelation] = {}
        #: Rounds absorbed since the last flush.
        self.batches = 0
        #: Tuples handed to :meth:`ingest` since the last flush.
        self.rows_ingested = 0
        #: Tuples that annihilated during coalescing since the last flush.
        self.annihilated_rows = 0

    # ---------------------------------------------------------------- ingest

    def ingest(self, deltas: DeltaStore) -> int:
        """Absorb one update round; returns tuples annihilated by this round."""
        self.batches += 1
        self.rows_ingested += deltas.total_rows()
        if not self.coalesce:
            self._rounds.append(deltas)
            return 0
        annihilated = 0
        for delta in deltas:
            state = self._state.get(delta.relation)
            if state is None:
                state = _PendingRelation(
                    insert_template=Relation.empty_like(delta.inserts),
                    delete_template=Relation.empty_like(delta.deletes),
                )
                self._state[delta.relation] = state
            annihilated += state.absorb(delta)
        self.annihilated_rows += annihilated
        return annihilated

    # ------------------------------------------------------------- inspection

    @property
    def is_empty(self) -> bool:
        """Whether nothing has been ingested since the last flush."""
        return self.batches == 0

    def pending_rows(self) -> int:
        """Tuples a flush would actually propagate (after coalescing)."""
        if self.coalesce:
            return sum(
                state.pending_inserts + len(state.delete_rows)
                for state in self._state.values()
            )
        return sum(store.total_rows() for store in self._rounds)

    # ------------------------------------------------------------------ flush

    def take(self) -> List[DeltaStore]:
        """Hand over the pending rounds for a refresh and reset the buffer.

        Coalescing mode yields at most one round (none when everything
        annihilated — the refresh is skipped entirely); otherwise the
        buffered rounds in arrival order.
        """
        if self.coalesce:
            merged: Optional[DeltaStore] = None
            if any(
                state.pending_inserts or state.delete_rows
                for state in self._state.values()
            ):
                merged = DeltaStore(list(self._state))
                for relation, state in self._state.items():
                    merged.set_delta(state.materialize(relation))
            rounds = [merged] if merged is not None else []
        else:
            rounds = self._rounds
        self._rounds = []
        self._state = {}
        self.batches = 0
        self.rows_ingested = 0
        self.annihilated_rows = 0
        return rounds
