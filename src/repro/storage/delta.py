"""Delta relations (δ+ and δ−).

The paper assumes every base relation ``r`` has two logged delta relations,
``δ+r`` (inserted tuples) and ``δ−r`` (deleted tuples), made available to the
view-refresh mechanism.  :class:`Delta` pairs those two bags for one base
relation; :class:`DeltaStore` holds the deltas of all relations involved in a
refresh and assigns the paper's update numbering (§5.2): updates are numbered
``1 .. 2n`` with odd numbers for inserts and even numbers for deletes,
ordered by the relation order, and propagated one at a time.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.bagdiff import multiset_subtract
from repro.storage.relation import Relation, Row


class DeltaKind(enum.Enum):
    """Kind of a single-relation update: insertions or deletions."""

    INSERT = "insert"
    DELETE = "delete"

    @property
    def symbol(self) -> str:
        """The δ+/δ− rendering used in plan displays."""
        return "δ+" if self is DeltaKind.INSERT else "δ-"


@dataclass
class Delta:
    """The pair of delta relations for one base relation."""

    relation: str
    inserts: Relation
    deletes: Relation

    @property
    def is_empty(self) -> bool:
        """Whether neither inserts nor deletes are present."""
        return not len(self.inserts) and not len(self.deletes)

    @property
    def row_count(self) -> int:
        """Total tuples across both bags (the size the refresh must propagate)."""
        return len(self.inserts) + len(self.deletes)

    def part(self, kind: DeltaKind) -> Relation:
        """The insert or delete bag."""
        return self.inserts if kind is DeltaKind.INSERT else self.deletes


@dataclass(frozen=True)
class UpdateId:
    """Identifies one of the ``2n`` single-relation updates of a refresh.

    The paper numbers updates ``1 .. 2n``; entry ``2i-1`` is the insert on
    relation ``R_i`` and entry ``2i`` the delete on ``R_i``.  ``number`` here
    follows that convention (1-based), while ``relation``/``kind`` carry the
    decoded meaning.  Update number ``0`` is reserved for "the full result".
    """

    number: int
    relation: str
    kind: DeltaKind

    def __str__(self) -> str:
        return f"{self.kind.symbol}{self.relation}"


class DeltaStore:
    """Deltas for all base relations touched by one refresh round.

    The relation order passed to the constructor defines the paper's update
    numbering and therefore the order in which updates are propagated
    ("one relation at a time, one type of update at a time", §3.1.1).
    """

    def __init__(self, relation_order: Sequence[str]) -> None:
        self._order: List[str] = list(relation_order)
        self._deltas: Dict[str, Delta] = {}

    @property
    def relation_order(self) -> List[str]:
        """Relations in propagation order."""
        return list(self._order)

    def set_delta(self, delta: Delta) -> None:
        """Record the delta for one relation (must be in the relation order)."""
        if delta.relation not in self._order:
            raise KeyError(f"relation {delta.relation!r} not part of this refresh")
        self._deltas[delta.relation] = delta

    def add_relation(self, relation: str) -> None:
        """Append a relation to the propagation order if not present yet.

        Used by consumers that grow a store incrementally (the stream
        pending buffer absorbing rounds that touch new relations).
        """
        if relation not in self._order:
            self._order.append(relation)

    def delta(self, relation: str) -> Optional[Delta]:
        """The delta for ``relation``, or ``None`` if it has no updates."""
        return self._deltas.get(relation)

    def relation_delta(self, relation: str, kind: DeltaKind) -> Relation:
        """The δ+ or δ− bag for ``relation`` (empty relation if absent)."""
        d = self._deltas.get(relation)
        if d is None:
            raise KeyError(f"no delta recorded for {relation!r}")
        return d.part(kind)

    def has_updates(self, relation: str, kind: Optional[DeltaKind] = None) -> bool:
        """Whether ``relation`` has any (or a specific kind of) updates."""
        d = self._deltas.get(relation)
        if d is None:
            return False
        if kind is None:
            return not d.is_empty
        return len(d.part(kind)) > 0

    # -------------------------------------------------------- update numbering

    def update_ids(self, only_nonempty: bool = False) -> List[UpdateId]:
        """The ``2n`` update ids in propagation order.

        With ``only_nonempty=True``, updates whose delta bag is empty (or
        whose relation has no recorded delta) are skipped, matching the
        optimizer's practice of flagging null differentials.
        """
        ids: List[UpdateId] = []
        for i, rel in enumerate(self._order):
            for offset, kind in ((1, DeltaKind.INSERT), (2, DeltaKind.DELETE)):
                number = 2 * i + offset
                if only_nonempty and not self.has_updates(rel, kind):
                    continue
                ids.append(UpdateId(number, rel, kind))
        return ids

    def update_id(self, relation: str, kind: DeltaKind) -> UpdateId:
        """The :class:`UpdateId` for a specific relation and kind."""
        i = self._order.index(relation)
        number = 2 * i + (1 if kind is DeltaKind.INSERT else 2)
        return UpdateId(number, relation, kind)

    def total_rows(self) -> int:
        """Total tuples across every relation's insert and delete bags."""
        return sum(delta.row_count for delta in self._deltas.values())

    def delta_sizes(self) -> Dict[str, Tuple[int, int]]:
        """Per-relation ``(inserts, deletes)`` bag sizes, in propagation order."""
        return {
            rel: (len(self._deltas[rel].inserts), len(self._deltas[rel].deletes))
            for rel in self._order
            if rel in self._deltas
        }

    def __iter__(self) -> Iterator[Delta]:
        for rel in self._order:
            if rel in self._deltas:
                yield self._deltas[rel]

    def __len__(self) -> int:
        return len(self._deltas)


def update_numbering(relations: Sequence[str]) -> List[UpdateId]:
    """Stand-alone helper producing the paper's ``1..2n`` update numbering."""
    store = DeltaStore(relations)
    return store.update_ids()


# ----------------------------------------------------------------- coalescing

@dataclass
class CoalesceOutcome:
    """Result of composing two consecutive deltas of one relation."""

    delta: Delta
    #: Tuples that annihilated: rows inserted by the earlier delta and deleted
    #: again by the later one (counted with multiplicity).  They vanish from
    #: both bags — the refresh never sees them.
    annihilated: int


def coalesce_delta(earlier: Delta, later: Delta) -> CoalesceOutcome:
    """Compose two consecutive single-relation deltas into one.

    For any base bag ``R`` with ``earlier = (i₁, d₁)`` applied before
    ``later = (i₂, d₂)``, the coalesced delta ``(I, D)`` satisfies

        ((R − d₁) ∪ i₁ − d₂) ∪ i₂  ==  (R − D) ∪ I        (bag equality)

    with the standard composition: later deletes first cancel against
    still-pending earlier inserts (insert-then-delete annihilates — those
    tuples never existed as far as any view is concerned), the remainder
    joins the delete bag:

        I = (i₁ − d₂) ∪ i₂
        D = d₁ ∪ (d₂ − i₁)

    Delete-then-insert is deliberately *not* cancelled: ``d₁`` rows stay in
    ``D`` even when ``i₂`` re-inserts equal tuples, preserving the multiset
    accounting without assuming anything about ``R``'s contents.

    Both bags are composed with counted multiset semantics (one cancellation
    per matching copy), vectorized over the row lists with a single
    :class:`collections.Counter` pass per bag.
    """
    if earlier.relation != later.relation:
        raise ValueError(
            f"cannot coalesce deltas of different relations "
            f"{earlier.relation!r} and {later.relation!r}"
        )
    # Stream both deltas through iter_rows: store-backed bags (vectorized
    # operator outputs) coalesce without ever caching a row-list copy.
    pending_inserts: "Counter[Row]" = Counter(earlier.inserts.iter_rows())
    # d₂ splits into the part that cancels pending inserts and the rest.
    cancelled: "Counter[Row]" = Counter()
    surviving_deletes: List[Row] = []
    for row in later.deletes.iter_rows():
        if pending_inserts[row] - cancelled[row] > 0:
            cancelled[row] += 1
        else:
            surviving_deletes.append(row)
    # i₁ minus the cancelled copies, then i₂ appended.
    kept_inserts = multiset_subtract(earlier.inserts.iter_rows(), cancelled.elements())
    kept_inserts.extend(later.inserts.iter_rows())

    schema = earlier.inserts.schema
    inserts = Relation.from_trusted_rows(schema, kept_inserts, earlier.inserts.name)
    surviving_deletes[:0] = earlier.deletes.iter_rows()
    deletes = Relation.from_trusted_rows(
        earlier.deletes.schema,
        surviving_deletes,
        earlier.deletes.name,
    )
    annihilated = sum(cancelled.values())
    return CoalesceOutcome(Delta(earlier.relation, inserts, deletes), annihilated)


def merge_delta_sizes(
    *size_maps: "Dict[str, Tuple[int, int]]",
) -> Dict[str, Tuple[int, int]]:
    """Element-wise sum of per-relation ``(inserts, deletes)`` size maps.

    First-appearance order is preserved — callers that derive an update
    numbering from the result (e.g. ``Warehouse._spec_of``) rely on it.
    """
    merged: Dict[str, Tuple[int, int]] = {}
    for sizes in size_maps:
        for relation, (inserts, deletes) in sizes.items():
            have = merged.get(relation, (0, 0))
            merged[relation] = (have[0] + inserts, have[1] + deletes)
    return merged


def merge_round(merged: DeltaStore, deltas: Iterable[Delta]) -> int:
    """Compose one round's deltas into ``merged`` in place.

    Each relation delta either lands verbatim (bags copied — the caller
    keeps ownership of the incoming round) or is coalesced onto the
    relation's pending delta via :func:`coalesce_delta`; relations the
    round does not touch are never re-copied.  Returns the number of
    tuples annihilated by this round.
    """
    annihilated = 0
    for delta in deltas:
        merged.add_relation(delta.relation)
        pending = merged.delta(delta.relation)
        if pending is None:
            merged.set_delta(
                Delta(delta.relation, delta.inserts.copy(), delta.deletes.copy())
            )
            continue
        if not len(delta.deletes):
            # Nothing can cancel: append in place to the owned bags instead
            # of re-scanning everything pending — this keeps insert-heavy
            # sessions O(arrived rows) per tick rather than O(pending).
            pending.inserts.extend(delta.inserts.iter_rows())
            continue
        outcome = coalesce_delta(pending, delta)
        annihilated += outcome.annihilated
        merged.set_delta(outcome.delta)
    return annihilated


def coalesce_stores(rounds: Sequence[DeltaStore]) -> Tuple[DeltaStore, int]:
    """Fold a sequence of update rounds into one coalesced :class:`DeltaStore`.

    The relation order of the first round wins (relations appearing only in
    later rounds are appended); returns the coalesced store plus the total
    number of annihilated tuples across all relations.
    """
    if not rounds:
        raise ValueError("cannot coalesce an empty sequence of rounds")
    merged = DeltaStore(rounds[0].relation_order)
    annihilated = 0
    for store in rounds:
        annihilated += merge_round(merged, store)
    return merged, annihilated
