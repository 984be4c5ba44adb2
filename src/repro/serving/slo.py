"""Per-view freshness SLOs and read-degradation policies.

Litwin's stored-and-inherited framing (PAPERS.md) is the shape of the read
path here: a served view is a *stored* snapshot plus an *inherited*
freshness bound, and the serving layer's job is to keep that bound honest
at minimum maintenance cost.  A :class:`FreshnessSLO` states the bound —
how far a served snapshot may trail the ingested update stream, in
**rounds** (update batches not yet reflected), **rows** (base-table delta
tuples not yet propagated) and/or **seconds** (age of the oldest pending
ingest).  :class:`Staleness` is the measured counterpart; comparing the two
yields either ``None`` (within bound) or the human-readable reason the
bound is violated.

The SLO acts on both sides of the serving layer:

* **Scheduler side (hard bound).**  The refresh daemon lets the stream
  scheduler defer refreshes within its policy's staleness bounds, but
  overrides any ``defer`` verdict that would leave some view's staleness
  past its SLO — the bound is *layered over* the policy's.
* **Read side (admission control).**  When the daemon has fallen behind
  anyway (a slow flush, a paused daemon, a burst of ingests), each read is
  admitted per :data:`ReadPolicy`: ``serve-stale`` serves the pinned
  snapshot immediately and flags the result as degraded;  ``block`` waits —
  up to a timeout — for a fresh-enough snapshot to be published; ``reject``
  sheds the read with :class:`~repro.api.errors.StaleReadError` so the
  client can retry elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Admission-control policies for reads that would violate their view's SLO.
READ_POLICIES: Tuple[str, ...] = ("serve-stale", "block", "reject")


@dataclass(frozen=True)
class Staleness:
    """How far a served snapshot trails the ingested stream, for one view."""

    #: Ingested update rounds touching the view not yet in the snapshot.
    rounds: int = 0
    #: Pending delta rows (insert + delete) over the view's base relations.
    rows: int = 0
    #: Age in seconds of the oldest pending ingest touching the view
    #: (``0.0`` when nothing is pending).
    seconds: float = 0.0

    @property
    def fresh(self) -> bool:
        """Whether nothing at all is pending for the view."""
        return self.rounds == 0 and self.rows == 0

    def render(self) -> str:
        return (
            f"{self.rounds} rounds / {self.rows} rows / "
            f"{self.seconds:.3f}s behind"
        )


@dataclass(frozen=True)
class FreshnessSLO:
    """Maximum staleness a served view tolerates (``None`` = unbounded).

    All three bounds are inclusive: a snapshot trailing by *exactly*
    ``max_rounds`` rounds still satisfies the SLO; one more pending round
    violates it.  An SLO with every bound ``None`` never forces a refresh
    and never degrades a read — the stream policy's bounds alone decide.
    """

    #: Most ingested-but-unapplied update rounds the view tolerates.
    max_rounds: Optional[int] = None
    #: Most pending delta rows over the view's base relations.
    max_rows: Optional[int] = None
    #: Longest a pending ingest may wait before a refresh is forced.
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")

    @property
    def unbounded(self) -> bool:
        """Whether this SLO can never be violated."""
        return self.max_rounds is None and self.max_rows is None and self.max_seconds is None

    def violation(self, staleness: Staleness) -> Optional[str]:
        """Why ``staleness`` violates this SLO, or ``None`` when it does not."""
        if self.max_rounds is not None and staleness.rounds > self.max_rounds:
            return f"{staleness.rounds} rounds pending > max_rounds={self.max_rounds}"
        if self.max_rows is not None and staleness.rows > self.max_rows:
            return f"{staleness.rows} rows pending > max_rows={self.max_rows}"
        if self.max_seconds is not None and staleness.seconds > self.max_seconds:
            return (
                f"oldest pending ingest {staleness.seconds:.3f}s old > "
                f"max_seconds={self.max_seconds}"
            )
        return None

    def satisfied_by(self, staleness: Staleness) -> bool:
        """Whether ``staleness`` is within every configured bound."""
        return self.violation(staleness) is None

    def render(self) -> str:
        if self.unbounded:
            return "unbounded"
        parts = []
        if self.max_rounds is not None:
            parts.append(f"≤{self.max_rounds} rounds")
        if self.max_rows is not None:
            parts.append(f"≤{self.max_rows} rows")
        if self.max_seconds is not None:
            parts.append(f"≤{self.max_seconds:g}s")
        return ", ".join(parts)


def validate_read_policy(policy: str) -> str:
    """Return ``policy`` if known, raise ``ValueError`` otherwise."""
    if policy not in READ_POLICIES:
        raise ValueError(
            f"unknown read policy {policy!r} (choose from "
            f"{', '.join(READ_POLICIES)})"
        )
    return policy
