"""Refresh scheduling for continuous update streams.

The paper prices *what* to materialize; under a continuous stream the system
must also choose *when* to pay the maintenance work.  :class:`StreamScheduler`
sits between update producers and the
:class:`~repro.maintenance.maintainer.ViewRefresher`: every ingested round
lands in a :class:`~repro.stream.pending.PendingDeltas` buffer, and a
:class:`StreamPolicy` decides on each tick whether to flush it now.

A coalesced flush never costs more than replaying its rounds eagerly: each
coalesced bag is at most the sum of the rounds' bags, and it pays one fixed
overhead per relation instead of one per round.  Deferral therefore always
pays, and what bounds it is freshness, not cost: the staleness bounds
(``max_rows``, ``max_batches``) say how far the views may run behind the
ingested stream, and under ``Warehouse.serve()`` a
:class:`~repro.serving.FreshnessSLO` may force an earlier flush
(:meth:`StreamScheduler.override_last`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.storage.delta import DeltaStore
from repro.stream.pending import PendingDeltas


@dataclass(frozen=True)
class StreamPolicy:
    """When (and how) a stream session refreshes.

    ``always()`` refreshes on every ingest (the eager baseline);
    ``coalescing()`` defers and coalesces until a staleness bound triggers a
    flush.
    """

    #: Refresh on every ingest, never defer.
    eager: bool = False
    #: Flush once the pending (coalesced) row count reaches this bound.
    max_rows: Optional[int] = None
    #: Flush once this many rounds have been deferred.
    max_batches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        if self.max_batches is not None and self.max_batches < 1:
            raise ValueError(f"max_batches must be positive, got {self.max_batches}")

    @property
    def name(self) -> str:
        """Display name ("eager" / "coalesce"), also the config-knob spelling."""
        return "eager" if self.eager else "coalesce"

    @property
    def coalesce(self) -> bool:
        """Compose buffered rounds into one delta (insert/delete annihilation)."""
        return not self.eager

    @staticmethod
    def always() -> "StreamPolicy":
        """Refresh after every ingested round (the paper's implicit policy)."""
        return StreamPolicy(eager=True)

    @staticmethod
    def coalescing(
        max_rows: Optional[int] = None,
        max_batches: Optional[int] = None,
    ) -> "StreamPolicy":
        """Defer and coalesce; flush once a staleness bound is reached."""
        return StreamPolicy(max_rows=max_rows, max_batches=max_batches)


@dataclass
class TickDecision:
    """One policy tick: what arrived, what is pending, and the verdict."""

    tick: int
    arrived_rows: int
    pending_rows: int
    pending_batches: int
    annihilated_rows: int
    #: ``"refresh"`` or ``"defer"``.
    action: str
    reason: str

    @property
    def refreshes(self) -> bool:
        """Whether this tick triggers a flush."""
        return self.action == "refresh"

    def render(self) -> str:
        """One trace line, the building block of ``explain_schedule()``."""
        return (
            f"tick {self.tick}: +{self.arrived_rows} rows "
            f"(pending {self.pending_rows} rows / {self.pending_batches} "
            f"{'batch' if self.pending_batches == 1 else 'batches'}, "
            f"{self.annihilated_rows} annihilated) "
            f"-> {self.action} [{self.reason}]"
        )


class StreamScheduler:
    """Decides, per ingested round, whether to refresh now or keep deferring."""

    def __init__(self, policy: StreamPolicy) -> None:
        self.policy = policy
        if not policy.eager and policy.max_rows is None and policy.max_batches is None:
            raise ValueError(
                "this policy can never trigger a refresh: a deferring "
                "scheduler needs max_rows or max_batches (pending deltas "
                "would otherwise grow until the session closes)"
            )
        self.pending = PendingDeltas(coalesce=policy.coalesce)
        #: Every decision since the scheduler was created (the explain trace).
        self.decisions: List[TickDecision] = []
        self._tick = 0

    # ---------------------------------------------------------------- ingest

    def ingest(self, deltas: DeltaStore) -> TickDecision:
        """Absorb one update round and decide whether to flush now."""
        self._tick += 1
        arrived = deltas.total_rows()
        self.pending.ingest(deltas)
        action, reason = self._verdict()
        decision = TickDecision(
            tick=self._tick,
            arrived_rows=arrived,
            pending_rows=self.pending.pending_rows(),
            pending_batches=self.pending.batches,
            annihilated_rows=self.pending.annihilated_rows,
            action=action,
            reason=reason,
        )
        self.decisions.append(decision)
        return decision

    def _verdict(self) -> Tuple[str, str]:
        policy = self.policy
        if policy.eager:
            return "refresh", "policy always refreshes"
        pending_rows = self.pending.pending_rows()
        if pending_rows == 0:
            # Everything annihilated: there is nothing a refresh could do.
            return "defer", "pending deltas annihilated to empty"
        if policy.max_batches is not None and self.pending.batches >= policy.max_batches:
            return "refresh", f"staleness bound: {self.pending.batches} batches pending"
        if policy.max_rows is not None and pending_rows >= policy.max_rows:
            return "refresh", f"staleness bound: {pending_rows} rows pending"
        return "defer", "within staleness bounds"

    # --------------------------------------------------------------- override

    def override_last(self, action: str, reason: str) -> TickDecision:
        """Rewrite the latest verdict (a bound layered over the policy's).

        The serving daemon uses this to turn a ``defer`` into a
        ``refresh`` when a view's freshness SLO is violated: the SLO is a
        bound *on top of* the policy's, so the decision trace must show the
        overridden verdict and the SLO reason — not pretend the policy chose
        to flush.
        """
        if action not in ("refresh", "defer"):
            raise ValueError(f"unknown override action {action!r}")
        if not self.decisions:
            raise ValueError("no decision to override — nothing ingested yet")
        decision = self.decisions[-1]
        if decision.action != action:
            reason = f"{reason} [overrides {decision.action}: {decision.reason}]"
        decision.action = action
        decision.reason = reason
        return decision

    # ----------------------------------------------------------------- flush

    def take(self) -> List[DeltaStore]:
        """Hand over the pending rounds for refreshing."""
        return self.pending.take()

    # ----------------------------------------------------------------- trace

    def render_trace(self) -> str:
        """The full decision trace, one line per tick."""
        header = (
            f"stream policy: {self.policy.name}"
            + (f", max_rows={self.policy.max_rows}" if self.policy.max_rows else "")
            + (f", max_batches={self.policy.max_batches}" if self.policy.max_batches else "")
        )
        if not self.decisions:
            return header + "\n(no updates ingested yet)"
        return "\n".join([header, *[d.render() for d in self.decisions]])
