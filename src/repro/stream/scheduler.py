"""Refresh scheduling for continuous update streams.

The paper prices *what* to materialize; under a continuous stream the system
must also choose *when* to pay the maintenance work.  :class:`StreamScheduler`
sits between update producers and the
:class:`~repro.maintenance.maintainer.ViewRefresher`: every ingested round
lands in a :class:`~repro.stream.pending.PendingDeltas` buffer, and a
:class:`StreamPolicy` decides on each tick whether deferral still pays.

The cost comparison uses the delta-size-aware refresh costing of
:meth:`~repro.catalog.estimator.CardinalityEstimator.refresh_round_cost`:

* **eager cost** — the estimated cost of having refreshed after every
  ingested round (one fixed overhead per single-relation update per round,
  every delta row propagated through every dependent view);
* **deferred cost** — one refresh round over the coalesced pending deltas
  (fewer rows after annihilation, one overhead per relation instead of N),
  plus the large-delta penalty once a coalesced insert bag would push
  ``Database.apply_update`` past its incremental-index-maintenance
  threshold into a full rebuild.

Deferral keeps paying while ``deferred < eager``; staleness bounds
(``max_rows``, ``max_batches``) cap how far it may run ahead of view
freshness regardless of cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

from repro.storage.delta import DeltaStore, merge_delta_sizes
from repro.stream.pending import PendingDeltas

#: Signature of the per-round cost model the scheduler consults: estimated
#: cost (delta-row-equivalents) of one refresh round over the given
#: per-relation ``(inserts, deletes)`` sizes.
RoundCost = Callable[[Mapping[str, Tuple[int, int]]], float]


@dataclass(frozen=True)
class StreamPolicy:
    """When (and how) a stream session refreshes.

    ``always()`` refreshes on every ingest (the eager baseline);
    ``coalescing()`` defers and coalesces until the cost model or a
    staleness bound triggers a flush.
    """

    #: Display name ("eager" / "coalesce"), also the config-knob spelling.
    name: str = "coalesce"
    #: Refresh on every ingest, never defer.
    eager: bool = False
    #: Compose buffered rounds into one delta (insert/delete annihilation).
    coalesce: bool = True
    #: Consult the cost model each tick; with ``False`` only the staleness
    #: bounds trigger flushes.
    cost_based: bool = True
    #: Flush once the pending (coalesced) row count reaches this bound.
    max_rows: Optional[int] = None
    #: Flush once this many rounds have been deferred.
    max_batches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        if self.max_batches is not None and self.max_batches < 1:
            raise ValueError(f"max_batches must be positive, got {self.max_batches}")

    @staticmethod
    def always() -> "StreamPolicy":
        """Refresh after every ingested round (the paper's implicit policy)."""
        return StreamPolicy(name="eager", eager=True, coalesce=False, cost_based=False)

    @staticmethod
    def coalescing(
        max_rows: Optional[int] = None,
        max_batches: Optional[int] = None,
        cost_based: bool = True,
    ) -> "StreamPolicy":
        """Defer and coalesce; flush on cost crossover or a staleness bound."""
        return StreamPolicy(
            name="coalesce",
            eager=False,
            coalesce=True,
            cost_based=cost_based,
            max_rows=max_rows,
            max_batches=max_batches,
        )


@dataclass
class TickDecision:
    """One policy tick: what arrived, what is pending, and the verdict."""

    tick: int
    arrived_rows: int
    pending_rows: int
    pending_batches: int
    annihilated_rows: int
    #: Estimated cost of having refreshed eagerly after each pending round.
    eager_cost: float
    #: Estimated cost of one deferred refresh over the coalesced pending bags.
    deferred_cost: float
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
            f"eager≈{self.eager_cost:.1f} deferred≈{self.deferred_cost:.1f} "
            f"-> {self.action} [{self.reason}]"
        )


class StreamScheduler:
    """Decides, per ingested round, whether to refresh now or keep deferring."""

    def __init__(
        self,
        policy: StreamPolicy,
        round_cost: Optional[RoundCost] = None,
    ) -> None:
        self.policy = policy
        #: Cost model consulted by cost-based policies; ``None`` disables the
        #: cost comparison (staleness bounds still apply).
        self.round_cost = round_cost
        if (
            not policy.eager
            and policy.max_rows is None
            and policy.max_batches is None
            and (not policy.cost_based or round_cost is None)
        ):
            raise ValueError(
                "this policy can never trigger a refresh: a deferring "
                "scheduler without a cost model needs max_rows or "
                "max_batches (pending deltas would otherwise grow until "
                "the session closes)"
            )
        self.pending = PendingDeltas(coalesce=policy.coalesce)
        #: Every decision since the scheduler was created (the explain trace).
        self.decisions: List[TickDecision] = []
        #: Accumulated estimated cost of the eager alternative for the
        #: currently pending rounds (one round-cost term per ingest).
        self._eager_cost = 0.0
        #: Per-relation sizes of the most recent round — the "typical next
        #: round" used to project whether one more deferral would still pay —
        #: and its already-computed cost (reused by the projection).
        self._last_sizes: Mapping[str, Tuple[int, int]] = {}
        self._last_round_cost = 0.0
        self._tick = 0

    # ---------------------------------------------------------------- ingest

    def ingest(self, deltas: DeltaStore) -> TickDecision:
        """Absorb one update round and decide whether to flush now."""
        self._tick += 1
        arrived = deltas.total_rows()
        self._last_sizes = deltas.delta_sizes()
        if self._costing:
            self._last_round_cost = self.round_cost(self._last_sizes)
            self._eager_cost += self._last_round_cost
        self.pending.ingest(deltas)
        decision = self._decide(arrived)
        self.decisions.append(decision)
        return decision

    @property
    def _costing(self) -> bool:
        # Eager / bound-only policies never read the estimates — skip the
        # per-tick estimator work entirely.
        return self.policy.cost_based and self.round_cost is not None

    def _decide(self, arrived: int) -> TickDecision:
        deferred_cost = (
            self.round_cost(self.pending.delta_sizes()) if self._costing else 0.0
        )
        action, reason = self._verdict(deferred_cost)
        return TickDecision(
            tick=self._tick,
            arrived_rows=arrived,
            pending_rows=self.pending.pending_rows(),
            pending_batches=self.pending.batches,
            annihilated_rows=self.pending.annihilated_rows,
            eager_cost=self._eager_cost,
            deferred_cost=deferred_cost,
            action=action,
            reason=reason,
        )

    def _verdict(self, deferred_cost: float) -> Tuple[str, str]:
        policy = self.policy
        if policy.eager:
            return "refresh", "policy always refreshes"
        if self.pending.pending_rows() == 0:
            # Everything annihilated: there is nothing a refresh could do.
            return "defer", "pending deltas annihilated to empty"
        if policy.max_batches is not None and self.pending.batches >= policy.max_batches:
            return "refresh", f"staleness bound: {self.pending.batches} batches pending"
        if policy.max_rows is not None and self.pending.pending_rows() >= policy.max_rows:
            return "refresh", f"staleness bound: {self.pending.pending_rows()} rows pending"
        if self._costing:
            if deferred_cost > self._eager_cost:
                # The large-delta index-rebuild penalty outgrew the savings:
                # the coalesced flush already costs more than eager replay.
                return "refresh", "deferral stopped paying (deferred > eager replay)"
            # Project one more typical round: flush *before* the coalesced
            # delta crosses the index-rebuild threshold, not after.
            projected_deferred = self.round_cost(
                merge_delta_sizes(self.pending.delta_sizes(), dict(self._last_sizes))
            )
            projected_eager = self._eager_cost + self._last_round_cost
            if projected_deferred > projected_eager:
                return (
                    "refresh",
                    "deferral about to stop paying (next round crosses the "
                    "index-rebuild threshold)",
                )
            saving = self._eager_cost - deferred_cost
            return "defer", f"deferral saves ≈{saving:.1f}"
        return "defer", "within staleness bounds"

    # --------------------------------------------------------------- override

    def override_last(self, action: str, reason: str) -> TickDecision:
        """Rewrite the latest verdict (a bound layered over the cost model).

        The serving daemon uses this to turn a cost-based ``defer`` into a
        ``refresh`` when a view's freshness SLO is violated: the SLO is a
        hard bound *on top of* deferral economics, so the decision trace
        must show the overridden verdict and the SLO reason — not pretend
        the cost model chose to flush.
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
        """Hand over the pending rounds for refreshing and reset the tally."""
        rounds = self.pending.take()
        self._eager_cost = 0.0
        return rounds

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
