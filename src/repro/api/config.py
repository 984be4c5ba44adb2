"""One validated configuration object for the whole pipeline.

:class:`WarehouseConfig` consolidates the knobs that were previously spread
across ``ExperimentConfig``, ``ViewMaintenanceOptimizer``, ``ViewRefresher``
and the ``CardinalityEstimator`` into a single frozen dataclass the
:class:`~repro.api.Warehouse` hands to every component it owns.  Named
profiles capture the three configurations that matter in practice:

* ``paper``  — the paper's experimental setting (the defaults): Greedy on,
  primary-key indexes predeclared, histograms + runtime feedback, no
  verification against the references;
* ``fast``   — quickest end-to-end runs: index candidate enumeration and
  runtime feedback (plan re-optimization) off;
* ``verify`` — every differential checked against the interpreted oracle,
  every refreshed view compared with recomputation, and every physical plan
  statically verified on every planning call — slow, but any divergence
  raises immediately.

Execution itself has no knob: full computations always run through the
physical executor and differentials through the vectorized engine; the
interpreter and the interpreted ``differentiate`` are the references the
``verify_*`` fields compare against, never a runtime path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from repro.api.errors import WarehouseError, unknown_name


@dataclass(frozen=True)
class WarehouseConfig:
    """Every knob of the select–maintain–refresh pipeline in one place."""

    #: Buffer pool available to the cost model (pages of ``block_size`` bytes).
    buffer_pages: int = 8000
    block_size: int = 4096

    #: Run the greedy selection of extra materializations in ``optimize()``
    #: (``False`` gives the paper's NoGreedy baseline).
    greedy: bool = True
    #: Predeclare primary-key indexes when loading a workload catalog
    #: (the paper's default; Figure 5(b) turns it off).
    with_pk_indexes: bool = True
    #: Let Greedy consider building indexes.
    include_index_candidates: bool = True
    #: Use the monotonicity assumption to prune benefit recomputation.
    use_monotonicity: bool = True

    #: Estimate selectivities from equi-depth histograms when available.
    histograms: bool = True
    #: Feed observed operator cardinalities back into the estimator and
    #: re-optimize cached plans that drifted.
    feedback: bool = True

    #: Check every vectorized differential against the interpreted reference
    #: (:func:`repro.engine.differential.differentiate`).
    verify_differentials: bool = False
    #: After ``apply()``, compare every view against full recomputation and
    #: fail (rolling the batch back) on any mismatch.
    verify_refresh: bool = False

    #: Run the static expression analyzer on every ``define_view``/``query``
    #: definition, rejecting ill-typed expressions with diagnostics instead
    #: of letting them fail mid-execution.
    analysis: bool = True
    #: When the plan verifier runs over compiled physical plans:
    #: ``"cache-insert"`` checks each plan once, when it first enters the
    #: plan cache (the default — off the replay hot path); ``"always"``
    #: re-checks on every planning call (the ``verify`` profile);
    #: ``"off"`` disables plan verification.
    verify_plans: str = "cache-insert"

    #: Default update batch for ``optimize()``/``apply()`` when the caller
    #: does not pass one: the paper's uniform model at this fraction ...
    update_percentage: float = 0.05
    #: ... with this many inserts per delete (2:1 models a growing warehouse).
    insert_to_delete_ratio: float = 2.0
    #: Seed for generated update batches (kept fixed so runs reproduce).
    seed: int = 2024

    #: Cap on the number of greedy selections (``None`` = run to convergence).
    max_selections: Optional[int] = None

    #: Execution is serial; ``1`` is the only accepted value.  The field is
    #: kept so callers that pin ``workers=1`` keep working — the shard-
    #: parallel layer was measured slower than serial and removed
    #: (ARCHITECTURE.md, *Parallel execution: measured and removed*).
    workers: int = 1

    #: Default refresh timing for ``Warehouse.stream()`` sessions:
    #: ``"coalesce"`` defers and coalesces update rounds until a staleness
    #: bound triggers a flush (it needs ``stream_max_rows`` or
    #: ``stream_max_batches``); ``"eager"`` refreshes on every ingest (the
    #: paper's implicit behavior).
    stream_policy: str = "coalesce"
    #: Staleness bound: flush once this many pending (coalesced) delta rows
    #: have accumulated (``None`` = unbounded).
    stream_max_rows: Optional[int] = None
    #: Staleness bound: flush once this many update rounds were deferred
    #: (``None`` = unbounded; a coalescing policy needs this bound or
    #: ``stream_max_rows``).
    stream_max_batches: Optional[int] = 32

    #: Admission policy for ``Warehouse.serve()`` reads whose view violates
    #: its freshness SLO: ``"serve-stale"`` serves the pinned snapshot and
    #: flags the result degraded; ``"block"`` waits (up to
    #: ``serving_block_timeout_seconds``) for a fresh-enough snapshot, then
    #: degrades; ``"reject"`` sheds the read with ``StaleReadError``.
    serving_read_policy: str = "serve-stale"
    #: Bounded write queue between ``ingest()`` callers and the refresh
    #: daemon; a full queue sheds the ingest with ``ServingError``.
    serving_queue_capacity: int = 1024
    #: How long a ``block`` read waits for freshness before degrading.
    serving_block_timeout_seconds: float = 5.0
    #: Idle wake-up period of the refresh daemon (enforces time-based SLOs
    #: when no ingests arrive).
    serving_tick_seconds: float = 0.05

    #: Name of the profile this config was derived from (informational).
    profile_name: str = "paper"

    def __post_init__(self) -> None:
        if self.buffer_pages <= 0:
            raise WarehouseError(f"buffer_pages must be positive, got {self.buffer_pages}")
        if self.block_size <= 0:
            raise WarehouseError(f"block_size must be positive, got {self.block_size}")
        if self.update_percentage < 0:
            raise WarehouseError(
                f"update_percentage must be non-negative, got {self.update_percentage}"
            )
        if self.insert_to_delete_ratio <= 0:
            raise WarehouseError(
                f"insert_to_delete_ratio must be positive, got {self.insert_to_delete_ratio}"
            )
        if self.workers != 1:
            raise WarehouseError(
                f"workers must be 1, got {self.workers}: the shard-parallel "
                f"layer was removed (see ARCHITECTURE.md, 'Parallel execution: "
                f"measured and removed')"
            )
        if self.max_selections is not None and self.max_selections < 0:
            raise WarehouseError(
                f"max_selections must be non-negative or None, got {self.max_selections}"
            )
        if self.stream_policy not in ("eager", "coalesce"):
            raise unknown_name("stream policy", self.stream_policy, ("eager", "coalesce"))
        if self.verify_plans not in ("always", "cache-insert", "off"):
            raise unknown_name(
                "plan verification mode",
                self.verify_plans,
                ("always", "cache-insert", "off"),
            )
        if self.stream_max_rows is not None and self.stream_max_rows < 1:
            raise WarehouseError(
                f"stream_max_rows must be positive or None, got {self.stream_max_rows}"
            )
        if self.stream_max_batches is not None and self.stream_max_batches < 1:
            raise WarehouseError(
                f"stream_max_batches must be positive or None, got {self.stream_max_batches}"
            )
        if self.serving_read_policy not in ("serve-stale", "block", "reject"):
            raise unknown_name(
                "serving read policy",
                self.serving_read_policy,
                ("serve-stale", "block", "reject"),
            )
        if self.serving_queue_capacity < 1:
            raise WarehouseError(
                f"serving_queue_capacity must be positive, got "
                f"{self.serving_queue_capacity}"
            )
        if self.serving_block_timeout_seconds <= 0:
            raise WarehouseError(
                f"serving_block_timeout_seconds must be positive, got "
                f"{self.serving_block_timeout_seconds}"
            )
        if self.serving_tick_seconds <= 0:
            raise WarehouseError(
                f"serving_tick_seconds must be positive, got "
                f"{self.serving_tick_seconds}"
            )

    def make_stream_policy(self) -> "StreamPolicy":
        """The :class:`~repro.stream.StreamPolicy` these knobs describe."""
        from repro.stream import StreamPolicy

        if self.stream_policy == "eager":
            return StreamPolicy.always()
        return StreamPolicy.coalescing(
            max_rows=self.stream_max_rows,
            max_batches=self.stream_max_batches,
        )

    # ------------------------------------------------------------------ profiles

    @classmethod
    def profile(cls, name: str, **overrides) -> "WarehouseConfig":
        """A named profile, optionally with field overrides on top."""
        if name not in _PROFILES:
            raise unknown_name("profile", name, _PROFILES)
        config = _PROFILES[name]
        if overrides:
            bad = set(overrides) - {f.name for f in fields(cls)}
            if bad:
                raise unknown_name(
                    "config field", sorted(bad)[0], [f.name for f in fields(cls)]
                )
            config = replace(config, **overrides)
        return config

    @classmethod
    def profiles(cls) -> Dict[str, "WarehouseConfig"]:
        """All named profiles."""
        return dict(_PROFILES)

    def describe(self) -> str:
        """One-line human-readable summary of the non-default knobs."""
        parts = [f"profile={self.profile_name}"]
        parts.append("greedy" if self.greedy else "no-greedy")
        if not self.with_pk_indexes:
            parts.append("no-pk-indexes")
        if not self.histograms:
            parts.append("no-histograms")
        if not self.feedback:
            parts.append("no-feedback")
        if self.verify_differentials:
            parts.append("verify-differentials")
        if self.verify_refresh:
            parts.append("verify-refresh")
        if not self.analysis:
            parts.append("no-analysis")
        if self.verify_plans != "cache-insert":
            parts.append(f"verify-plans={self.verify_plans}")
        return ", ".join(parts)


_PROFILES: Dict[str, WarehouseConfig] = {
    "paper": WarehouseConfig(profile_name="paper"),
    "fast": WarehouseConfig(
        profile_name="fast",
        include_index_candidates=False,
        feedback=False,
    ),
    "verify": WarehouseConfig(
        profile_name="verify",
        verify_differentials=True,
        verify_refresh=True,
        verify_plans="always",
    ),
}
