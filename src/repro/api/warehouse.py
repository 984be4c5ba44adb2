"""The :class:`Warehouse` session façade.

The paper's system is one closed loop — define views, let the optimizer pick
extra materializations, apply update batches, refresh incrementally — and
this class owns that whole loop behind a single object:

    wh = Warehouse(WarehouseConfig.profile("paper")).load(tpcd, scale=0.1)
    wh.define_view("revenue", Q.table("lineitem").join("orders")
                               .join("customer").join("nation")
                               .group_by("n_name").sum("l_extendedprice"))
    result = wh.optimize()              # Greedy / NoGreedy per the config
    wh.load_data(scale=0.001)           # executable data for actual refresh
    report = wh.apply(0.05)             # one transactional update+refresh
    print(wh.explain("revenue"))        # strategy, plan tree, est vs actual

Internally the warehouse wires the existing components — ``Catalog``,
``CardinalityEstimator``, ``ViewMaintenanceOptimizer``, ``Database``,
``PhysicalExecutor``, ``ViewRefresher`` — exactly the way the examples and
benchmarks used to wire them by hand, with one estimator per catalog shared
across every consumer so cardinalities (and the runtime feedback loop) are
consistent everywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.expressions import Expression, base_relations
from repro.api.builder import Q, as_expression
from repro.api.config import WarehouseConfig
from repro.api.errors import WarehouseError, unknown_name
from repro.catalog.catalog import Catalog
from repro.catalog.estimator import CardinalityEstimator, qerror
from repro.engine.database import Database
from repro.engine.differential import delta_join_plans
from repro.engine.physical import PhysicalExecutor
from repro.maintenance.maintainer import RefreshReport, ViewRefresher
from repro.maintenance.optimizer import OptimizationResult, ViewMaintenanceOptimizer
from repro.maintenance.update_spec import RelationUpdate, UpdateSpec
from repro.mqo.greedy import MqoResult, MultiQueryOptimizer
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.volcano import VolcanoSearch
from repro.storage.buffer import BufferPool
from repro.storage.delta import DeltaStore, merge_delta_sizes
from repro.workloads import datagen, updategen

if TYPE_CHECKING:
    from repro.analysis import ColumnProvenance


@dataclass
class WarehouseRefreshReport(RefreshReport):
    """A :class:`RefreshReport` plus what the warehouse knows about the batch."""

    #: Base relations the applied batch touched, in propagation order.
    updated_relations: List[str] = field(default_factory=list)
    #: Per-view result of verification against recomputation (only populated
    #: when the config asks for ``verify_refresh``).
    verification: Dict[str, bool] = field(default_factory=dict)
    #: Wall-clock seconds the update+refresh step took.
    elapsed_seconds: float = 0.0
    #: Update rounds refreshed in this step (stream flushes may carry many).
    rounds: int = 1
    #: Base-table tuples applied across all rounds (insert + delete bags).
    base_rows_applied: int = 0

    @property
    def verified(self) -> bool:
        """Whether verification ran *and* every view matched recomputation.

        ``False`` when no verification happened (profiles without
        ``verify_refresh``) — a report is never "verified" vacuously.
        """
        return bool(self.verification) and all(self.verification.values())


#: What ``apply()`` accepts as an update batch.
UpdateBatch = Union[DeltaStore, UpdateSpec, float]


class Warehouse:
    """One session over the select–maintain–refresh pipeline."""

    def __init__(self, config: Optional[WarehouseConfig] = None) -> None:
        self.config = config or WarehouseConfig()
        self._catalog: Optional[Catalog] = None
        self._estimator: Optional[CardinalityEstimator] = None
        self._optimizer: Optional[ViewMaintenanceOptimizer] = None
        self._views: Dict[str, Expression] = {}
        self._database: Optional[Database] = None
        self._runtime: Optional[PhysicalExecutor] = None
        self._result: Optional[OptimizationResult] = None
        #: High-water mark of TPC-D keys ever issued per relation, shared by
        #: ``apply()`` and every stream session: deletes shrink the tables,
        #: so generated batches must not restart key sequences at
        #: ``len(table)`` and re-issue keys of rows that still exist.
        self._issued_keys: Dict[str, int] = {}

    # -------------------------------------------------------------------- load

    def load(self, workload=None, scale: float = 0.1, *, catalog: Optional[Catalog] = None) -> "Warehouse":
        """Attach the statistics catalog the optimizer plans against.

        ``workload`` is a workload module exposing a catalog factory — in
        practice :mod:`repro.workloads.tpcd` (or the string ``"tpcd"``) —
        instantiated at scale factor ``scale``; alternatively pass a
        ready-built :class:`Catalog` via ``catalog=``.
        """
        if catalog is not None:
            self._catalog = catalog
        else:
            if workload is None or workload == "tpcd":
                from repro.workloads import tpcd as workload
            factory = getattr(workload, "tpcd_catalog", None)
            if factory is None:
                raise WarehouseError(
                    f"cannot load {workload!r}: pass a workload module with a "
                    f"tpcd_catalog(scale_factor, with_pk_indexes) factory or "
                    f"a Catalog via load(catalog=...)"
                )
            self._catalog = factory(
                scale_factor=scale, with_pk_indexes=self.config.with_pk_indexes
            )
        self._estimator = CardinalityEstimator(
            self._catalog,
            use_histograms=self.config.histograms,
            use_feedback=self.config.feedback,
        )
        self._optimizer = ViewMaintenanceOptimizer(
            self._catalog,
            cost_model=self._cost_model(),
            include_differential_candidates=self.config.include_differential_candidates,
            include_index_candidates=self.config.include_index_candidates,
            use_monotonicity=self.config.use_monotonicity,
            estimator=self._estimator,
        )
        self._result = None
        return self

    def load_data(
        self,
        scale: float = 0.001,
        seed: int = 7,
        tables: Optional[Sequence[str]] = None,
        *,
        database: Optional[Database] = None,
    ) -> "Warehouse":
        """Populate (or attach) the executable database ``apply()`` runs on.

        The paper's pattern — plan against full-scale statistics, execute at
        a small scale factor — is the default: ``load()`` sets the planning
        catalog, this generates deterministic TPC-D data at ``scale``.
        """
        if database is not None:
            self._database = database
        else:
            self._database = datagen.small_database(
                scale_factor=scale, seed=seed, tables=tables
            )
        self._attach_runtime()
        if self._catalog is None:
            # No separate planning catalog: plan directly over the data.
            self.load(catalog=self._database.catalog)
        return self

    def _attach_runtime(self) -> None:
        runtime_estimator = CardinalityEstimator(
            self._database.catalog,
            use_histograms=self.config.histograms,
            use_feedback=self.config.feedback,
        )
        self._runtime = PhysicalExecutor(
            self._database,
            estimator=runtime_estimator,
            feedback=self.config.feedback,
            verify_plans=self.config.verify_plans,
        )

    def _cost_model(self) -> CostModel:
        return CostModel(
            CostParameters(), BufferPool(self.config.buffer_pages, self.config.block_size)
        )

    # ------------------------------------------------------------------- views

    def define_view(self, name: str, query: Union[Q, Expression]) -> "Warehouse":
        """Register one materialized view definition (a :class:`Q` chain or a
        ready logical expression).

        With ``config.analysis`` (the default) the definition runs through
        the static expression analyzer first: unknown columns, ill-typed
        comparisons and joins, non-numeric aggregates and the like are
        rejected here — with diagnostic codes and fix hints — instead of
        failing as a ``KeyError`` deep inside a later refresh.
        """
        expression = as_expression(query)
        self._check_relations(expression, context=f"view {name!r}")
        self._analyze(expression, context=f"view {name!r}")
        self._views[str(name)] = expression
        self._result = None
        return self

    def define_views(self, views: Mapping[str, Union[Q, Expression]]) -> "Warehouse":
        """Register a whole set of view definitions at once."""
        for name, query in views.items():
            self.define_view(name, query)
        return self

    @property
    def views(self) -> Dict[str, Expression]:
        """The registered view definitions (name → logical expression)."""
        return dict(self._views)

    def view_definition(self, name: str) -> Expression:
        """The definition of one registered view."""
        if name not in self._views:
            raise unknown_name("view", name, self._views)
        return self._views[name]

    def _check_relations(self, expression: Expression, context: str) -> None:
        known = self._known_relations()
        if known is None:
            return
        for relation in sorted(base_relations(expression)):
            if relation not in known:
                raise unknown_name("relation", relation, known, hint=f"(in {context})")

    def _known_relations(self) -> Optional[List[str]]:
        if self._catalog is not None:
            return [table.name for table in self._catalog.tables()]
        if self._database is not None:
            return self._database.table_names()
        return None

    def _analysis_catalog(self) -> Optional[Catalog]:
        """The catalog static analysis resolves schemas against, if any."""
        if self._catalog is not None:
            return self._catalog
        if self._database is not None:
            return self._database.catalog
        return None

    def _analyze(self, expression: Expression, context: str) -> None:
        """Reject statically broken expressions with their diagnostics."""
        catalog = self._analysis_catalog()
        if not self.config.analysis or catalog is None:
            return
        from repro.analysis import analyze, render_diagnostics

        result = analyze(expression, catalog)
        if not result.ok:
            raise WarehouseError(
                f"static analysis rejected {context}:\n"
                + render_diagnostics(result.errors)
            )

    def provenance(self, view: Union[str, Q, Expression]) -> Dict[str, "ColumnProvenance"]:
        """Column provenance for a registered view (or an ad-hoc query).

        Maps each output column to a
        :class:`~repro.analysis.ColumnProvenance`: the base columns it
        derives from, the operators it passed through, and whether it is
        stored as-is (a column available directly from some base relation)
        or computed — the distinction Litwin-style partial materialization
        needs to pick a stored subset.
        """
        from repro.analysis import provenance as _provenance

        if isinstance(view, str):
            if view not in self._views:
                raise unknown_name("view", view, self._views)
            expression = self._views[view]
        else:
            expression = as_expression(view)
        catalog = self._analysis_catalog()
        if catalog is None:
            raise WarehouseError(
                "provenance needs a catalog — call load() or load_data() first"
            )
        return _provenance(expression, catalog)

    # ---------------------------------------------------------------- optimize

    def update_spec(self, update_percentage: Optional[float] = None) -> UpdateSpec:
        """The uniform update spec implied by the config (or an override)."""
        fraction = (
            self.config.update_percentage
            if update_percentage is None
            else update_percentage
        )
        return UpdateSpec.uniform(
            fraction, insert_to_delete_ratio=self.config.insert_to_delete_ratio
        )

    def optimize(
        self,
        spec: Optional[UpdateSpec] = None,
        *,
        update_percentage: Optional[float] = None,
        greedy: Optional[bool] = None,
        max_selections: Optional[int] = None,
    ) -> OptimizationResult:
        """Pick maintenance plans (and, under Greedy, extra materializations).

        Runs the paper's Greedy algorithm — or the NoGreedy baseline when the
        config (or the ``greedy=`` override) says so — over every registered
        view for the given update batch specification.
        """
        optimizer = self._require_optimizer()
        if not self._views:
            raise WarehouseError("no views defined — call define_view() first")
        if spec is None:
            spec = self.update_spec(update_percentage)
        run_greedy = self.config.greedy if greedy is None else greedy
        if max_selections is None:
            max_selections = self.config.max_selections
        if run_greedy:
            result = optimizer.optimize(self._views, spec, max_selections=max_selections)
        else:
            result = optimizer.no_greedy(self._views, spec)
        self._result = result
        return result

    def compare(
        self, spec: Optional[UpdateSpec] = None, *, update_percentage: Optional[float] = None
    ) -> Dict[str, OptimizationResult]:
        """Both algorithms on the same workload (one figure point)."""
        return {
            "no_greedy": self.optimize(spec, update_percentage=update_percentage, greedy=False),
            "greedy": self.optimize(spec, update_percentage=update_percentage, greedy=True),
        }

    def optimize_queries(self, queries: Mapping[str, Union[Q, Expression]]) -> MqoResult:
        """Multi-query optimization of an ad-hoc query batch (RSSB00): choose
        shared sub-expressions to materialize temporarily."""
        catalog = self._require_catalog()
        batch = {name: as_expression(query) for name, query in queries.items()}
        for name, expression in batch.items():
            self._check_relations(expression, context=f"query {name!r}")
            self._analyze(expression, context=f"query {name!r}")
        mqo = MultiQueryOptimizer(
            catalog,
            cost_model=self._cost_model(),
            use_monotonicity=self.config.use_monotonicity,
            estimator=self._estimator,
        )
        return mqo.optimize(batch)

    @property
    def last_optimization(self) -> Optional[OptimizationResult]:
        """The most recent ``optimize()`` outcome, if any."""
        return self._result

    # ------------------------------------------------------------------- apply

    def apply(
        self,
        batch: Optional[UpdateBatch] = None,
        *,
        seed: Optional[int] = None,
    ) -> WarehouseRefreshReport:
        """One transactional update+refresh step.

        ``batch`` may be a ready :class:`DeltaStore`, an :class:`UpdateSpec`,
        a plain update fraction (``0.05`` = the paper's 5% batch), or omitted
        to use the config's default percentage.  Concrete deltas are
        generated deterministically when a spec/fraction is given.  The base
        updates are applied and every view refreshed with the optimizer's
        decisions (recompute-vs-incremental, temporary shared results); if
        anything fails — including ``verify_refresh`` finding a mismatch —
        the database is rolled back to its pre-batch state before the error
        propagates.
        """
        deltas, spec = self._resolve_batch(batch, seed)
        return self._refresh_rounds([deltas], transactional=True, spec=spec)

    def _refresh_rounds(
        self,
        rounds: Sequence[DeltaStore],
        *,
        transactional: bool,
        spec: Optional[UpdateSpec] = None,
    ) -> WarehouseRefreshReport:
        """Refresh a sequence of concrete update rounds in one session.

        This is the shared core of :meth:`apply` (always one round,
        transactional) and the ingest pipeline's flush behind ``stream()``
        and ``serve()`` (possibly many rounds through
        :meth:`ViewRefresher.refresh_many`, non-transactional — ingested
        deltas are accepted state, so a failure surfaces without rolling
        back).
        """
        database = self._require_database()
        if not self._views:
            raise WarehouseError("no views defined — call define_view() first")
        started = time.perf_counter()
        relations: List[str] = []
        for deltas in rounds:
            for r in deltas.relation_order:
                if deltas.has_updates(r) and r not in relations:
                    relations.append(r)
        for relation in relations:
            if not database.has_relation(relation):
                raise unknown_name(
                    "relation", relation, database.table_names(), hint="(in update batch)"
                )
        self._verify_rounds(rounds)
        if self._result is None:
            self.optimize(spec if spec is not None else self._spec_of(rounds))
        recompute, temporaries = self._maintenance_choices()

        snapshot = database.copy() if transactional else None
        refresher = ViewRefresher(
            database,
            self._views,
            temporary_subexpressions=temporaries,
            recompute_views=recompute,
            verify_differentials=self.config.verify_differentials,
            physical_executor=self._runtime,
        )
        try:
            refresher.ensure_views()
            report = refresher.refresh_many(rounds)
            verification: Dict[str, bool] = {}
            if self.config.verify_refresh:
                verification = refresher.verify_against_recomputation()
                if not all(verification.values()):
                    failed = sorted(n for n, ok in verification.items() if not ok)
                    raise WarehouseError(
                        f"refresh verification failed for {failed}"
                        + ("; the batch was rolled back" if transactional else "")
                    )
        except Exception:
            if snapshot is not None:
                # Transactional semantics: restore the pre-batch state
                # (tables, views, indexes, statistics) before letting the
                # error surface.  When the planning catalog *is* the
                # database's catalog (the load_data-without-load path),
                # rebind planning to the restored copy too — otherwise
                # optimize()/explain() would keep pricing against statistics
                # that include the rolled-back batch.
                planning_was_runtime = self._catalog is database.catalog
                self._database = snapshot
                self._attach_runtime()
                if planning_was_runtime:
                    self.load(catalog=snapshot.catalog)
            raise
        return WarehouseRefreshReport(
            steps=report.steps,
            recomputed_views=report.recomputed_views,
            merges=report.merges,
            updated_relations=relations,
            verification=verification,
            elapsed_seconds=time.perf_counter() - started,
            rounds=len(rounds),
            base_rows_applied=sum(deltas.total_rows() for deltas in rounds),
        )

    def _verify_rounds(self, rounds: Sequence[DeltaStore]) -> None:
        """Statically verify every update round before anything is applied.

        Catches deltas over relations outside the database (``REPRO-P004``)
        and deltas logged against a stale base schema (``REPRO-P005``) —
        both would otherwise corrupt base tables or views mid-refresh,
        after some rounds already applied.
        """
        if self.config.verify_plans == "off":
            return
        from repro.analysis import render_diagnostics, verify_delta_round
        from repro.analysis.diagnostics import errors

        database = self._require_database()
        for deltas in rounds:
            bad = errors(verify_delta_round(deltas, database, views=self._views))
            if bad:
                raise WarehouseError(
                    "update batch failed static verification:\n"
                    + render_diagnostics(bad)
                )

    @property
    def view_relations(self) -> List[str]:
        """Loaded base relations the registered views depend on (sorted)."""
        database = self._require_database()
        return sorted(
            {r for expr in self._views.values() for r in base_relations(expr)}
            & set(database.table_names())
        )

    def _key_offsets(self, relations: Sequence[str]) -> Dict[str, int]:
        """How far each relation's key sequence must skip past ``len(table)``."""
        database = self._require_database()
        return {
            name: max(0, self._issued_keys.get(name, 0) - len(database.table(name)))
            for name in relations
        }

    def _advance_issued_keys(self, deltas: DeltaStore) -> None:
        """Raise the issued-keys high-water mark past a batch's inserts.

        Applied to caller-supplied stores too: their inserts consume key
        space (the generators continue sequences at the table length), so a
        later generated batch must start above them.
        """
        database = self._require_database()
        for delta in deltas:
            if len(delta.inserts) and database.has_relation(delta.relation):
                base = max(
                    self._issued_keys.get(delta.relation, 0),
                    len(database.table(delta.relation)),
                )
                self._issued_keys[delta.relation] = base + len(delta.inserts)

    def _batch_spec(self, batch: Optional[UpdateBatch], entry_point: str) -> UpdateSpec:
        """The :class:`UpdateSpec` an abstract batch argument describes.

        Shared dispatch for ``apply()`` and ``stream().ingest()`` — both
        document the same accepted shapes; ``entry_point`` names the caller
        in the error message.
        """
        if batch is None:
            return self.update_spec()
        if isinstance(batch, UpdateSpec):
            return batch
        if isinstance(batch, (int, float)) and not isinstance(batch, bool):
            return self.update_spec(float(batch))
        raise WarehouseError(
            f"{entry_point} takes a DeltaStore, an UpdateSpec or an update "
            f"fraction, got {type(batch).__name__}"
        )

    def _resolve_batch(
        self, batch: Optional[UpdateBatch], seed: Optional[int]
    ) -> Tuple[DeltaStore, UpdateSpec]:
        """Concrete deltas plus the spec describing them."""
        database = self._require_database()
        relations = self.view_relations
        if isinstance(batch, DeltaStore):
            self._advance_issued_keys(batch)
            return batch, self._spec_of([batch])
        spec = self._batch_spec(batch, "apply()")
        deltas = updategen.generate_deltas(
            database,
            spec.restricted_to(relations),
            relations,
            seed=self.config.seed if seed is None else seed,
            key_offsets=self._key_offsets(relations),
        )
        self._advance_issued_keys(deltas)
        return deltas, spec

    def _spec_of(self, rounds: Sequence[DeltaStore]) -> UpdateSpec:
        """The update spec a sequence of concrete delta rounds realizes.

        Used when a lazy ``optimize()`` has to run for caller-supplied
        :class:`DeltaStore` rounds: maintenance decisions are priced for the
        batch's real per-relation insert/delete fractions (summed across the
        rounds), not the config's default percentage.
        """
        database = self._require_database()
        sizes = merge_delta_sizes(*[deltas.delta_sizes() for deltas in rounds])
        updates: Dict[str, RelationUpdate] = {}
        for relation, (inserts, deletes) in sizes.items():
            if not database.has_relation(relation):
                continue
            current = max(1, len(database.table(relation)))
            updates[relation] = RelationUpdate(
                insert_fraction=inserts / current,
                delete_fraction=deletes / current,
            )
        return UpdateSpec(updates, relation_order=list(sizes))

    def _maintenance_choices(self) -> Tuple[List[str], Dict[str, Expression]]:
        """Recompute decisions and temporary shared results from the last run."""
        result = self._result
        if result is None:
            return [], {}
        recompute = [
            decision.view
            for decision in result.plan.decisions
            if decision.strategy == "recompute"
        ]
        temporaries: Dict[str, Expression] = {}
        if result.selection is not None:
            loaded = set(self._require_database().table_names())
            view_forms = {expr.canonical() for expr in self._views.values()}
            for chosen in result.selection.selections:
                candidate = chosen.candidate
                if chosen.disposition != "temporary" or candidate.kind != "result":
                    continue
                if candidate.key is None or not candidate.key.is_full:
                    continue
                expression = result.dag.node(candidate.node_id).expression
                if expression is None or expression.canonical() in view_forms:
                    continue
                if not base_relations(expression) <= loaded:
                    continue
                temporaries[f"__wh_tmp_e{candidate.node_id}"] = expression
        return recompute, temporaries

    # ------------------------------------------------------------------ stream

    def stream(self, policy: Optional[Union[str, "StreamPolicy"]] = None) -> "StreamSession":
        """Open a streaming ingest session (see :mod:`repro.stream`).

        ``policy`` may be a ready :class:`~repro.stream.StreamPolicy`, a
        policy name (``"eager"`` / ``"coalesce"``), or omitted to use the
        config's stream knobs.  The session buffers ingested update rounds,
        coalesces them (insert/delete annihilation), and refreshes once a
        staleness bound (``max_batches`` / ``max_rows``) is reached, or on
        :meth:`~repro.api.stream.StreamSession.flush` / ``close()``::

            with wh.stream() as session:
                session.ingest(0.02)
                session.ingest(0.02)
            print(session.explain_schedule())
        """
        from repro.api.stream import StreamSession

        return self._open_session(StreamSession, "stream()", policy)

    # ----------------------------------------------------------------- serving

    def serve(
        self,
        *,
        read_policy: Optional[str] = None,
        slo=None,
        slos=None,
        stream_policy: Optional[Union[str, "StreamPolicy"]] = None,
    ) -> "ServingSession":
        """Open a concurrent serving session (see :mod:`repro.serving`).

        Returns a thread-safe :class:`~repro.api.serving.ServingSession`:
        readers query snapshot-isolated view contents while a background
        daemon drains ingested update rounds through the stream scheduler
        and republishes snapshots at every refresh commit::

            with wh.serve(read_policy="serve-stale") as session:
                session.ingest(0.02)               # queued, non-blocking
                result = session.query("revenue")  # never torn state
            print(session.explain_serving())

        ``read_policy`` (``"serve-stale"`` / ``"block"`` / ``"reject"``),
        the default ``slo`` (a :class:`~repro.serving.FreshnessSLO`) and
        per-view ``slos`` overrides default to the config's serving knobs;
        ``stream_policy`` takes the same shapes as :meth:`stream`.  While
        the session is open it owns this warehouse's engine — do not
        interleave ``apply()`` / ``stream()`` on the same warehouse.
        """
        from repro.api.serving import ServingSession

        return self._open_session(
            ServingSession,
            "serve(stream_policy=...)",
            stream_policy,
            read_policy=read_policy,
            slo=slo,
            slos=slos,
        )

    def _open_session(self, session_class, entry_point: str, policy, **options):
        """Open a stream or serving session over one resolved stream policy.

        ``policy`` may be a ready :class:`~repro.stream.StreamPolicy`, a
        policy name, or ``None`` for the config's stream knobs.
        """
        from repro.stream import StreamPolicy

        self._require_database()
        if not self._views:
            raise WarehouseError("no views defined — call define_view() first")
        if policy is None:
            policy = self.config.make_stream_policy()
        elif isinstance(policy, str):
            # Route through the config so the name-to-policy mapping (and
            # its validation) lives in exactly one place.
            policy = replace(self.config, stream_policy=policy).make_stream_policy()
        elif not isinstance(policy, StreamPolicy):
            raise WarehouseError(
                f"{entry_point} takes a StreamPolicy or a policy name, got "
                f"{type(policy).__name__}"
            )
        try:
            return session_class(self, policy, **options)
        except ValueError as exc:
            # e.g. a caller-built policy that could never trigger a refresh —
            # surface it as the façade's error family.
            raise WarehouseError(str(exc)) from exc

    # ----------------------------------------------------------------- explain

    def explain(self, view: str) -> str:
        """Human-readable maintenance story for one view.

        Renders the chosen strategy (recompute vs incremental, with both
        costs), the extra materializations Greedy picked, the chosen plan
        tree under that configuration, the join order the differential
        engine runs per updated base relation (``δ-plans``), and — once
        ``apply()`` has executed plans against real data — estimated-vs-actual
        cardinalities from the runtime feedback loop.
        """
        if view not in self._views:
            raise unknown_name("view", view, self._views)
        if self._result is None:
            self.optimize()
        result = self._result
        lines: List[str] = [f"view: {view}"]
        lines.append(f"definition: {self._views[view].canonical()}")
        decision = result.plan.decision_for(view)
        lines.append(
            f"strategy: {decision.strategy} (recompute {decision.recompute_cost:.2f}, "
            f"incremental {decision.incremental_cost:.2f}, estimated seconds)"
        )
        if result.selection is not None:
            for label, values in (
                ("permanent results", result.permanent_results),
                ("temporary results", result.temporary_results),
                ("indexes", result.indexes),
            ):
                if values:
                    lines.append(f"{label}: {', '.join(values)}")
        lines.append("plan:")
        plan = self._chosen_plan(view)
        lines.extend("  " + line for line in plan.pretty().splitlines())
        lines.append("δ-plans:")
        lines.extend("  " + line for line in self._delta_plan_lines(view))
        lines.append("cardinalities (estimated -> actual):")
        lines.extend("  " + line for line in self._cardinality_lines(plan))
        lines.append("verification:")
        lines.extend("  " + line for line in self._verification_lines(plan))
        return "\n".join(lines)

    def _delta_plan_lines(self, view: str) -> List[str]:
        """Per base relation, the join order the engine differentiates the
        view's join blocks in when that relation changes."""
        expression = self._views[view]
        catalog = self._require_catalog()
        lines = []
        for relation in sorted(base_relations(expression)):
            plans = delta_join_plans(expression, relation, catalog)
            described = "; ".join(plan.describe() for plan in plans) or "no join"
            lines.append(f"{relation}: {described}")
        return lines

    def _verification_lines(self, plan) -> List[str]:
        """Static plan-verification status rendered for ``explain``."""
        from repro.analysis import render_verification, verify_plan

        if self.config.verify_plans == "off":
            return ["skipped (verify_plans=off)"]
        # Catalog-only verification: explain's plan is a planning-time
        # hypothetical (Greedy's extra materializations may not exist yet),
        # so materialization checks would mis-fire; schema and type checks
        # still run in full.
        diagnostics = verify_plan(plan, catalog=self._analysis_catalog())
        return render_verification(diagnostics)

    def _chosen_plan(self, view: str):
        """The view's best recomputation plan under the final configuration."""
        result = self._result
        dag = result.dag
        materialized = {
            key.node_id for key in result.engine.materialized if key.is_full
        }
        search = VolcanoSearch(dag, self._require_catalog(), self._cost_model())
        # The view's own full result must not satisfy itself through reuse.
        root_id = dag.roots[view].id
        outcome = search.optimize(materialized=frozenset(materialized - {root_id}))
        return outcome.extract_plan(root_id)

    def _cardinality_lines(self, plan) -> List[str]:
        lines: List[str] = []
        seen = set()

        def walk(node, depth: int) -> None:
            if node.expression is not None:
                key = node.expression.canonical()
                if key not in seen:
                    seen.add(key)
                    actual = None
                    if self._runtime is not None:
                        actual = self._runtime.estimator.observed_cardinality(key)
                    if actual is None:
                        observed = "(not yet observed)"
                    else:
                        observed = f"{actual:.0f} (q-error {qerror(node.cardinality, actual):.2f})"
                    lines.append(
                        f"{'  ' * depth}{node.description}: {node.cardinality:.0f} -> {observed}"
                    )
            for child in node.children:
                walk(child, depth + 1)

        walk(plan, 0)
        return lines

    # ------------------------------------------------------------ verification

    def verify(self) -> Dict[str, bool]:
        """Compare every materialized view against recomputation."""
        database = self._require_database()
        results: Dict[str, bool] = {}
        for name, expression in self._views.items():
            if not database.has_view(name):
                raise WarehouseError(
                    f"view {name!r} is not materialized yet — apply() a batch first"
                )
            from repro.engine.executor import evaluate

            results[name] = database.view(name).same_bag(evaluate(expression, database))
        return results

    # ------------------------------------------------------------- introspection

    @property
    def catalog(self) -> Optional[Catalog]:
        """The planning catalog (None before ``load()``)."""
        return self._catalog

    @property
    def database(self) -> Optional[Database]:
        """The executable database (None before ``load_data()``)."""
        return self._database

    @property
    def estimator(self) -> Optional[CardinalityEstimator]:
        """The planning-side estimator every optimizer cardinality comes from."""
        return self._estimator

    @property
    def optimizer(self) -> Optional[ViewMaintenanceOptimizer]:
        """The underlying maintenance optimizer (advanced use)."""
        return self._optimizer

    # ----------------------------------------------------------------- helpers

    def _require_catalog(self) -> Catalog:
        if self._catalog is None:
            raise WarehouseError("no catalog loaded — call load() first")
        return self._catalog

    def _require_optimizer(self) -> ViewMaintenanceOptimizer:
        self._require_catalog()
        return self._optimizer

    def _require_database(self) -> Database:
        if self._database is None:
            raise WarehouseError(
                "no executable data loaded — call load_data() before apply()"
            )
        return self._database
