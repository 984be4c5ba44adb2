"""A stateful property over the refresh façade: every refresh commits or
rolls back, across interleavings of ``apply()``, a stream session's
``ingest`` / ``flush`` / ``close``, and failpoints.

Hypothesis drives a tiny warehouse (SF 0.0005, two views, one of them a
δ-aggregate).  Every round is a :class:`DeltaStore` generated against a
lock-step model database and applied to the model as soon as it is made, so
the model is what the warehouse holds once nothing is pending.  A failpoint
is armed for the next driver call and fires once.  Invariants:

* ``verify()`` holds after every step;
* after a failed refresh, the tables and views equal their pre-call state
  (and a stream session stays open with its rounds pending);
* whenever nothing is pending, the tables equal the model.

``apply()`` runs only while no session is open: ``apply()`` beside pending
deletes may delete a row a pending round deletes too.
"""

import functools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from failpoints import Failpoint, Injected, assert_database_equal, update_key
from repro import Q, StreamPolicy, Warehouse, WarehouseConfig
from repro.engine.database import Database
from repro.engine.differential import DifferentialEngine
from repro.workloads.datagen import small_database
from repro.workloads.updategen import uniform_deltas

VIEWS = {
    "v_orders": Q.table("orders").join("customer").select("o_orderkey", "c_name", "o_totalprice"),
    "v_segments": Q.table("orders")
    .join("customer")
    .group_by("c_mktsegment")
    .sum("o_totalprice", "revenue"),
}
RELATIONS = ["customer", "orders"]
FAILPOINTS = (
    [(DifferentialEngine, "differentiate", nth, update_key) for nth in (1, 2, 3)]
    + [(Database, "update_view", nth, None) for nth in (1, 2)]
    + [(Database, "apply_update", nth, None) for nth in (1, 2, 4)]
)
POLICIES = (
    StreamPolicy.always(),
    StreamPolicy.coalescing(max_batches=2),
    StreamPolicy.coalescing(max_batches=4),
)


@functools.lru_cache(maxsize=None)
def _template() -> Database:
    """The base database with both views materialized."""
    wh = Warehouse(WarehouseConfig.profile("fast")).load(scale=0.05)
    wh.load_data(database=small_database(scale_factor=0.0005, seed=5, tables=RELATIONS))
    wh.define_views(VIEWS)
    wh.apply(0.0)
    return wh.database


class RefreshMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        template = _template()
        self.wh = Warehouse(WarehouseConfig.profile("fast")).load(scale=0.05)
        self.wh.load_data(database=template.copy())
        self.wh.define_views(VIEWS)
        self.model = template.copy()
        self.session = None
        self.armed = None
        self.seeds = 0
        #: Whether a driver call ran since the invariants last checked.
        self.driven = False

    def _round(self, fraction: float):
        self.seeds += 1
        deltas = uniform_deltas(self.model, fraction, RELATIONS, seed=self.seeds)
        for delta in deltas:
            self.model.apply_delta(delta)
        return deltas

    def _drive(self, call) -> bool:
        """Run one driver call under the armed failpoint; True if it failed,
        after checking it left the database as it found it."""
        self.driven = True
        before = self.wh.database.copy()
        with pytest.MonkeyPatch.context() as monkeypatch:
            failpoint = self.armed and Failpoint(monkeypatch, *self.armed)
            try:
                call()
            except Injected:
                assert failpoint and failpoint.fired
                self.armed = None
                assert_database_equal(self.wh.database, before, VIEWS)
                return True
        return False

    def _pending(self):
        return self.session.pending_batches, self.session.pending_rows

    # ------------------------------------------------------------------ rules

    @rule(failpoint=st.sampled_from(FAILPOINTS))
    @precondition(lambda self: self.armed is None)
    def arm(self, failpoint):
        self.armed = failpoint

    @rule(fraction=st.sampled_from([0.01, 0.04]))
    @precondition(lambda self: self.session is None)
    def apply(self, fraction):
        model = self.model.copy()
        deltas = self._round(fraction)
        if self._drive(lambda: self.wh.apply(deltas)):
            self.model = model  # a failed apply() drops its batch

    @rule(policy=st.sampled_from(POLICIES))
    @precondition(lambda self: self.session is None)
    def open_stream(self, policy):
        self.session = self.wh.stream(policy)

    @rule(fraction=st.sampled_from([0.01, 0.04]))
    @precondition(lambda self: self.session is not None)
    def ingest(self, fraction):
        deltas = self._round(fraction)
        batches = self.session.pending_batches
        if self._drive(lambda: self.session.ingest(deltas)):
            # The flush the ingest triggered failed: the round stays pending.
            assert not self.session.closed
            assert self.session.pending_batches == batches + 1

    @rule()
    @precondition(lambda self: self.session is not None)
    def flush(self):
        pending = self._pending()
        if self._drive(self.session.flush):
            assert not self.session.closed and self._pending() == pending
        else:
            assert self.session.pending_batches == 0

    @rule()
    @precondition(lambda self: self.session is not None)
    def close(self):
        pending = self._pending()
        if self._drive(self.session.close):
            assert not self.session.closed and self._pending() == pending
        else:
            assert self.session.closed
            self.session = None

    # ------------------------------------------------------------- invariants

    @invariant()
    def committed_state_is_consistent(self):
        if not self.driven:
            return  # nothing ran that could change the database
        self.driven = False
        assert all(self.wh.verify().values())
        if self.session is None or self.session.pending_batches == 0:
            for name in RELATIONS:
                assert self.wh.database.table(name).same_bag(self.model.table(name)), name


RefreshMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRefreshMachine = RefreshMachine.TestCase
