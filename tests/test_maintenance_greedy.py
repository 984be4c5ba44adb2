"""Tests for the greedy selection algorithm and its optimizations."""

import pytest

from repro.maintenance.candidates import Candidate, enumerate_candidates
from repro.maintenance.cost_engine import MaintenanceCostEngine
from repro.maintenance.diff_dag import ResultKey
from repro.maintenance.greedy import GreedyViewSelector
from repro.maintenance.update_spec import UpdateSpec
from repro.optimizer.dag_builder import build_dag
from repro.workloads import queries, tpcd


@pytest.fixture(scope="module")
def catalog():
    return tpcd.tpcd_catalog(scale_factor=0.1)


def prepared_engine(catalog, views, percentage=0.05):
    from repro.algebra.expressions import base_relations

    dag = build_dag(views, catalog)
    relations = sorted({r for e in views.values() for r in base_relations(e)})
    spec = UpdateSpec.uniform(percentage, relations)
    engine = MaintenanceCostEngine(dag, catalog, spec)
    engine.set_materialized(ResultKey(dag.roots[name].id, 0) for name in views)
    candidates = enumerate_candidates(dag, catalog, engine.annotations, engine.materialized)
    return dag, engine, candidates


def test_greedy_never_increases_cost(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.view_set_plain())
    selection = GreedyViewSelector(engine).run(candidates)
    assert selection.final_cost <= selection.initial_cost + 1e-9
    assert selection.improvement >= 0
    assert 0 <= selection.improvement_ratio <= 1


def test_every_selection_has_positive_benefit(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.view_set_plain())
    selection = GreedyViewSelector(engine).run(candidates)
    assert selection.selections, "Greedy should find something to materialize here"
    assert all(chosen.benefit > 0 for chosen in selection.selections)


def test_selected_indexes_are_applied_to_engine(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.standalone_join_view())
    selection = GreedyViewSelector(engine).run(candidates)
    for chosen in selection.selected_indexes():
        assert tuple(chosen.candidate.columns) in engine.indexes.get(chosen.candidate.node_id, set())
    for chosen in selection.selected_results():
        assert chosen.candidate.key in engine.materialized


def test_monotonic_and_basic_loops_reach_similar_cost(catalog):
    dag1, engine1, candidates1 = prepared_engine(catalog, queries.view_set_plain())
    lazy = GreedyViewSelector(engine1, use_monotonicity=True).run(candidates1)
    dag2, engine2, candidates2 = prepared_engine(catalog, queries.view_set_plain())
    eager = GreedyViewSelector(engine2, use_monotonicity=False).run(candidates2)
    assert lazy.final_cost == pytest.approx(eager.final_cost, rel=0.05)
    # The monotonicity optimization's whole point: far fewer benefit evaluations.
    assert lazy.benefit_evaluations <= eager.benefit_evaluations


def test_max_selections_limit_respected(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.view_set_plain())
    selection = GreedyViewSelector(engine, max_selections=2).run(candidates)
    assert len(selection.selections) <= 2


def test_empty_candidate_list_is_noop(catalog):
    dag, engine, _ = prepared_engine(catalog, queries.standalone_join_view())
    selection = GreedyViewSelector(engine).run([])
    assert selection.selections == []
    assert selection.final_cost == pytest.approx(selection.initial_cost)


def test_dispositions_are_classified(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.view_set_aggregate(), percentage=0.2)
    selection = GreedyViewSelector(engine).run(candidates)
    counts = selection.count_by_disposition()
    assert sum(counts.values()) == len(selection.selections)
    for chosen in selection.selections:
        assert chosen.disposition in ("permanent", "temporary", "index")
        if chosen.candidate.kind == "index":
            assert chosen.disposition == "index"


def test_candidate_describe(catalog):
    dag, engine, candidates = prepared_engine(catalog, queries.standalone_join_view())
    for candidate in candidates[:10]:
        text = candidate.describe(dag)
        assert text
        if candidate.kind == "index":
            assert text.startswith("index(")


class _FromScratchSelector(GreedyViewSelector):
    """Reference: every benefit priced on an emptied cache, ``before`` included."""

    def _benefit(self, candidate, before):
        self.engine.reset_cache()
        return super()._benefit(candidate, self.engine.total_cost())


@pytest.mark.parametrize("percentage", [0.01, 0.10, 0.40])
@pytest.mark.parametrize(
    "views", [queries.view_set_plain, queries.view_set_aggregate], ids=["plain", "aggregate"]
)
def test_incremental_greedy_matches_from_scratch_pricing(catalog, views, percentage):
    runs = []
    for selector in (GreedyViewSelector, _FromScratchSelector):
        dag, engine, candidates = prepared_engine(catalog, views(), percentage)
        selection = selector(engine).run(candidates)
        chosen = [(s.candidate.describe(dag), s.disposition) for s in selection.selections]
        runs.append((selection.final_cost, chosen))
    assert runs[0] == runs[1]
    assert runs[0][1]
