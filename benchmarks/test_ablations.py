"""Ablations of the design choices the paper calls out.

Three switches are ablated on the Figure 4(a) workload at 5% updates:

* the **monotonicity optimization** of the greedy loop (§6.2) — should cut
  the number of benefit evaluations without changing the chosen
  configuration's quality;
* **index selection** (§4.3) — folding index choice into the greedy
  algorithm is a large part of the benefit;
* **join-order expansion** of the DAG (§4.1) — without associativity
  alternatives the optimizer can only use the plans as written, which can
  only be worse (or equal).
"""

from repro.maintenance.optimizer import ViewMaintenanceOptimizer
from repro.maintenance.update_spec import UpdateSpec
from repro.workloads import queries, tpcd

from benchmarks.helpers import write_comparison


def _run(include_indexes=True, use_monotonicity=True, expand_joins=True):
    catalog = tpcd.tpcd_catalog(scale_factor=0.1)
    optimizer = ViewMaintenanceOptimizer(
        catalog,
        include_index_candidates=include_indexes,
        use_monotonicity=use_monotonicity,
        expand_joins=expand_joins,
    )
    return optimizer.optimize(queries.view_set_plain(), UpdateSpec.uniform(0.05))


def test_ablation_monotonicity_optimization():
    """Lazy benefit re-evaluation finds the same-quality answer with less work."""
    lazy, eager = _run(use_monotonicity=True), _run(use_monotonicity=False)
    write_comparison(
        "ablation_monotonicity",
        "ablation: monotonicity optimization (fig4a workload, 5% updates)",
        {
            "lazy_total_cost": lazy.total_cost,
            "eager_total_cost": eager.total_cost,
            "lazy_benefit_evaluations": lazy.selection.benefit_evaluations,
            "eager_benefit_evaluations": eager.selection.benefit_evaluations,
        },
    )
    assert lazy.total_cost <= eager.total_cost * 1.05
    assert lazy.selection.benefit_evaluations <= eager.selection.benefit_evaluations


def test_ablation_index_selection():
    """Disabling index candidates makes the chosen configuration clearly worse."""
    with_indexes, without_indexes = _run(include_indexes=True), _run(include_indexes=False)
    write_comparison(
        "ablation_indexes",
        "ablation: index selection (fig4a workload, 5% updates)",
        {
            "with_index_candidates": with_indexes.total_cost,
            "without_index_candidates": without_indexes.total_cost,
        },
    )
    assert with_indexes.total_cost < without_indexes.total_cost


def test_ablation_join_expansion():
    """Without associativity expansion the optimizer cannot do better."""
    expanded, literal = _run(expand_joins=True), _run(expand_joins=False)
    write_comparison(
        "ablation_expansion",
        "ablation: join-order expansion (fig4a workload, 5% updates)",
        {
            "expanded_dag_cost": expanded.total_cost,
            "literal_plan_cost": literal.total_cost,
        },
    )
    assert expanded.total_cost <= literal.total_cost * 1.001
