"""Stats freshness invariants: incremental maintenance tracks measurement.

After refresh rounds, the incrementally maintained catalog statistics of
every view (updated O(|delta|) from the merged delta bags) must agree with a
from-scratch measurement of the stored view contents:

* cardinality exactly (the relation is the ground truth);
* maintained min/max bounds conservatively contain the measured ones
  (inserts widen them; deletes cannot shrink them without a re-measure);
* histogram totals within tolerance of the measured cardinality;
* distinct counts within a factor of the measured ones.

The same invariants are checked for the updated base tables.
"""

import pytest

from repro.catalog.statistics import TableStats
from repro.maintenance.maintainer import ViewRefresher
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import uniform_deltas
from repro.algebra.expressions import base_relations

#: Relative tolerance for histogram totals against the measured cardinality.
HISTOGRAM_TOLERANCE = 0.15
#: Allowed multiplicative slack for maintained distinct counts.
DISTINCT_FACTOR = 3.0


def _assert_fresh(maintained: TableStats, relation, label: str) -> None:
    measured = TableStats.from_relation(relation)
    assert maintained is not None, f"{label}: no maintained statistics recorded"
    assert maintained.cardinality == measured.cardinality, (
        f"{label}: maintained cardinality {maintained.cardinality} != "
        f"measured {measured.cardinality}"
    )
    for name in relation.schema.names:
        measured_col = measured.column(name)
        maintained_col = maintained.column(name)
        if measured_col is None or maintained_col is None:
            continue
        if measured_col.min_value is not None and maintained_col.min_value is not None:
            # Both sides of the comparison may come from reservoir samples
            # (bounds are approximate by design for large relations), so
            # containment is asserted up to a fraction of the value range.
            slack = 0.02 * max(measured_col.max_value - measured_col.min_value, 1.0)
            assert maintained_col.min_value <= measured_col.min_value + slack, (
                f"{label}.{name}: maintained min {maintained_col.min_value} above "
                f"measured {measured_col.min_value}"
            )
            assert maintained_col.max_value >= measured_col.max_value - slack, (
                f"{label}.{name}: maintained max {maintained_col.max_value} below "
                f"measured {measured_col.max_value}"
            )
        if maintained_col.histogram is not None and measured.cardinality > 0:
            expected = measured.cardinality * (1.0 - measured_col.null_fraction)
            assert maintained_col.histogram.total == pytest.approx(
                expected, rel=HISTOGRAM_TOLERANCE, abs=2.0
            ), f"{label}.{name}: histogram total drifted from the relation size"
        if measured_col.distinct >= 1.0:
            ratio = maintained_col.distinct / measured_col.distinct
            assert 1.0 / DISTINCT_FACTOR <= ratio <= DISTINCT_FACTOR, (
                f"{label}.{name}: maintained distinct {maintained_col.distinct} vs "
                f"measured {measured_col.distinct}"
            )


def test_view_and_table_stats_stay_fresh_across_refresh_rounds():
    database = small_database(scale_factor=0.002)
    views = {**queries.standalone_join_view(), **queries.standalone_agg_view()}
    views.update(queries.view_set_plain())
    involved = sorted({r for e in views.values() for r in base_relations(e)})

    refresher = ViewRefresher(database, views)
    refresher.initialize_views()

    for round_number in range(3):
        deltas = uniform_deltas(
            database, 0.08, relations=involved, seed=400 + round_number
        )
        refresher.refresh(deltas)

        for name in views:
            _assert_fresh(
                database.catalog.view_stats(name), database.view(name), f"view {name}"
            )
        for relation in involved:
            _assert_fresh(
                database.catalog.stats(relation), database.table(relation), f"table {relation}"
            )

    # The refreshed views themselves are still correct (the maintenance
    # invariant the statistics ride along with).
    assert all(refresher.verify_against_recomputation().values())
