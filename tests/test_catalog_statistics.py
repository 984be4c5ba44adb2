"""Unit tests for statistics and selectivity estimation."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.schema import Schema
from repro.catalog.statistics import (
    ColumnStats,
    Histogram,
    TableStats,
    difference_cardinality,
    distinct_cardinality,
    estimate_group_count,
    estimate_join_cardinality,
    estimate_selectivity,
    join_selectivity,
    union_cardinality,
)
from repro.storage.relation import Relation


@pytest.fixture
def stats():
    return TableStats(
        1000.0,
        32,
        {
            "key": ColumnStats(distinct=1000, min_value=1, max_value=1000),
            "group": ColumnStats(distinct=10, min_value=0, max_value=9),
            "value": ColumnStats(distinct=100, min_value=0, max_value=100),
        },
    )


def test_size_bytes(stats):
    assert stats.size_bytes == 1000 * 32


def test_distinct_clamped_by_cardinality():
    s = TableStats(5.0, 8, {"a": ColumnStats(distinct=100)})
    assert s.distinct("a") == 5.0


def test_distinct_fallback_without_stats(stats):
    # Unknown column: falls back to a fraction of the cardinality.
    assert stats.distinct("unknown") == pytest.approx(100.0)


def test_with_cardinality_clamps_column_distincts(stats):
    reduced = stats.with_cardinality(5.0)
    assert reduced.cardinality == 5.0
    assert reduced.distinct("key") == 5.0


def test_scaled_scales_cardinality(stats):
    assert stats.scaled(0.1).cardinality == pytest.approx(100.0)


def test_equality_selectivity_uses_distinct(stats):
    assert estimate_selectivity("==", stats, "group") == pytest.approx(0.1)


def test_inequality_selectivity_complements_equality(stats):
    assert estimate_selectivity("!=", stats, "group") == pytest.approx(0.9)


def test_range_selectivity_interpolates(stats):
    assert estimate_selectivity("<", stats, "value", 50) == pytest.approx(0.5)
    assert estimate_selectivity(">", stats, "value", 75) == pytest.approx(0.25)


def test_range_selectivity_clamps_to_bounds(stats):
    assert estimate_selectivity("<", stats, "value", 1000) == 1.0


def test_unknown_operator_raises(stats):
    with pytest.raises(ValueError):
        estimate_selectivity("like", stats, "value", 1)


def test_join_selectivity_containment():
    left = TableStats(100.0, 8, {"k": ColumnStats(distinct=100)})
    right = TableStats(1000.0, 8, {"k2": ColumnStats(distinct=500)})
    assert join_selectivity(left, right, "k", "k2") == pytest.approx(1 / 500)


def test_join_cardinality_foreign_key_shape():
    dim = TableStats(100.0, 8, {"d_id": ColumnStats(distinct=100)})
    fact = TableStats(10000.0, 8, {"f_d_id": ColumnStats(distinct=100)})
    # Every fact row matches exactly one dimension row.
    assert estimate_join_cardinality(fact, dim, [("f_d_id", "d_id")]) == pytest.approx(10000.0)


def test_group_count_capped_by_cardinality(stats):
    assert estimate_group_count(stats, ["key", "group"]) == 1000.0
    assert estimate_group_count(stats, ["group"]) == 10.0


def test_group_count_no_groups(stats):
    assert estimate_group_count(stats, []) == 1.0


def test_union_and_difference_cardinality(stats):
    other = TableStats(200.0, 32)
    assert union_cardinality([stats, other]) == 1200.0
    assert difference_cardinality(stats, other) == 800.0
    assert difference_cardinality(other, stats) == 0.0


def test_distinct_cardinality(stats):
    assert distinct_cardinality(stats, ["group"]) == 10.0


def test_from_relation_measures_distincts_and_bounds():
    schema = Schema.from_names(["a", "b"])
    relation = Relation(schema, [(1, 5), (1, 6), (2, 7)])
    measured = TableStats.from_relation(relation)
    assert measured.cardinality == 3.0
    assert measured.distinct("a") == 2.0
    assert measured.column("b").min_value == 5.0
    assert measured.column("b").max_value == 7.0


# ------------------------------------------------------- satellite regressions


def test_lookup_prefers_exact_qualified_match():
    stats = TableStats(
        100.0,
        8,
        {
            "orders.key": ColumnStats(distinct=10.0),
            "lineitem.key": ColumnStats(distinct=50.0),
        },
    )
    assert stats.column("lineitem.key").distinct == 50.0
    assert stats.column("orders.key").distinct == 10.0


def test_lookup_resolves_ambiguous_suffix_deterministically():
    """An ambiguous unqualified suffix must not drop to the magic-constant path."""
    stats = TableStats(
        100.0,
        8,
        {
            "orders.key": ColumnStats(distinct=10.0),
            "lineitem.key": ColumnStats(distinct=50.0),
        },
    )
    resolved = stats.column("key")
    assert resolved is not None
    # Deterministic: the lexicographically smallest qualified name wins.
    assert resolved.distinct == 50.0
    # And therefore real statistics are used instead of the 10% fallback.
    assert stats.distinct("key") == 50.0


def test_range_selectivity_exact_outside_bounds(stats):
    # value column spans [0, 100]; values strictly outside are exact 0/1,
    # not the 1/cardinality clamp.
    assert estimate_selectivity("<", stats, "value", -5) == 0.0
    assert estimate_selectivity("<=", stats, "value", -5) == 0.0
    assert estimate_selectivity(">", stats, "value", -5) == 1.0
    assert estimate_selectivity(">=", stats, "value", -5) == 1.0
    assert estimate_selectivity("<", stats, "value", 200) == 1.0
    assert estimate_selectivity(">", stats, "value", 200) == 0.0
    assert estimate_selectivity(">=", stats, "value", 200) == 0.0


# ----------------------------------------------------------------- histograms


def test_equi_depth_histogram_from_values():
    histogram = Histogram.from_values(list(range(100)), buckets=4)
    assert histogram.total == 100.0
    assert histogram.min_value == 0.0 and histogram.max_value == 99.0
    assert histogram.fraction_at_most(49) == pytest.approx(0.5, abs=0.03)
    assert histogram.fraction_at_most(-1) == 0.0
    assert histogram.fraction_at_most(1000) == 1.0


def test_histogram_scaled_from_sample():
    histogram = Histogram.from_values([1, 2, 3, 4], buckets=2, scale=25.0)
    assert histogram.total == 100.0


def test_histogram_shifted_moves_counts_and_widens_bounds():
    histogram = Histogram.from_values(list(range(10)), buckets=2)
    inserted = histogram.shifted([0, 1, 2, 15], sign=1)
    assert inserted.total == histogram.total + 4
    assert inserted.max_value == 15.0
    deleted = inserted.shifted([0, 1], sign=-1)
    assert deleted.total == inserted.total - 2
    # Deletes never push a bucket negative.
    drained = histogram.shifted([0] * 100, sign=-1)
    assert all(c >= 0 for c in drained.counts)


def test_sampled_measurement_stays_close_to_exact():
    schema = Schema.from_names(["v"])
    rows = [(i % 500,) for i in range(20000)]
    relation = Relation(schema, rows)
    sampled = TableStats.from_relation(relation, sample_size=2000)
    exact = TableStats.from_relation(relation, sample_size=50000)
    assert sampled.cardinality == exact.cardinality == 20000.0
    # GEE distinct estimate within a factor of 2 of the true 500.
    assert 250.0 <= sampled.distinct("v") <= 1000.0
    # The histogram totals the full cardinality even though it was sampled.
    assert sampled.column("v").histogram.total == pytest.approx(20000.0, rel=0.01)


def test_updated_by_delta_maintains_bounds_and_histogram():
    schema = Schema.from_names(["v"])
    relation = Relation(schema, [(float(i),) for i in range(100)])
    stats = TableStats.from_relation(relation)
    inserts = Relation(schema, [(150.0,), (2.0,)])
    updated = stats.updated_by_delta(inserts, sign=1)
    assert updated.cardinality == 102.0
    assert updated.column("v").max_value == 150.0
    assert updated.column("v").histogram.total == pytest.approx(102.0)
    shrunk = updated.updated_by_delta(Relation(schema, [(2.0,)]), sign=-1)
    assert shrunk.cardinality == 101.0
    assert shrunk.column("v").histogram.total == pytest.approx(101.0)


# ------------------------------------- copies built without dataclasses.replace

def _replaced_with_cardinality(stats, cardinality):
    """``TableStats.with_cardinality`` as written with ``dataclasses.replace``."""
    new_cols = {
        name: replace(cs, distinct=max(1.0, min(cs.distinct, max(cardinality, 1.0))))
        for name, cs in stats.column_stats.items()
    }
    return TableStats(max(0.0, cardinality), stats.tuple_width, new_cols)


def _replaced_scaled(cs, factor):
    """``ColumnStats.scaled`` as written with ``dataclasses.replace``."""
    histogram = cs.histogram.scaled(factor) if cs.histogram is not None else None
    return replace(cs, distinct=max(1.0, cs.distinct * factor), histogram=histogram)


SIZES = st.one_of(
    st.sampled_from([0, 1, 1.0, 0.5, 25, 25.0]),
    st.integers(0, 10**6),
    st.floats(0.0, 1e6, allow_nan=False),
)

COLUMN_STATS = st.builds(
    ColumnStats,
    distinct=SIZES,
    min_value=st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False)),
    max_value=st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False)),
    null_fraction=st.floats(0.0, 1.0),
    histogram=st.one_of(st.none(), st.just(Histogram((0.0, 5.0, 9.0), (3.0, 7.0)))),
    sampled=st.booleans(),
)


def _same(a, b):
    """Equal field for field, down to the type of every number."""
    return a == b and repr(a) == repr(b)


@given(
    columns=st.dictionaries(st.sampled_from(["a", "t.b", "c"]), COLUMN_STATS, max_size=3),
    cardinality=SIZES,
    new_cardinality=st.one_of(SIZES, st.floats(-10.0, 0.0)),
    factor=st.one_of(st.just(1.0), st.floats(0.0, 10.0, allow_nan=False)),
)
def test_copies_equal_the_replace_based_ones(columns, cardinality, new_cardinality, factor):
    stats = TableStats(cardinality, 24, columns)
    assert _same(stats.with_cardinality(new_cardinality), _replaced_with_cardinality(stats, new_cardinality))
    assert _same(stats.scaled(factor), _replaced_with_cardinality(stats, cardinality * factor))
    for cs in columns.values():
        assert _same(cs.scaled(factor), _replaced_scaled(cs, factor))
