"""Unit tests for the cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import ColumnStats, TableStats
from repro.optimizer.cost_model import (
    CostModel,
    CostParameters,
    InputDescriptor,
    MemoizedCostModel,
)
from repro.storage.buffer import BufferPool


@pytest.fixture
def model():
    return CostModel(CostParameters(), BufferPool(blocks=100, block_size=4096))


def stats(card, width=100, distinct=None, name="k"):
    cols = {name: ColumnStats(distinct=distinct)} if distinct else {}
    return TableStats(card, width, cols)


def test_scan_reuse_materialize_scale_with_size(model):
    small, large = stats(10), stats(10_000)
    assert model.scan_cost(small) < model.scan_cost(large)
    assert model.reuse_cost(small) < model.reuse_cost(large)
    assert model.materialize_cost(small) < model.materialize_cost(large)
    assert model.materialize_cost(stats(0)) == 0.0


def test_empty_relation_costs(model):
    assert model.scan_cost(stats(0)) == pytest.approx(model.parameters.seek_time)


def test_select_project_union_costs_monotone(model):
    assert model.select_cost(stats(10), stats(5)) < model.select_cost(stats(10_000), stats(5_000))
    assert model.project_cost(stats(10), stats(10)) < model.project_cost(stats(1000), stats(1000))
    assert model.union_cost([stats(10), stats(10)], stats(20)) < model.union_cost(
        [stats(10_000), stats(10_000)], stats(20_000)
    )


def test_aggregate_spills_when_input_exceeds_buffer(model):
    in_memory = model.aggregate_cost(stats(100), stats(10))
    spilled = model.aggregate_cost(stats(100_000, width=100), stats(10))
    assert spilled > in_memory
    # The spill shows up as a discontinuity, not just linear growth.
    assert spilled > model.aggregate_cost(stats(4000, width=100), stats(10)) * 2


def test_sort_cost_grows_superlinearly(model):
    assert model.sort_cost(stats(100_000)) > 10 * model.sort_cost(stats(1000))


def test_hash_join_preferred_for_unindexed_inputs(model):
    left = InputDescriptor(stats(10_000, distinct=10_000))
    right = InputDescriptor(stats(1_000, distinct=1_000))
    cost, algorithm = model.join_cost([("k", "k")], left, right, stats(10_000))
    assert algorithm in ("hash", "merge")
    assert cost > 0


def test_index_nested_loop_chosen_for_small_outer_probing_stored_indexed(model):
    delta = InputDescriptor(stats(50, distinct=50))
    stored = InputDescriptor(stats(100_000, distinct=100_000), stored=True, indexed_columns=(("k",),))
    access_stored = model.scan_cost(stored.stats)
    cost, algorithm = model.join_cost(
        [("k", "k")], delta, stored, stats(50), left_access=0.0, right_access=access_stored
    )
    assert algorithm == "index_nested_loop_right"
    # The stored side's access cost must not be charged.
    assert cost < access_stored


def test_index_not_usable_when_not_stored(model):
    delta = InputDescriptor(stats(50))
    virtual = InputDescriptor(stats(100_000), stored=False, indexed_columns=(("k",),))
    _, algorithm = model.join_cost([("k", "k")], delta, virtual, stats(50))
    assert not algorithm.startswith("index")


def test_merge_join_benefits_from_sort_order(model):
    sorted_left = InputDescriptor(stats(10_000), sorted_on=("k",))
    sorted_right = InputDescriptor(stats(10_000), sorted_on=("k",))
    unsorted = InputDescriptor(stats(10_000))
    sorted_cost, _ = model.join_cost([("k", "k")], sorted_left, sorted_right, stats(10_000))
    unsorted_cost = model.join_cost([("k", "k")], unsorted, unsorted, stats(10_000))[0]
    assert sorted_cost <= unsorted_cost


def test_cross_product_uses_nested_loops(model):
    left, right = InputDescriptor(stats(100)), InputDescriptor(stats(100))
    _, algorithm = model.join_cost([], left, right, stats(10_000))
    assert algorithm == "nested_loop"


def test_pipeline_breaker_only_for_large_outputs(model):
    assert model.pipeline_breaker_cost(stats(10)) == 0.0
    assert model.pipeline_breaker_cost(stats(1_000_000, width=100)) > 0.0


def test_merge_cost_cheaper_with_index(model):
    view = stats(100_000, width=200)
    deltas = [stats(1000, width=200)]
    assert model.merge_cost(view, deltas, has_index=True) < model.merge_cost(view, deltas, has_index=False)
    assert model.merge_cost(view, [stats(0)], has_index=False) == 0.0


def test_index_build_and_maintenance_costs(model):
    assert model.index_build_cost(stats(100_000)) > model.index_build_cost(stats(100))
    assert model.index_maintenance_cost([stats(1000)]) > model.index_maintenance_cost([stats(10)])
    assert model.index_maintenance_cost([stats(0)]) == 0.0


def test_buffer_size_changes_costs():
    large = CostModel(CostParameters(), BufferPool(blocks=8000))
    small = CostModel(CostParameters(), BufferPool(blocks=100))
    big_input = stats(500_000, width=100)
    assert small.aggregate_cost(big_input, stats(10)) >= large.aggregate_cost(big_input, stats(10))


# ------------------------------------------ memoized primitives (per engine)

#: The default pool and the buffer-size study's small one.
POOLS = (BufferPool(8000), BufferPool(1000))
WIDTHS = (8, 60, 144)


@st.composite
def straddling_stats(draw, pool):
    """Statistics whose size lies below, at, just past or far past ``pool``."""
    width = draw(st.sampled_from(WIDTHS))
    fit = pool.capacity_bytes // width
    cardinality = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, float(fit), float(fit + 1), fit + 0.5]),
            st.floats(0.0, 3.0 * fit, allow_nan=False),
        )
    )
    distinct = draw(st.floats(1.0, max(1.0, cardinality), allow_nan=False))
    return TableStats(cardinality, width, {"k": ColumnStats(distinct=distinct)})


@st.composite
def descriptors(draw, pool):
    columns = st.sampled_from([(), ("k",), ("t.k",), ("k", "j"), ("j",)])
    return InputDescriptor(
        draw(straddling_stats(pool)),
        stored=draw(st.booleans()),
        indexed_columns=tuple(draw(st.lists(columns.filter(bool), max_size=2))),
        sorted_on=draw(columns),
    )


CONDITIONS = st.sampled_from([(), (("t.k", "s.k"),), (("k", "k"),), (("t.k", "s.k"), ("t.j", "s.j"))])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_memoized_primitives_equal_the_plain_models_bit_for_bit(data):
    pool = data.draw(st.sampled_from(POOLS))
    plain = CostModel(CostParameters(), pool)
    memo = MemoizedCostModel(plain)
    for _ in range(3):
        stats = data.draw(straddling_stats(pool))
        # A second object with the same cardinality and width but other
        # column statistics hits the memo: the primitives must not read them.
        # A third with another width must miss it.
        twin = TableStats(stats.cardinality, stats.tuple_width)
        wider = TableStats(stats.cardinality, stats.tuple_width * 3)
        for priced, reference in ((stats, stats), (twin, stats), (wider, wider)):
            assert memo.sort_cost(priced) == plain.sort_cost(reference)
            assert memo._spill_penalty(priced) == plain._spill_penalty(reference)
            assert memo.pipeline_breaker_cost(priced) == plain.pipeline_breaker_cost(reference)
        conditions = data.draw(CONDITIONS)
        left, right = data.draw(descriptors(pool)), data.draw(descriptors(pool))
        output = data.draw(straddling_stats(pool))
        access = data.draw(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)))
        expected = plain.join_cost(conditions, left, right, output, *access)
        assert memo.join_cost(conditions, left, right, output, *access) == expected
        assert memo.join_cost(list(conditions), left, right, output, *access) == expected


def test_input_descriptor_index_keys_ignore_qualifiers():
    descriptor = InputDescriptor(stats(10), indexed_columns=(("t.k", "t.j"),), sorted_on=("t.k",))
    assert descriptor.index_keys == (("k", "j"),)
    assert descriptor.sort_key == ("k",)
    assert descriptor.has_index_on(["s.k"])
    assert descriptor.has_index_on(["k", "j", "x"])
    assert not descriptor.has_index_on(["j"])
    assert not descriptor.has_index_on([])
    assert descriptor == InputDescriptor(stats(10), indexed_columns=(("t.k", "t.j"),), sorted_on=("t.k",))
