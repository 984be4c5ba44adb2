"""Property tests: every columnar kernel ≡ its row-at-a-time oracle.

The columnar engine may only change *how* a bag is computed, never the bag:
for random inputs — including NULL join keys, NULL aggregate inputs and
deltas that make whole groups vanish — each batch kernel must produce
exactly the bag its row-based oracle produces.  The whole-column paths are
what runs here (mask/gather select, code-based group-reduce, and the
columnar :class:`~repro.engine.operators.JoinBuild` that full joins and both
bags of a δ-join probe).

Inputs are deliberately pushed over the vectorization thresholds by
pre-building stores (``vector_store``), so the vector paths engage even on
hypothesis-sized bags.  The join properties draw ``NULL``-free int, float
and two-column keys, which keep the build columnar, besides the
``NULL``-carrying keys that send it to its dict form; each asserts
:func:`~repro.engine.operators.hash_join`'s rows in its emission order.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import AggregateFunc, AggregateSpec
from repro.algebra.predicates import eq, gt, lit
from repro.catalog.schema import Schema
from repro.engine import operators
from repro.storage.relation import Relation

LEFT_SCHEMA = Schema.from_names(["l_key", "l_value", "l_tag"])
RIGHT_SCHEMA = Schema.from_names(["r_key", "r_label"])

key = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
value = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
tag = st.sampled_from(["a", "b", "c"])
label = st.sampled_from(["p", "q"])

left_rows = st.lists(st.tuples(key, value, tag), min_size=0, max_size=30)
right_rows = st.lists(st.tuples(key, label), min_size=0, max_size=20)

#: Keeps the ``[numpy]`` ids these tests were recorded under (the test floor
#: and CI history name them); there is one store, so nothing to vary.
numpy_id = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def bag(relation: Relation) -> Counter:
    return Counter(relation.iter_rows())


def _columnar(schema: Schema, rows) -> Relation:
    """A relation with its store pre-built."""
    relation = Relation(schema, [tuple(r) for r in rows])
    relation.vector_store()
    return relation


@numpy_id
@settings(max_examples=60, deadline=None)
@given(rows=left_rows, threshold=st.integers(min_value=-50, max_value=50))
def test_select_batch_matches_row_select(rows, threshold):
    predicate = gt("l_value", lit(threshold))
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.select(Relation(LEFT_SCHEMA, list(rows)), predicate))
    assert bag(operators.select_batch(relation, predicate)) == expected


@numpy_id
@settings(max_examples=40, deadline=None)
@given(rows=left_rows)
def test_project_preserves_duplicates(rows):
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = Counter((r[2], r[0]) for r in rows)
    assert bag(relation.project(["l_tag", "l_key"])) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(lrows=left_rows, rrows=right_rows)
def test_hash_join_batch_matches_row_join(lrows, rrows):
    conditions = [("l_key", "r_key")]
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(RIGHT_SCHEMA, rrows)
    expected = bag(
        operators.hash_join(
            Relation(LEFT_SCHEMA, list(lrows)),
            Relation(RIGHT_SCHEMA, list(rrows)),
            conditions,
        )
    )
    assert bag(operators.hash_join_batch(left, right, conditions)) == expected


@numpy_id
@settings(max_examples=40, deadline=None)
@given(lrows=left_rows, rrows=right_rows, threshold=st.integers(min_value=-50, max_value=50))
def test_hash_join_batch_with_residual(lrows, rrows, threshold):
    conditions = [("l_key", "r_key")]
    residual = gt("l_value", lit(threshold))
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(RIGHT_SCHEMA, rrows)
    joined = operators.hash_join(
        Relation(LEFT_SCHEMA, list(lrows)), Relation(RIGHT_SCHEMA, list(rrows)), conditions
    )
    expected = bag(operators.select(joined, residual))
    assert bag(operators.hash_join_batch(left, right, conditions, residual)) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(rows=left_rows)
def test_aggregate_batch_matches_row_aggregate(rows):
    specs = [
        AggregateSpec(AggregateFunc.SUM, "l_value", "total"),
        AggregateSpec(AggregateFunc.COUNT, None, "n"),
        AggregateSpec(AggregateFunc.MIN, "l_value", "low"),
        AggregateSpec(AggregateFunc.MAX, "l_value", "high"),
    ]
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, list(rows)), ["l_key"], specs))
    assert bag(operators.aggregate_batch(relation, ["l_key"], specs)) == expected


@numpy_id
@settings(max_examples=30, deadline=None)
@given(rows=left_rows)
def test_aggregate_batch_global_group(rows):
    specs = [AggregateSpec(AggregateFunc.SUM, "l_value", "total")]
    relation = _columnar(LEFT_SCHEMA, rows)
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, list(rows)), [], specs))
    assert bag(operators.aggregate_batch(relation, [], specs)) == expected


@numpy_id
@settings(max_examples=60, deadline=None)
@given(ins=left_rows, dels=left_rows, other=right_rows)
def test_delta_hash_join_batch_matches_plain_joins(ins, dels, other):
    """δ-⋈ both bags — two probes of one columnar ``JoinBuild`` (or its dict)."""
    conditions = [("l_key", "r_key")]
    inserts = _columnar(LEFT_SCHEMA, ins)
    deletes = _columnar(LEFT_SCHEMA, dels)
    stored = _columnar(RIGHT_SCHEMA, other)
    got_ins, got_dels = operators.delta_hash_join_batch(
        inserts, deletes, stored, conditions, delta_side="left"
    )
    oracle = Relation(RIGHT_SCHEMA, list(other))
    assert bag(got_ins) == bag(
        operators.hash_join(Relation(LEFT_SCHEMA, list(ins)), oracle, conditions)
    )
    assert bag(got_dels) == bag(
        operators.hash_join(Relation(LEFT_SCHEMA, list(dels)), oracle, conditions)
    )


@numpy_id
@settings(max_examples=40, deadline=None)
@given(ins=right_rows, dels=right_rows, other=left_rows)
def test_delta_hash_join_batch_right_side_delta(ins, dels, other):
    conditions = [("l_key", "r_key")]
    inserts = _columnar(RIGHT_SCHEMA, ins)
    deletes = _columnar(RIGHT_SCHEMA, dels)
    stored = _columnar(LEFT_SCHEMA, other)
    got_ins, got_dels = operators.delta_hash_join_batch(
        inserts, deletes, stored, conditions, delta_side="right"
    )
    oracle = Relation(LEFT_SCHEMA, list(other))
    assert bag(got_ins) == bag(
        operators.hash_join(oracle, Relation(RIGHT_SCHEMA, list(ins)), conditions)
    )
    assert bag(got_dels) == bag(
        operators.hash_join(oracle, Relation(RIGHT_SCHEMA, list(dels)), conditions)
    )


@numpy_id
@settings(max_examples=30, deadline=None)
@given(lrows=left_rows, rrows=right_rows)
def test_vector_probe_build_emits_dict_probe_order(lrows, rrows):
    """Not just the same bag: the columnar build emits its dict form's *order*."""
    conditions = [("l_key", "r_key")]
    stored = _columnar(RIGHT_SCHEMA, rrows)
    inserts = _columnar(LEFT_SCHEMA, lrows)
    empty = _columnar(LEFT_SCHEMA, [])
    got_ins, _ = operators.delta_hash_join_batch(
        inserts, empty, stored, conditions, delta_side="left"
    )
    # A build over a row-backed input takes the dict form.
    dict_build = operators.JoinBuild(Relation(RIGHT_SCHEMA, list(rrows)), [0])
    assert dict_build.sorted_key is None
    reference, _ = operators.delta_hash_join_batch(
        Relation(LEFT_SCHEMA, list(lrows)),
        Relation(LEFT_SCHEMA, []),
        Relation(RIGHT_SCHEMA, list(rrows)),
        conditions,
        delta_side="left",
        build=dict_build,
    )
    assert list(got_ins.iter_rows()) == list(reference.iter_rows())


# ------------------------------------------------- the columnar join build

PAIR_LEFT = Schema.from_names(["l_a", "l_b", "l_tag"])
PAIR_RIGHT = Schema.from_names(["r_a", "r_b", "r_label"])
PAIR = [("l_a", "r_a"), ("l_b", "r_b")]

int_key = st.integers(min_value=0, max_value=6)
float_key = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 3.25])
pair_key = st.integers(min_value=0, max_value=3)


def rows_of(relation: Relation):
    return list(relation.iter_rows())


def check_every_probe(left_schema, lrows, right_schema, rrows, conditions, columnar=True):
    """``hash_join_batch`` and a δ-join with the bags on either side give
    :func:`hash_join`'s rows in its emission order (a right-side δ bag is
    the probe, so its rows come bag-major: ``hash_join`` with the bag on
    the left, columns swapped back).  ``columnar``: every non-empty build
    takes the columnar form and never builds its dict."""
    left = _columnar(left_schema, lrows)
    right = _columnar(right_schema, rrows)
    reference = rows_of(
        operators.hash_join(
            Relation(left_schema, list(lrows)), Relation(right_schema, list(rrows)), conditions
        )
    )
    assert rows_of(operators.hash_join_batch(left, right, conditions)) == reference

    width = len(right_schema)
    flipped = operators.hash_join(
        Relation(right_schema, list(rrows)), Relation(left_schema, list(lrows)), conditions
    )
    swapped = [row[width:] + row[:width] for row in flipped.iter_rows()]
    left_pos, right_pos = operators._join_positions(left_schema, right_schema, conditions)
    for bag, other, positions, side, expected in (
        (left, right, right_pos, "left", reference),
        (right, left, left_pos, "right", swapped),
    ):
        build = operators.JoinBuild(other, positions)
        got_ins, got_dels = operators.delta_hash_join_batch(
            bag, bag, other, conditions, delta_side=side, build=build
        )
        assert rows_of(got_ins) == rows_of(got_dels) == expected
        if columnar and len(other):
            assert build.sorted_key is not None and build._buckets is None


@settings(max_examples=60, deadline=None)
@given(
    lrows=st.lists(st.tuples(int_key, value, tag), max_size=30),
    rrows=st.lists(st.tuples(int_key, label), max_size=20),
)
def test_int_key_joins_probe_a_columnar_build(lrows, rrows):
    check_every_probe(LEFT_SCHEMA, lrows, RIGHT_SCHEMA, rrows, [("l_key", "r_key")])


@settings(max_examples=60, deadline=None)
@given(
    lrows=st.lists(st.tuples(float_key, value, tag), max_size=30),
    rrows=st.lists(st.tuples(float_key, label), max_size=20),
)
def test_float_key_joins_probe_a_columnar_build(lrows, rrows):
    check_every_probe(LEFT_SCHEMA, lrows, RIGHT_SCHEMA, rrows, [("l_key", "r_key")])


@settings(max_examples=60, deadline=None)
@given(
    lrows=st.lists(st.tuples(pair_key, float_key, tag), max_size=30),
    rrows=st.lists(st.tuples(pair_key, float_key, label), max_size=20),
)
def test_two_column_keys_probe_one_fused_code(lrows, rrows):
    """Two conditions: the build fuses an int and a float key column into
    one code, and a probe pair the build never saw matches nothing."""
    check_every_probe(PAIR_LEFT, lrows, PAIR_RIGHT, rrows, PAIR)


@settings(max_examples=40, deadline=None)
@given(
    lrows=st.lists(st.tuples(int_key, value, tag), max_size=10),
    rrows=st.lists(st.tuples(int_key, label), max_size=8),
)
def test_cross_products_probe_a_build_on_no_key_column(lrows, rrows):
    check_every_probe(LEFT_SCHEMA, lrows, RIGHT_SCHEMA, rrows, [])


@settings(max_examples=40, deadline=None)
@given(
    lrows=st.lists(st.tuples(int_key, value, tag), min_size=1, max_size=30),
    rrows=st.lists(st.tuples(float_key, label), min_size=1, max_size=20),
)
def test_an_int_probe_of_a_float_build_takes_the_dict(lrows, rrows):
    """``1`` and ``1.0`` are one key to ``hash_join``: the columnar build
    declines a probe whose key dtype differs and answers from its dict."""
    conditions = [("l_key", "r_key")]
    build = operators.JoinBuild(_columnar(RIGHT_SCHEMA, rrows), [0])
    assert build.sorted_key is not None
    got = build.probe(_columnar(LEFT_SCHEMA, lrows), [0], True)
    assert build._buckets is not None
    reference = operators.hash_join(
        Relation(LEFT_SCHEMA, list(lrows)), Relation(RIGHT_SCHEMA, list(rrows)), conditions
    )
    assert rows_of(got) == rows_of(reference)
    check_every_probe(LEFT_SCHEMA, lrows, RIGHT_SCHEMA, rrows, conditions, columnar=False)


def _typed_empty(schema, row):
    """An empty relation whose store keeps ``row``'s column dtypes."""
    store = _columnar(schema, [row]).vector_store()
    return Relation.from_store(schema, store.mask([False]))


FORMS = ("rows", "typed-empty", "full")


@pytest.mark.parametrize(
    ("left_form", "right_form"),
    [(a, b) for a in FORMS for b in FORMS if "full" not in (a, b) or a != b],
)
def test_an_empty_build_or_bag_joins_to_nothing(left_form, right_form):
    """Row-backed empties, empties with typed stores, and a full input
    against either: every kernel emits an empty bag of the joined schema."""
    left = {
        "rows": Relation(LEFT_SCHEMA, []),
        "typed-empty": _typed_empty(LEFT_SCHEMA, (1, 5, "a")),
        "full": _columnar(LEFT_SCHEMA, [(1, 5, "a"), (2, 6, "b")]),
    }[left_form]
    right = {
        "rows": Relation(RIGHT_SCHEMA, []),
        "typed-empty": _typed_empty(RIGHT_SCHEMA, (1, "p")),
        "full": _columnar(RIGHT_SCHEMA, [(1, "p"), (2, "q")]),
    }[right_form]
    schema = LEFT_SCHEMA.concat(RIGHT_SCHEMA)
    for conditions in ([("l_key", "r_key")], []):
        joins = [operators.hash_join_batch(left, right, conditions)]
        joins += operators.delta_hash_join_batch(left, left, right, conditions)
        joins += operators.delta_hash_join_batch(
            right, right, left, conditions, delta_side="right"
        )
        for joined in joins:
            assert joined.schema == schema and not len(joined)


@numpy_id
@settings(max_examples=40, deadline=None)
@given(rows=left_rows, dels=st.data())
def test_vanishing_groups_after_difference(rows, dels):
    """Deleting every row of a group must erase the group, not zero it."""
    removed = dels.draw(st.lists(st.sampled_from(rows), max_size=len(rows)) if rows else st.just([]))
    specs = [AggregateSpec(AggregateFunc.COUNT, None, "n")]
    relation = _columnar(LEFT_SCHEMA, rows)
    survivors = relation.difference(Relation(LEFT_SCHEMA, list(removed)))
    got = operators.aggregate_batch(survivors, ["l_key"], specs)
    remaining = Counter(map(tuple, rows))
    remaining.subtract(Counter(map(tuple, removed)))
    expected_rows = list((+remaining).elements())
    expected = bag(operators.aggregate(Relation(LEFT_SCHEMA, expected_rows), ["l_key"], specs))
    assert bag(got) == expected
    present_keys = {r[0] for r in expected_rows}
    assert {r[0] for r in got.iter_rows()} == present_keys


@numpy_id
@settings(max_examples=40, deadline=None)
@given(lrows=left_rows, rrows=left_rows)
def test_union_and_difference_round_trip(lrows, rrows):
    left = _columnar(LEFT_SCHEMA, lrows)
    right = _columnar(LEFT_SCHEMA, rrows)
    union = left.union_all(right)
    assert bag(union) == Counter(map(tuple, lrows)) + Counter(map(tuple, rrows))
    back = union.difference(right)
    assert bag(back) == Counter(map(tuple, lrows))


@numpy_id
@settings(max_examples=30, deadline=None)
@given(rows=left_rows)
def test_distinct_and_eq_predicate(rows):
    relation = _columnar(LEFT_SCHEMA, rows)
    assert bag(operators.distinct(relation)) == Counter(set(map(tuple, rows)))
    predicate = eq("l_tag", lit("a"))
    expected = Counter(r for r in map(tuple, rows) if r[2] == "a")
    assert bag(operators.select_batch(relation, predicate)) == expected
