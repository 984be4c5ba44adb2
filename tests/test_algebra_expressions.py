"""Unit tests for logical expressions."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Difference,
    Distinct,
    Join,
    Project,
    Select,
    UnionAll,
    base_relations,
    join_conditions,
    selection_conjuncts,
    walk,
)
from repro.algebra.predicates import eq, lt
from repro.algebra.rewrite import delta_first_join, flatten_join_block
from repro.workloads import queries, tpcd


def sample_join():
    return Join(
        Join(BaseRelation("A"), BaseRelation("B"), [("a_id", "b_id")]),
        BaseRelation("C"),
        [("b_id", "c_id")],
    )


def test_base_relation_canonical_is_name():
    assert BaseRelation("orders").canonical() == "orders"
    assert BaseRelation("orders").children() == ()


def test_join_commutativity_canonicalized():
    left = Join(BaseRelation("A"), BaseRelation("B"), [("a_id", "b_id")])
    right = Join(BaseRelation("B"), BaseRelation("A"), [("b_id", "a_id")])
    assert left == right
    assert hash(left) == hash(right)


def test_different_conditions_not_unified():
    one = Join(BaseRelation("A"), BaseRelation("B"), [("a_id", "b_id")])
    other = Join(BaseRelation("A"), BaseRelation("B"), [("a_x", "b_x")])
    assert one != other


def test_select_and_project_canonical_forms():
    select = Select(BaseRelation("A"), lt("a_val", 5))
    project = Project(BaseRelation("A"), ["a_id"])
    assert "select" in select.canonical()
    assert "project" in project.canonical()
    assert select != project


def test_aggregate_canonical_order_insensitive_to_spec_order():
    specs1 = [
        AggregateSpec(AggregateFunc.SUM, "v", "s"),
        AggregateSpec(AggregateFunc.COUNT, None, "c"),
    ]
    specs2 = list(reversed(specs1))
    agg1 = Aggregate(BaseRelation("A"), ["g"], specs1)
    agg2 = Aggregate(BaseRelation("A"), ["g"], specs2)
    assert agg1 == agg2


def test_union_requires_two_inputs():
    with pytest.raises(ValueError):
        UnionAll([BaseRelation("A")])


def test_union_canonical_order_insensitive():
    one = UnionAll([BaseRelation("A"), BaseRelation("B")])
    two = UnionAll([BaseRelation("B"), BaseRelation("A")])
    assert one == two


def test_difference_is_order_sensitive():
    one = Difference(BaseRelation("A"), BaseRelation("B"))
    two = Difference(BaseRelation("B"), BaseRelation("A"))
    assert one != two


def test_walk_visits_every_node():
    expression = Select(sample_join(), lt("a_val", 3))
    kinds = [type(node).__name__ for node in walk(expression)]
    assert kinds.count("Join") == 2
    assert kinds.count("BaseRelation") == 3
    assert kinds[0] == "Select"


def test_base_relations_collects_names():
    assert base_relations(sample_join()) == frozenset({"A", "B", "C"})


def test_join_conditions_collects_pairs():
    assert set(join_conditions(sample_join())) == {("a_id", "b_id"), ("b_id", "c_id")}


def test_selection_conjuncts_collects_predicates():
    expression = Select(Select(BaseRelation("A"), lt("x", 1)), eq("y", 2))
    assert len(selection_conjuncts(expression)) == 2


def test_distinct_and_labels():
    distinct = Distinct(BaseRelation("A"))
    assert "distinct" in distinct.canonical()
    assert BaseRelation("A").label == "A"
    assert sample_join().label.startswith("⋈")


def test_aggregate_func_distributive_flags():
    assert AggregateFunc.SUM.is_distributive
    assert AggregateFunc.COUNT.is_distributive
    assert AggregateFunc.AVG.is_distributive
    assert not AggregateFunc.MIN.is_distributive
    assert not AggregateFunc.MAX.is_distributive


# ------------------------------------------- memoized identity (canonical form)
#
# ``canonical()`` and ``base_relations()`` are computed once per node and
# cached on the instance.  The reference below rebuilds both from scratch
# with no cache at all, following the canonical grammar operator by operator.

def _bare(column):
    return column.rsplit(".", 1)[-1]


def reference_canonical(node):
    ref = reference_canonical
    if isinstance(node, BaseRelation):
        return node.name
    if isinstance(node, Select):
        return f"select[{node.predicate.canonical()}]({ref(node.child)})"
    if isinstance(node, Project):
        return f"project[{','.join(_bare(c) for c in node.columns)}]({ref(node.child)})"
    if isinstance(node, Join):
        conds = sorted("=".join(sorted((_bare(a), _bare(b)))) for a, b in node.conditions)
        left, right = sorted((ref(node.left), ref(node.right)))
        return f"join[{','.join(conds)};{node.residual.canonical()}]({left},{right})"
    if isinstance(node, Aggregate):
        groups = ",".join(_bare(c) for c in node.group_by)
        aggs = ",".join(sorted(spec.canonical() for spec in node.aggregates))
        return f"aggregate[{groups};{aggs}]({ref(node.child)})"
    if isinstance(node, UnionAll):
        return f"union({','.join(sorted(ref(i) for i in node.inputs))})"
    if isinstance(node, Difference):
        return f"difference({ref(node.left)},{ref(node.right)})"
    if isinstance(node, Distinct):
        return f"distinct({ref(node.child)})"
    raise TypeError(type(node).__name__)


def reference_base_relations(node):
    if isinstance(node, BaseRelation):
        return frozenset((node.name,))
    return frozenset().union(*(reference_base_relations(c) for c in node.children()))


def _replacements(node):
    """``dataclasses.replace`` copies of ``node`` with one field changed."""
    other = BaseRelation("zz_other")
    if isinstance(node, BaseRelation):
        return [dataclasses.replace(node, name="zz_other")]
    if isinstance(node, (Select, Project, Aggregate, Distinct)):
        return [dataclasses.replace(node, child=other)]
    if isinstance(node, (Join, Difference)):
        return [dataclasses.replace(node, left=other), dataclasses.replace(node, right=other)]
    if isinstance(node, UnionAll):
        return [dataclasses.replace(node, inputs=(other, *node.inputs[1:]))]
    raise TypeError(type(node).__name__)


def assert_memo_exact(tree):
    nodes = list(walk(tree))
    for _ in range(2):  # first call fills the memo, the second reads it
        for node in nodes:
            assert node.canonical() == reference_canonical(node)
            assert hash(node) == hash(reference_canonical(node))
            assert base_relations(node) == reference_base_relations(node)
    for node in nodes:
        for other in nodes:
            same = reference_canonical(node) == reference_canonical(other)
            assert (node == other) is same
            assert (node != other) is not same
    for node in nodes:
        for copy in _replacements(node):
            # The source's memo is filled; the copy must derive its own.
            assert copy.canonical() == reference_canonical(copy)
            assert base_relations(copy) == reference_base_relations(copy)
            assert "zz_other" in base_relations(copy)
            assert (copy == node) is (reference_canonical(copy) == reference_canonical(node))
        # Copying unchanged keeps the identity without sharing the memo dict.
        twin = dataclasses.replace(node)
        assert twin == node and twin.__dict__ is not node.__dict__
        assert base_relations(twin) == base_relations(node)


_NAMES = ("A", "B", "orders", "lineitem")
_COLUMNS = ("x", "y", "A.x", "B.y", "o_orderkey", "l_orderkey")


def _predicates():
    return st.builds(
        lambda op, column, value: op(column, value),
        st.sampled_from([eq, lt]),
        st.sampled_from(_COLUMNS),
        st.one_of(st.integers(-3, 3), st.sampled_from(_COLUMNS)),
    )


def _specs():
    return st.builds(
        AggregateSpec,
        st.sampled_from(list(AggregateFunc)),
        st.one_of(st.none(), st.sampled_from(_COLUMNS)),
        st.sampled_from(("s", "c", "m")),
    )


def _extend(children):
    columns = st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3)
    return st.one_of(
        st.builds(Select, children, _predicates()),
        st.builds(Project, children, columns),
        st.builds(
            Join,
            children,
            children,
            st.lists(st.tuples(st.sampled_from(_COLUMNS), st.sampled_from(_COLUMNS)), max_size=2),
            st.one_of(st.none(), _predicates()),
        ),
        st.builds(Aggregate, children, columns, st.lists(_specs(), min_size=1, max_size=3)),
        st.builds(UnionAll, st.lists(children, min_size=2, max_size=3)),
        st.builds(Difference, children, children),
        st.builds(Distinct, children),
    )


expression_trees = st.recursive(
    st.builds(BaseRelation, st.sampled_from(_NAMES)), _extend, max_leaves=8
)


@given(tree=expression_trees)
@settings(max_examples=150, deadline=None)
def test_memoized_identity_equals_a_from_scratch_rebuild(tree):
    assert_memo_exact(tree)


def _workload_trees():
    catalog = tpcd.tpcd_catalog(scale_factor=0.01)
    for view_set in (
        queries.view_set_plain(),
        queries.view_set_aggregate(),
        queries.large_view_set(),
        queries.large_view_set(with_aggregates=True),
        queries.example_3_1_queries(),
        queries.selection_variant_views(),
    ):
        for view in view_set.values():
            yield view
            for node in walk(view):
                if not isinstance(node, Join):
                    continue
                block = flatten_join_block(node)
                for start in range(len(block.leaves)):
                    planned = delta_first_join(block, start, catalog)
                    if planned is not None:
                        yield planned[0]


def test_memoized_identity_exact_on_workload_views_and_delta_first_trees():
    trees = list(_workload_trees())
    assert len(trees) > 100
    for tree in trees:
        assert_memo_exact(tree)
