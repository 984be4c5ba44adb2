"""Delta-first δ-joins and the column order of memoized results.

A single-relation update on R is differentiated through a join block by
joining R's δ outward, one connected leaf at a time, with the old value of
each leaf.  These tests pin that the route changes no δ bag (against the
interpreted ``differentiate`` and against recomputation), which route each
block takes, and that no memoized or stored result reaches an expression
written in another operand order in the wrong column order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    Aggregate,
    AggregateFunc,
    AggregateSpec,
    BaseRelation,
    Difference,
    Join,
    Project,
    Select,
    UnionAll,
    base_relations,
)
from repro.algebra.predicates import gt, lt
from repro.algebra.rewrite import delta_first_join, flatten_join_block, oriented_form
from repro.api import Warehouse, WarehouseConfig
from repro.engine.differential import (
    DELTA_FIRST,
    DifferentialEngine,
    OldValueCache,
    delta_join_plans,
    differentiate,
    join_blocks,
)
from repro.engine.executor import evaluate
from repro.engine.operators import reorder
from repro.maintenance.maintainer import ViewRefresher
from repro.storage.relation import Relation
from repro.storage.delta import DeltaKind
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.queries import join_condition
from repro.workloads.updategen import uniform_deltas

L, O, C, P, N, R, S = (
    BaseRelation(n)
    for n in ("lineitem", "orders", "customer", "part", "nation", "region", "supplier")
)
LO = join_condition("lineitem", "orders")
OC = join_condition("orders", "customer")
LP = join_condition("lineitem", "part")
CN = join_condition("customer", "nation")
NR = join_condition("nation", "region")

RELATIONS = ("lineitem", "orders", "customer", "nation", "region", "supplier", "part", "partsupp")


def _adjacent(a, b):
    try:
        join_condition(a, b)
    except KeyError:
        return False
    return True


NEIGHBOURS = {r: sorted(n for n in RELATIONS if n != r and _adjacent(r, n)) for r in RELATIONS}
#: One selection and one (group column, summed column) per relation.
PREDICATES = {
    "lineitem": lt("l_quantity", 25.0),
    "orders": gt("o_totalprice", 150000.0),
    "customer": gt("c_acctbal", 0.0),
    "nation": lt("n_nationkey", 12),
    "region": lt("r_regionkey", 3),
    "supplier": gt("s_acctbal", 0.0),
    "part": lt("p_size", 25),
    "partsupp": gt("ps_availqty", 2000),
}
AGGREGATES = {
    "lineitem": ("l_returnflag", "l_extendedprice"),
    "orders": ("o_orderpriority", "o_totalprice"),
    "customer": ("c_mktsegment", "c_acctbal"),
    "nation": ("n_regionkey", "n_nationkey"),
    "region": ("r_name", "r_regionkey"),
    "supplier": ("s_nationkey", "s_acctbal"),
    "part": ("p_brand", "p_retailprice"),
    "partsupp": ("ps_suppkey", "ps_supplycost"),
}

DATABASE = small_database(scale_factor=0.0003, seed=3)


def _thinned_lines(database, keep_every):
    """``database`` with every ``keep_every``-th lineitem row and nothing else
    changed."""
    thinned = database.copy()
    lines = database.table("lineitem")
    thinned.load_table("lineitem", Relation(lines.schema, lines.rows[::keep_every]))
    return thinned


#: The random join blocks' database.  An example's cost is the interpreted
#: oracle's, which grows with the lineitem rows a block reaches through the
#: 4-per-line ``l_partkey`` fan-out into partsupp: on ``DATABASE`` one
#: drawn pair cost 0.1–2.3 s and a run of 20 pairs 3–13 s (two-core host).
#: A third of the lines bounds that term; the small relations keep their
#: size, so their update rounds still hold rows.
RANDOM_BLOCKS_DATABASE = _thinned_lines(DATABASE, 3)


# ------------------------------------------------------------ the oracle check

def check_deltas(views, seed=0, database=DATABASE):
    """Engine δ == interpreted δ for every single-relation insert and delete,
    with one cache shared by all views per update, as in a refresh round.
    Returns the relations the views read."""
    relations = sorted({r for expression in views.values() for r in base_relations(expression)})
    deltas = uniform_deltas(database, 0.1, relations=relations, seed=seed)
    engine = DifferentialEngine(database)
    for relation in relations:
        for kind in (DeltaKind.INSERT, DeltaKind.DELETE):
            rows = deltas.relation_delta(relation, kind)
            cache = OldValueCache()
            for name, expression in views.items():
                if relation not in base_relations(expression):
                    continue
                vectorized = engine.differentiate(expression, relation, kind, rows, cache=cache)
                oracle = differentiate(expression, database, relation, kind, rows)
                context = f"{name} on {kind.name} {relation}"
                assert vectorized.inserts.same_bag(oracle.inserts), context
                assert vectorized.deletes.same_bag(oracle.deletes), context
    return relations


def check_views(views, rounds_seed=0, database=DATABASE):
    """:func:`check_deltas`, then three update rounds through a ViewRefresher
    leave every view equal to recomputation."""
    relations = check_deltas(views, rounds_seed, database)
    database = database.copy()
    refresher = ViewRefresher(database, views, verify_differentials=True)
    refresher.initialize_views()
    for round_number in range(3):
        batch = uniform_deltas(database, 0.05, relations=relations, seed=rounds_seed + round_number)
        refresher.refresh(batch)
    verification = refresher.verify_against_recomputation()
    assert all(verification.values()), verification


@st.composite
def join_views(draw):
    """A connected join block over the TPC-D join graph: 2–5 leaves, random
    association and operand order, an optional selection leaf and an
    optional SUM/COUNT aggregate on top."""
    size = draw(st.integers(min_value=2, max_value=5))
    chosen = [draw(st.sampled_from(RELATIONS))]
    while len(chosen) < size:
        frontier = sorted({n for r in chosen for n in NEIGHBOURS[r]} - set(chosen))
        chosen.append(draw(st.sampled_from(frontier)))
    selected = draw(st.sampled_from([None, *chosen]))

    def leaf(name):
        relation = BaseRelation(name)
        return Select(relation, PREDICATES[name]) if name == selected else relation

    parts = [(frozenset([name]), leaf(name)) for name in chosen]
    while len(parts) > 1:
        pairs = [
            (i, j)
            for i in range(len(parts))
            for j in range(len(parts))
            if i != j and any(_adjacent(a, b) for a in parts[i][0] for b in parts[j][0])
        ]
        i, j = draw(st.sampled_from(pairs))
        conditions = [
            join_condition(a, b)
            for a in sorted(parts[i][0])
            for b in sorted(parts[j][0])
            if _adjacent(a, b)
        ]
        merged = (parts[i][0] | parts[j][0], Join(parts[i][1], parts[j][1], conditions))
        parts = [part for k, part in enumerate(parts) if k not in (i, j)] + [merged]
    expression = parts[0][1]
    if draw(st.booleans()):
        group, summed = AGGREGATES[draw(st.sampled_from(chosen))]
        expression = Aggregate(
            expression,
            [group],
            [
                AggregateSpec(AggregateFunc.SUM, summed, "total"),
                AggregateSpec(AggregateFunc.COUNT, None, "n"),
            ],
        )
    return expression


@given(first=join_views(), second=join_views(), seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_random_join_blocks_match_the_oracle_and_recomputation(first, second, seed):
    check_views({"a": first, "b": second}, rounds_seed=seed, database=RANDOM_BLOCKS_DATABASE)


SELF_JOIN = Join(
    Join(C, N, [CN]),
    Project(Join(S, N, [join_condition("supplier", "nation")]), ["s_suppkey", "s_nationkey"]),
    [("n_nationkey", "s_nationkey")],
)
LATE_SHIPPING = gt("l_shipdate", "o_orderdate")


@pytest.mark.parametrize(
    "views",
    [
        # Self-join: nation occurs in two leaves, the second under a
        # projection, so no column name repeats.
        (SELF_JOIN, Join(SELF_JOIN.right, SELF_JOIN.left, SELF_JOIN.conditions)),
        # Residual: a non-equi predicate on one join of the block.  A δ on
        # customer reads old(L ⋈ O) in the first view and old(O ⋈ L) in
        # the second; a δ on nation probes old((L ⋈ O) ⋈ C) in the third
        # and old((O ⋈ L) ⋈ C) in the fourth on the same key position.
        # One canonical form each, two column orders.
        (
            Join(Join(L, O, [LO], LATE_SHIPPING), C, [OC]),
            Join(Join(O, L, [LO], LATE_SHIPPING), Join(C, N, [CN]), [OC]),
            Join(Join(Join(L, O, [LO], LATE_SHIPPING), C, [OC]), N, [CN]),
            Join(Join(Join(O, L, [LO], LATE_SHIPPING), C, [OC]), Join(N, R, [NR]), [CN]),
        ),
    ],
    ids=["self-join", "residual"],
)
def test_as_written_blocks_match_the_oracle_and_recomputation(views):
    check_views({f"v{i}": view for i, view in enumerate(views)})


@pytest.mark.parametrize("kind", [DeltaKind.INSERT, DeltaKind.DELETE], ids=["insert", "delete"])
@pytest.mark.parametrize("reversed_operands", [False, True], ids=["agg-right", "agg-left"])
def test_self_join_whose_sides_move_in_opposite_directions(kind, reversed_operands):
    """An insert into lineitem adds rows to ``O ⋈ L`` and replaces rows of
    the per-order aggregate (a delete and an insert per changed group):
    ``δ+E1 ⋈ δ−E2`` must land in neither bag.  Recomputed by the
    interpreter: the planner cannot join on one name used by two leaves."""
    per_order = Aggregate(
        L,
        ["l_orderkey"],
        [
            AggregateSpec(AggregateFunc.SUM, "l_quantity", "order_quantity"),
            AggregateSpec(AggregateFunc.COUNT, None, "order_lines"),
        ],
    )
    sides = (Join(O, L, [LO]), per_order)
    left, right = reversed(sides) if reversed_operands else sides
    view = Join(left, right, [("l_orderkey", "l_orderkey")])
    rows = uniform_deltas(DATABASE, 0.1, relations=["lineitem"], seed=4).relation_delta(
        "lineitem", kind
    )
    oracle = differentiate(view, DATABASE, "lineitem", kind, rows)
    vectorized = DifferentialEngine(DATABASE).differentiate(view, "lineitem", kind, rows)
    assert vectorized.inserts.same_bag(oracle.inserts)
    assert vectorized.deletes.same_bag(oracle.deletes)
    updated = DATABASE.copy()
    updated.apply_update("lineitem", kind, rows)
    old = evaluate(view, DATABASE)
    assert old.difference(oracle.deletes).union_all(oracle.inserts).same_bag(
        evaluate(view, updated)
    )
    assert not oracle.deletes.difference(old), "a delete matches no row of the old result"


# ------------------------------------------------------------------- routes

def _route(expression, relation):
    (plan,) = delta_join_plans(expression, relation, DATABASE.catalog)
    return plan.route


def test_routes_name_why_a_block_keeps_its_syntax_walk():
    for relation in ("lineitem", "customer"):
        assert _route(Join(Join(L, O, [LO]), C, [OC]), relation) == DELTA_FIRST
    # Bushy with the changed relation first: the walk would join old(O ⋈ C).
    assert _route(Join(L, Join(O, C, [OC]), [LO]), "lineitem") == DELTA_FIRST
    self_join = Join(
        Join(O, L, [LO]), Select(L, lt("l_quantity", 5.0)), [("l_orderkey", "l_orderkey")]
    )
    assert _route(self_join, "lineitem") == _route(self_join, "orders") == "as-written:self-join"
    assert _route(Join(L, O, [LO], gt("l_shipdate", "o_orderdate")), "orders") == (
        "as-written:residual"
    )
    assert _route(Join(L, C, []), "customer") == "as-written:cross-product"


def test_delta_first_tree_starts_at_the_changed_leaf_and_restores_column_order():
    block_top = Join(Join(Join(C, O, [OC]), L, [LO]), P, [LP])
    block = flatten_join_block(block_top)
    tree, positions = delta_first_join(block, 3, DATABASE.catalog)
    assert tree.canonical() == Join(Join(Join(P, L, [LP]), O, [LO]), C, [OC]).canonical()
    assert isinstance(tree.left.left.left, BaseRelation) and tree.left.left.left.name == "part"
    restored = reorder(evaluate(tree, DATABASE), positions)
    expected = evaluate(block_top, DATABASE)
    assert restored.schema.names == expected.schema.names
    assert restored.same_bag(expected)


def test_views_over_one_join_graph_share_delta_first_prefixes():
    # v06 and v10 join lineitem, orders and part in different orders; a δ on
    # part runs the same prefix δpart ⋈ lineitem for both.
    views = queries.large_view_set()
    plans = [
        delta_join_plans(views[name], "part", DATABASE.catalog)[0]
        for name in ("v06_part_lines", "v10_order_parts")
    ]
    assert [plan.describe() for plan in plans] == ["δpart ⋈ lineitem ⋈ orders"] * 2
    assert plans[0].tree.canonical() == plans[1].tree.canonical()
    # Among several connected leaves, the smallest canonical form joins next.
    (plan,) = delta_join_plans(views["v02_order_nations"], "customer", DATABASE.catalog)
    assert plan.describe() == "δcustomer ⋈ nation ⋈ orders ⋈ lineitem"


def _warehouse(views, profile="fast"):
    wh = Warehouse(WarehouseConfig.profile(profile)).load("tpcd", scale=0.1)
    wh.load_data(scale=0.002)
    wh.define_views(views)
    return wh


def test_every_step_of_the_tpcd_view_set_runs_delta_first():
    views = queries.large_view_set(with_aggregates=True)
    wh = _warehouse(views)
    reports = [wh.apply(0.05), wh.apply(0.05)]
    steps = [step for report in reports for step in report.steps]
    assert steps
    for step in steps:
        blocks = join_blocks(views[step.view], step.relation)
        assert step.delta_plans == (DELTA_FIRST,) * len(blocks), (step.view, step.relation)
    counts = reports[-1].delta_plan_counts()
    assert set(counts) == {DELTA_FIRST}
    assert all(wh.verify().values())


def test_explain_renders_the_delta_plan_of_every_base_relation():
    wh = Warehouse(WarehouseConfig.profile("fast")).load(scale=0.1)
    wh.define_views(queries.large_view_set())
    lines = wh.explain("v09_supply_lines").splitlines()
    start = lines.index("δ-plans:")
    assert lines[start + 1 : start + 4] == [
        "  lineitem: δlineitem ⋈ partsupp ⋈ supplier",
        "  partsupp: δpartsupp ⋈ lineitem ⋈ supplier",
        "  supplier: δsupplier ⋈ lineitem ⋈ partsupp",
    ]


# ------------------------------------------------------- orientation regression

CHEAP = lt("l_quantity", 10.0)
ORIENTATION_SETS = {
    # A stored L ⋈ O read back through the registry as O ⋈ L.
    "registry": {"v_lo": Join(L, O, [LO]), "v_olc": Join(Join(O, L, [LO]), C, [OC])},
    # One cache entry for L ⋈ O served to a view written O ⋈ L.
    "cache": {"v_loc": Join(Join(L, O, [LO]), C, [OC]), "v_olp": Join(Join(O, L, [LO]), P, [LP])},
}
#: Operators whose canonical forms hide the operand order of a join below.
#: Driven through the engine only: the physical planner conforms a set
#: operation's inputs to DAG representatives, whose operand order may not be
#: the written one, so a stored view of either set can be wrong from its
#: first evaluation (an open defect; see ROADMAP).
OPERATOR_SETS = {
    "difference": {
        "v_lo": Difference(Join(L, O, [LO]), Select(Join(L, O, [LO]), CHEAP)),
        "v_ol": Difference(Join(O, L, [LO]), Select(Join(O, L, [LO]), CHEAP)),
    },
    "union": {
        "v_lo": UnionAll([Join(L, O, [LO]), Select(Join(L, O, [LO]), CHEAP)]),
        "v_ol": UnionAll([Join(O, L, [LO]), Select(Join(O, L, [LO]), CHEAP)]),
    },
}


@pytest.mark.parametrize("profile", ["fast", "verify"])
@pytest.mark.parametrize("view_set", sorted(ORIENTATION_SETS))
def test_operand_order_never_reaches_a_stored_view(view_set, profile):
    wh = _warehouse(ORIENTATION_SETS[view_set], profile)
    for _ in range(2):
        report = wh.apply(0.05)
        assert report.recomputed_views == []
    assert wh.verify() == {name: True for name in ORIENTATION_SETS[view_set]}


@pytest.mark.parametrize("view_set", sorted(OPERATOR_SETS))
def test_operand_order_below_difference_and_union_never_reaches_a_cached_delta(view_set):
    check_deltas(OPERATOR_SETS[view_set])


def test_oriented_form_keeps_operand_and_column_order():
    total = AggregateSpec(AggregateFunc.SUM, "l_quantity", "q")
    count = AggregateSpec(AggregateFunc.COUNT, None, "n")
    flag = ["l_returnflag"]
    lo, ol = Join(L, O, [LO]), Join(O, L, [LO])
    pairs = [
        (lo, ol),
        *(tuple(views.values()) for views in OPERATOR_SETS.values()),
        # A positional union of two orientations takes the first one's order.
        (UnionAll([lo, ol]), UnionAll([ol, lo])),
        (Aggregate(L, flag, [total, count]), Aggregate(L, flag, [count, total])),
    ]
    for first, second in pairs:
        assert first.canonical() == second.canonical()
        assert oriented_form(first) != oriented_form(second)
    # The order of a condition's columns does not change the column order.
    assert oriented_form(Join(L, O, [LO])) == oriented_form(Join(L, O, [LO[::-1]]))


def test_registry_serves_a_stored_view_only_in_its_own_column_order():
    from repro.engine.executor import MaterializedRegistry
    from repro.engine.physical import PhysicalExecutor

    database = DATABASE.copy()
    stored = Join(L, O, [LO])
    database.materialize_view("v_lo", evaluate(stored, database))
    registry = MaterializedRegistry()
    registry.register(stored, "v_lo")
    asked = Join(O, L, [LO])
    assert registry.lookup(asked) == "v_lo"
    assert registry.view_of(stored, database) == "v_lo"
    assert registry.view_of(asked, database) is None
    expected = evaluate(asked, database)
    for result in (
        evaluate(asked, database, registry),
        PhysicalExecutor(database).evaluate(asked, registry),
    ):
        assert result.schema.names == expected.schema.names
        assert result.same_bag(expected)
