"""Property-based tests: physical execution ≡ logical interpretation.

For randomly generated databases, update batches and view shapes, the
physical executor (optimizer-extracted plans compiled to vectorized
operators, with no interpreter fallback) must produce
exactly the same bags as the logical interpreter — before an update batch,
and again after the batch is applied to the base tables.  This is the
invariant that lets the physical layer execute the plans the optimizer
picks while ``evaluate`` stays the correctness oracle.
"""

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
)
from repro.algebra.predicates import gt, le
from repro.catalog.schema import Schema, TableDef
from repro.engine.database import Database
from repro.engine.executor import evaluate
from repro.engine.physical import PhysicalExecutor
from repro.storage.delta import DeltaKind
from repro.storage.relation import Relation

FACT_SCHEMA = Schema.from_names(["f_id", "dim_id", "value"])
DIM_SCHEMA = Schema.from_names(["d_id", "d_group"])

fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=0,
    max_size=25,
)
dim_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=2)),
    min_size=0,
    max_size=8,
)
updated_relation = st.sampled_from(["fact", "dim"])
update_kind = st.sampled_from([DeltaKind.INSERT, DeltaKind.DELETE])


def make_database(facts, dims):
    database = Database()
    database.create_table(TableDef("fact", FACT_SCHEMA, ()), facts)
    database.create_table(TableDef("dim", DIM_SCHEMA, ()), dims)
    return database


def view_expressions():
    join = Join(BaseRelation("fact"), BaseRelation("dim"), [("dim_id", "d_id")])
    return [
        join,
        Select(join, gt("value", 40)),
        Project(join, ["d_group", "value"]),
        Aggregate(
            join,
            ["d_group"],
            [
                AggregateSpec(AggregateFunc.SUM, "value", "total"),
                AggregateSpec(AggregateFunc.COUNT, None, "n"),
                AggregateSpec(AggregateFunc.MAX, "value", "peak"),
            ],
        ),
        Aggregate(BaseRelation("fact"), [], [AggregateSpec(AggregateFunc.COUNT, None, "n")]),
        Distinct(Project(join, ["d_group"])),
        UnionAll(
            [
                Project(Select(join, gt("value", 60)), ["f_id", "value"]),
                Project(Select(join, le("value", 60)), ["f_id", "value"]),
            ]
        ),
        Difference(
            Project(BaseRelation("fact"), ["dim_id"]),
            Project(BaseRelation("dim"), ["d_id"]),
        ),
    ]


VIEW_COUNT = len(view_expressions())


def pick_delta(database, relation, kind, draw_rows):
    schema = database.table(relation).schema
    if kind is DeltaKind.DELETE:
        existing = database.table(relation).rows
        return Relation(schema, existing[: max(0, min(len(existing), len(draw_rows)))])
    if relation == "fact":
        rows = [(100 + i, r[1], r[2]) for i, r in enumerate(draw_rows)]
    else:
        rows = [(r[0], r[1] % 3) for r in draw_rows][:4]
    return Relation(schema, [row[: len(schema)] for row in rows])


@given(
    facts=fact_rows,
    dims=dim_rows,
    extra=fact_rows,
    relation=updated_relation,
    kind=update_kind,
    view_index=st.integers(min_value=0, max_value=VIEW_COUNT - 1),
)
@settings(max_examples=120, deadline=None)
def test_physical_execution_equals_interpreter(facts, dims, extra, relation, kind, view_index):
    database = make_database(facts, dims)
    expression = view_expressions()[view_index]
    executor = PhysicalExecutor(database)

    before_logical = evaluate(expression, database)
    before_physical = executor.evaluate(expression)
    assert before_physical.same_bag(before_logical)
    assert before_physical.schema.names == before_logical.schema.names

    # Apply a random single-relation update batch and compare again: the
    # physical path must track base-table mutations exactly like the
    # interpreter (fresh executor, since statistics changed).
    delta_rows = pick_delta(database, relation, kind, extra)
    database.apply_update(relation, kind, delta_rows)
    after_logical = evaluate(expression, database)
    after_physical = PhysicalExecutor(database).evaluate(expression)
    assert after_physical.same_bag(after_logical)


@given(facts=fact_rows, dims=dim_rows)
@settings(max_examples=40, deadline=None)
def test_physical_respects_materialized_reuse(facts, dims):
    """A registered shared result is read, not recomputed, by the physical plan."""
    from repro.engine.executor import MaterializedRegistry

    database = make_database(facts, dims)
    join = Join(BaseRelation("fact"), BaseRelation("dim"), [("dim_id", "d_id")])
    registry = MaterializedRegistry()
    contents = evaluate(join, database)
    database.materialize_view("t_join", contents)
    registry.register(join, "t_join")

    expression = Select(join, gt("value", 40))
    logical = evaluate(expression, database, registry)
    physical = PhysicalExecutor(database).evaluate(expression, registry)
    assert physical.same_bag(logical)
