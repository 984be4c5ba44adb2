"""Unit tests for the Database runtime container."""

import pytest

from repro.catalog.catalog import IndexDef
from repro.catalog.schema import Schema, TableDef
from repro.engine.database import Database, DatabaseError
from repro.storage.delta import Delta, DeltaKind
from repro.storage.relation import Relation


def test_create_and_lookup_table(star_database):
    assert star_database.has_relation("sales")
    assert len(star_database.table("sales")) == 6
    assert set(star_database.table_names()) == {"sales", "products", "stores"}


def test_missing_relation_raises(star_database):
    with pytest.raises(DatabaseError):
        star_database.table("missing")
    with pytest.raises(DatabaseError):
        star_database.view("missing")


def test_load_table_replaces_contents_and_stats(star_database):
    schema = star_database.table("products").schema
    star_database.load_table("products", Relation(schema, [(99, "only", "misc", 1.0)]))
    assert len(star_database.table("products")) == 1
    assert star_database.catalog.stats("products").cardinality == 1.0


def test_load_unknown_table_raises(star_database):
    with pytest.raises(DatabaseError):
        star_database.load_table("nope", Relation(Schema.from_names(["x"]), []))


def test_materialize_and_drop_view(star_database):
    view = Relation(Schema.from_names(["x"]), [(1,)])
    star_database.materialize_view("v", view)
    assert star_database.has_view("v")
    assert star_database.view_names() == ["v"]
    assert star_database.table("v") is view  # views resolvable as relations
    star_database.drop_view("v")
    assert not star_database.has_view("v")


def test_apply_update_insert_and_delete(star_database):
    schema = star_database.table("stores").schema
    star_database.apply_update("stores", DeltaKind.INSERT, Relation(schema, [(103, "newtown", "east")]))
    assert len(star_database.table("stores")) == 4
    star_database.apply_update("stores", DeltaKind.DELETE, Relation(schema, [(103, "newtown", "east")]))
    assert len(star_database.table("stores")) == 3


def test_apply_delta_applies_inserts_then_deletes(star_database):
    schema = star_database.table("stores").schema
    delta = Delta(
        "stores",
        inserts=Relation(schema, [(104, "x", "y")]),
        deletes=Relation(schema, [(100, "springfield", "north")]),
    )
    star_database.apply_delta(delta)
    keys = {row[0] for row in star_database.table("stores")}
    assert 104 in keys and 100 not in keys


def test_update_view_merges_differential(star_database):
    schema = Schema.from_names(["k"])
    star_database.materialize_view("v", Relation(schema, [(1,), (2,)]))
    star_database.update_view("v", inserts=Relation(schema, [(3,)]), deletes=Relation(schema, [(1,)]))
    assert sorted(star_database.view("v").rows) == [(2,), (3,)]


def test_indexes_rebuilt_after_update(star_database):
    index = star_database.index_for("sales", ["sale_id"])
    assert index is not None
    schema = star_database.table("sales").schema
    star_database.apply_update("sales", DeltaKind.INSERT, Relation(schema, [(7, 10, 100, 1, 5.0)]))
    rebuilt = star_database.index_for("sales", ["sale_id"])
    assert rebuilt.lookup((7,))


def test_statistics_refresh_on_update(star_database):
    schema = star_database.table("sales").schema
    before = star_database.catalog.stats("sales").cardinality
    star_database.apply_update("sales", DeltaKind.INSERT, Relation(schema, [(8, 10, 100, 1, 5.0)]))
    assert star_database.catalog.stats("sales").cardinality == before + 1


def test_copy_is_deep_for_contents(star_database):
    clone = star_database.copy()
    schema = clone.table("sales").schema
    clone.apply_update("sales", DeltaKind.INSERT, Relation(schema, [(9, 10, 100, 1, 5.0)]))
    assert len(clone.table("sales")) == len(star_database.table("sales")) + 1


def test_build_index_registers_in_catalog(star_database):
    star_database.build_index(IndexDef("sales", ("product_id",), kind="hash"))
    assert star_database.catalog.has_index_on("sales", ["product_id"])
    assert star_database.index_for("sales", ["product_id"]) is not None


def test_rematerializing_a_view_rebuilds_its_indexes(star_database):
    from repro.catalog.catalog import IndexDef
    from repro.storage.relation import Relation

    sales = star_database.table("sales")
    star_database.materialize_view("v_idx", Relation(sales.schema, sales.rows[:2]))
    star_database.build_index(IndexDef("v_idx", ("sale_id",), kind="hash"))
    replacement = Relation(sales.schema, [(99, 1, 1, 1, 1.0)])
    star_database.materialize_view("v_idx", replacement)
    index = star_database.index_for("v_idx", ["sale_id"])
    assert index is not None
    assert index.lookup((99,)) == [(99, 1, 1, 1, 1.0)]
    assert index.lookup((1,)) == []


def test_load_table_rebuilds_indexes(star_database):
    from repro.storage.relation import Relation

    sales = star_database.table("sales")
    replacement = Relation(sales.schema, [(50, 1, 1, 1, 1.0)])
    star_database.load_table("sales", replacement)
    index = star_database.index_for("sales", ["sale_id"])
    assert index is not None
    assert index.lookup((50,)) == [(50, 1, 1, 1, 1.0)]
    assert index.lookup((1,)) == []


# ------------------------------------------- incremental index maintenance
#
# apply_update/update_view maintain indexes from the delta bags; after any
# sequence of updates, every index must answer probes exactly like one
# rebuilt from the final contents.


def assert_indexes_match_rebuild(database, name, columns, probe_keys):
    from repro.storage.index import build_index

    index = database.index_for(name, columns)
    assert index is not None
    rebuilt = build_index(database.table(name), columns, kind="hash")
    for key in probe_keys:
        assert sorted(index.lookup(key)) == sorted(rebuilt.lookup(key))
    assert len(index) == len(database.table(name))


def test_apply_update_maintains_indexes_incrementally(star_database):
    star_database.build_index(IndexDef("sales", ("product_id",), kind="hash"))
    schema = star_database.table("sales").schema
    star_database.apply_update(
        "sales", DeltaKind.INSERT, Relation(schema, [(7, 10, 100, 1, 5.0)])
    )
    index_after_insert = star_database.index_for("sales", ["product_id"])
    star_database.apply_update(
        "sales", DeltaKind.DELETE, Relation(schema, [(1, 10, 100, 2, 20.0)])
    )
    # The index object must have been maintained in place, not rebuilt.
    assert star_database.index_for("sales", ["product_id"]) is index_after_insert
    assert_indexes_match_rebuild(
        star_database, "sales", ["product_id"], [(10,), (11,), (12,), (99,)]
    )
    # Both index kinds stay correct (the PK index on sale_id is a btree).
    btree = star_database.index_for("sales", ["sale_id"])
    assert btree.lookup((7,)) == [(7, 10, 100, 1, 5.0)]
    assert btree.lookup((1,)) == []


def test_large_delta_is_maintained_incrementally(star_database):
    star_database.build_index(IndexDef("stores", ("st_id",), kind="hash"))
    before = star_database.index_for("stores", ["st_id"])
    schema = star_database.table("stores").schema
    big = Relation(schema, [(200 + i, f"town{i}", "west") for i in range(10)])
    star_database.apply_update("stores", DeltaKind.INSERT, big)
    # An insert several times the relation's size is still spliced in.
    assert star_database.index_for("stores", ["st_id"]) is before
    assert before.lookup((205,)) == [(205, "town5", "west")]
    assert_indexes_match_rebuild(
        star_database, "stores", ["st_id"], [(1,), (200,), (205,), (209,), (999,)]
    )


@pytest.mark.parametrize("kind", ["hash", "btree"])
def test_insert_into_an_empty_indexed_view_is_maintained_incrementally(star_database, kind):
    sales = star_database.table("sales")
    star_database.materialize_view("v_empty", Relation(sales.schema, []))
    star_database.build_index(IndexDef("v_empty", ("product_id",), kind=kind))
    before = star_database.index_for("v_empty", ["product_id"])
    star_database.update_view("v_empty", inserts=Relation(sales.schema, sales.rows))
    assert star_database.index_for("v_empty", ["product_id"]) is before
    assert_indexes_match_rebuild(
        star_database, "v_empty", ["product_id"], [(10,), (11,), (12,), (99,)]
    )


def test_update_view_maintains_view_indexes(star_database):
    sales = star_database.table("sales")
    star_database.materialize_view("v_sales", Relation(sales.schema, sales.rows))
    star_database.build_index(IndexDef("v_sales", ("product_id",), kind="hash"))
    star_database.update_view(
        "v_sales",
        inserts=Relation(sales.schema, [(7, 13, 100, 1, 5.0)]),
        deletes=Relation(sales.schema, [(1, 10, 100, 2, 20.0)]),
    )
    assert_indexes_match_rebuild(
        star_database, "v_sales", ["product_id"], [(10,), (13,), (99,)]
    )


# -------------------------------------------------------- view statistics


def test_view_statistics_follow_delta_merges(star_database):
    schema = Schema.from_names(["k"])
    star_database.materialize_view("v_stats", Relation(schema, [(1,), (2,)]))
    stats = star_database.catalog.view_stats("v_stats")
    assert stats is not None and stats.cardinality == 2.0
    star_database.update_view(
        "v_stats", inserts=Relation(schema, [(3,), (4,)]), deletes=Relation(schema, [(1,)])
    )
    assert star_database.catalog.view_stats("v_stats").cardinality == 3.0
    star_database.drop_view("v_stats")
    assert star_database.catalog.view_stats("v_stats") is None


def test_base_table_cardinality_tracks_updates_cheaply(star_database):
    schema = star_database.table("sales").schema
    full = star_database.catalog.stats("sales")
    star_database.apply_update(
        "sales", DeltaKind.INSERT, Relation(schema, [(8, 10, 100, 1, 5.0)])
    )
    refreshed = star_database.catalog.stats("sales")
    assert refreshed.cardinality == full.cardinality + 1
    # Column distributions are maintained incrementally from the delta bag:
    # the inserted amount of 5.0 widens the min bound and lands in the
    # histogram, whose total tracks the new cardinality.
    assert refreshed.column("amount").min_value == 5.0
    assert refreshed.column("amount").max_value == full.column("amount").max_value
    histogram = refreshed.column("amount").histogram
    assert histogram is not None
    assert histogram.total == full.column("amount").histogram.total + 1


# ---------------------------------------------------- vectorized delete path
#
# The keep-mask kernel lives in ``repro.storage.bagdiff``; ``Database`` only
# stores what ``Relation.difference_mask`` / ``masked`` hand back.  The
# ``test_codes_*`` ids name the factorized-codes route that once took
# these inputs; ``store_keep_mask`` now hashes them, and the ids are kept
# stable.

from repro.storage import bagdiff  # noqa: E402
from repro.storage.bagdiff import multiset_subtract  # noqa: E402
from repro.storage.columns import NumpyColumnStore  # noqa: E402


def _store_and_deletes(names, rows, deletes):
    schema = Schema.from_names(names)
    return NumpyColumnStore.from_rows(rows, len(names)), Relation(schema, deletes)


def _subtract_via_mask(names, rows, deletes):
    """Survivors under the columnar keep-mask (``None`` mask: nothing matched)."""
    keep = bagdiff.store_keep_mask(*_store_and_deletes(names, rows, deletes))
    if keep is None:
        return list(rows)
    return [row for row, kept in zip(rows, keep) if kept]


def test_codes_mask_handles_string_only_keys():
    # No numeric column to narrow on: the whole store is hashed.
    rows = [("fr", "a"), ("de", "b"), ("fr", "a"), ("us", "c")]
    deletes = [("fr", "a"), ("us", "c")]
    assert _subtract_via_mask(["k", "v"], rows, deletes) == multiset_subtract(
        rows, deletes
    )


def test_codes_mask_removes_one_copy_per_match_in_first_match_order():
    rows = [("x", 1), ("x", 1), ("x", 1), ("y", 2)]
    deletes = [("x", 1), ("x", 1)]
    result = _subtract_via_mask(["k", "n"], rows, deletes)
    assert result == multiset_subtract(rows, deletes)
    assert result == [("x", 1), ("y", 2)]


def test_codes_mask_over_delete_removes_every_copy():
    rows = [("x", 1), ("x", 1)]
    deletes = [("x", 1)] * 5
    assert _subtract_via_mask(["k", "n"], rows, deletes) == []


def test_codes_mask_matches_ints_against_floats():
    # multiset_subtract hashes 1 == 1.0 equal; isin over an int column with
    # float probes must agree.
    rows = [(1, "a"), (2, "b"), (3, "c")]
    deletes = [(1.0, "a")]
    assert _subtract_via_mask(["n", "v"], rows, deletes) == multiset_subtract(
        rows, deletes
    )


def test_codes_mask_falls_back_on_none_values():
    # None beside strings is an object column numpy cannot order; hashing
    # needs no order, and None equals None as in the Counter loop.
    rows = [("a", None), ("b", "x")]
    deletes = [("a", None)]
    assert _subtract_via_mask(["k", "v"], rows, deletes) == [("b", "x")]


def test_codes_mask_falls_back_on_nan_probes():
    # NaN breaks equality-by-value: the Counter loop never matches it, and
    # neither may isin or the hash over a store's fresh float objects.
    rows = [(1.5, "a"), (2.5, "b")]
    deletes = [(float("nan"), "a")]
    assert _subtract_via_mask(["n", "v"], rows, deletes) == rows


def test_codes_route_taken_when_narrowing_stays_wide():
    # Every row shares the numeric value, so isin-narrowing cannot shrink
    # the candidate set; hashing all 64 must still subtract exactly.
    rows = [(7, f"s{i % 3}") for i in range(64)]
    deletes = [(7, "s0"), (7, "s1")]
    assert _subtract_via_mask(["n", "v"], rows, deletes) == multiset_subtract(
        rows, deletes
    )


def test_vector_mask_empty_delta_keeps_everything():
    rows = [("a", 1), ("b", 2)]
    store, deletes = _store_and_deletes(["k", "n"], rows, [])
    assert bagdiff.store_keep_mask(store, deletes) is None


# ------------------------------------- indexes follow the mask-derived remap

_INDEXES = ((("k",), "hash"), (("v",), "btree"))


def _indexed_database(rows):
    from repro.catalog.schema import TableDef

    schema = Schema.from_names(["k", "v"])
    db = Database()
    db.create_table(TableDef("t", schema), rows)
    for columns, kind in _INDEXES:
        db.build_index(IndexDef("t", columns, kind=kind))
    return db, schema


def _assert_every_index_matches_rebuild(db, probes):
    from repro.storage.index import build_index

    table = db.table("t")
    for columns, kind in _INDEXES:
        built = db.index_for("t", columns)
        fresh = build_index(table, columns, kind=kind)
        assert len(built) == len(fresh) == len(table)
        assert built.distinct_keys == fresh.distinct_keys
        for probe in probes:
            assert built.lookup((probe,)) == fresh.lookup((probe,)), (kind, probe)
        if kind == "btree":
            assert list(built.scan_sorted()) == list(fresh.scan_sorted())


@pytest.mark.parametrize("size", [12, 5000], ids=["counter-loop", "vector-kernel"])
def test_indexes_answer_like_rebuilt_after_delete(size):
    rows = [(i % 7, i) for i in range(size)]
    db, schema = _indexed_database(rows)
    maintained = [db.index_for("t", columns) for columns, _ in _INDEXES]
    deletes = [(3, 3), (0, 7), (3, 3), (6, 99999)]  # a duplicate and a phantom
    db.apply_update("t", DeltaKind.DELETE, Relation(schema, deletes))
    assert db.table("t").rows == multiset_subtract(rows, deletes)
    # Remapped in place from the keep-mask, not rebuilt.
    assert [db.index_for("t", columns) for columns, _ in _INDEXES] == maintained
    _assert_every_index_matches_rebuild(db, probes=[0, 3, 6, 7, 99999])


def test_copy_clones_indexes_that_stay_equal_to_a_rebuild():
    """``copy()`` is the transactional snapshot: what a rollback makes live."""
    rows = [(i % 7, i) for i in range(40)]
    db, schema = _indexed_database(rows)
    snapshot = db.copy()
    for columns, _ in _INDEXES:
        assert snapshot.index_for("t", columns) is not db.index_for("t", columns)
    # The failed batch maintains the original's indexes; the snapshot's must
    # not move, and must keep working for the batches after the rollback.
    db.apply_update("t", DeltaKind.INSERT, Relation(schema, [(3, -5), (8, 100)]))
    db.apply_update("t", DeltaKind.DELETE, Relation(schema, [(3, 3), (0, 7)]))
    assert snapshot.table("t").rows == rows
    _assert_every_index_matches_rebuild(snapshot, probes=[0, 3, 7, 8, -5, 100])
    snapshot.apply_update("t", DeltaKind.INSERT, Relation(schema, [(5, 500)]))
    snapshot.apply_update("t", DeltaKind.DELETE, Relation(schema, [(1, 1)]))
    _assert_every_index_matches_rebuild(snapshot, probes=[1, 5, 500])
    _assert_every_index_matches_rebuild(db, probes=[0, 3, 7, 8, -5, 100])


@pytest.mark.parametrize("size", [12, 5000], ids=["counter-loop", "vector-kernel"])
def test_indexes_retargeted_when_delete_matches_nothing(size):
    rows = [(i % 7, i) for i in range(size)]
    db, schema = _indexed_database(rows)
    before = db.table("t")
    db.apply_update("t", DeltaKind.DELETE, Relation(schema, [(99, -1)]))
    assert db.table("t") is not before and db.table("t").rows == rows
    _assert_every_index_matches_rebuild(db, probes=[0, 3, 6, 99])
    # Positions are still valid for the next incremental step.
    db.apply_update("t", DeltaKind.INSERT, Relation(schema, [(3, -5)]))
    db.apply_update("t", DeltaKind.DELETE, Relation(schema, [(3, 3)]))
    _assert_every_index_matches_rebuild(db, probes=[0, 3, -5])
