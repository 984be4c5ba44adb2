"""Unit tests for the system catalog."""

import pytest

from repro.catalog.catalog import Catalog, CatalogError, IndexDef
from repro.catalog.schema import Schema, TableDef
from repro.catalog.statistics import TableStats


@pytest.fixture
def catalog():
    cat = Catalog()
    schema = Schema.from_names(["o_orderkey", "o_custkey"])
    cat.register_table(
        TableDef("orders", schema, ("o_orderkey",), (("o_custkey", "customer", "c_custkey"),)),
        TableStats(1000.0, 16),
        create_pk_index=True,
    )
    return cat


def test_register_and_lookup_table(catalog):
    assert catalog.has_table("orders")
    assert catalog.table("orders").name == "orders"
    assert catalog.schema("orders").names == ("o_orderkey", "o_custkey")


def test_unknown_table_raises(catalog):
    with pytest.raises(CatalogError):
        catalog.table("missing")
    with pytest.raises(CatalogError):
        catalog.register_table_stats("missing", TableStats(1.0, 1))


def test_stats_lookup_and_default(catalog):
    assert catalog.stats("orders").cardinality == 1000.0
    schema = Schema.from_names(["x"])
    catalog.register_table(TableDef("nostats", schema))
    assert catalog.stats("nostats").cardinality > 0


def test_pk_index_created_on_registration(catalog):
    assert catalog.has_index_on("orders", ["o_orderkey"])
    assert len(catalog.indexes("orders")) == 1


def test_register_index_deduplicates(catalog):
    index = IndexDef("orders", ("o_custkey",), kind="hash")
    catalog.register_index(index)
    catalog.register_index(index)
    assert len(catalog.indexes("orders")) == 2


def test_drop_index(catalog):
    index = IndexDef("orders", ("o_custkey",), kind="hash")
    catalog.register_index(index)
    catalog.drop_index(index)
    assert not catalog.has_index_on("orders", ["o_custkey"])


def test_index_counts_follow_register_and_drop(catalog):
    def recount(cat):
        counts = {}
        for idx in cat.all_indexes():
            counts[idx.table] = counts.get(idx.table, 0) + 1
        return counts

    assert dict(catalog.index_counts()) == recount(catalog) == {"orders": 1}
    extra = IndexDef("orders", ("o_custkey",), kind="hash")
    catalog.register_index(extra)
    assert dict(catalog.index_counts()) == recount(catalog) == {"orders": 2}
    catalog.register_index(extra)  # a duplicate is ignored
    assert dict(catalog.index_counts()) == {"orders": 2}
    clone = catalog.copy()
    catalog.drop_index(extra)
    assert dict(catalog.index_counts()) == recount(catalog) == {"orders": 1}
    assert dict(clone.index_counts()) == recount(clone) == {"orders": 2}
    with pytest.raises(TypeError):
        catalog.index_counts()["orders"] = 5


def test_has_index_on_prefix_match(catalog):
    catalog.register_index(IndexDef("orders", ("o_custkey", "o_orderkey")))
    assert catalog.has_index_on("orders", ["o_custkey"])
    assert not catalog.has_index_on("orders", ["o_missing"])


def test_index_name_is_deterministic():
    index = IndexDef("orders", ("orders.o_custkey",))
    assert index.name == "idx_orders_o_custkey"


def test_foreign_keys_enumeration(catalog):
    assert catalog.foreign_keys() == [("orders", "o_custkey", "customer", "c_custkey")]


def test_copy_is_independent(catalog):
    clone = catalog.copy()
    clone.register_index(IndexDef("orders", ("o_custkey",)))
    assert not catalog.has_index_on("orders", ["o_custkey"])
    assert clone.has_index_on("orders", ["o_custkey"])


def test_scale_statistics(catalog):
    catalog.scale_statistics(0.5)
    assert catalog.stats("orders").cardinality == pytest.approx(500.0)
