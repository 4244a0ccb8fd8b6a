"""Tests of the Database facade."""

import pytest

from repro import Machine, tiny_intel
from repro.db import Database, mysql_like, postgres_like, sqlite_like
from repro.db.exprs import Col
from repro.db.planner import Distinct, Filter, Join, Project, Scan, Sort
from repro.db.table import ClusteredTable, HeapTable
from repro.db.types import Column, INT, Schema
from repro.errors import CatalogError

SCHEMA = Schema([Column("k", INT), Column("v", INT)])
ROWS = [(i, i * i) for i in range(50)]


class TestCreateTable:
    def test_heap_for_postgres(self):
        db = Database(Machine(tiny_intel()), postgres_like())
        table = db.create_table("t", SCHEMA, ROWS)
        assert isinstance(table.storage, HeapTable)
        assert table.n_rows == 50

    def test_clustered_for_sqlite(self):
        db = Database(Machine(tiny_intel()), sqlite_like())
        table = db.create_table("t", SCHEMA, ROWS)
        assert isinstance(table.storage, ClusteredTable)

    def test_clustered_sorts_by_pk(self):
        db = Database(Machine(tiny_intel()), mysql_like())
        shuffled = list(reversed(ROWS))
        db.create_table("t", SCHEMA, shuffled, primary_key="k")
        got = [r for r, _ in db.catalog.table("t").storage.seq_scan((0,))]
        assert got == ROWS

    def test_heap_gets_pk_index(self):
        db = Database(Machine(tiny_intel()), postgres_like())
        table = db.create_table("t", SCHEMA, ROWS, primary_key="k")
        assert table.index_on("k") is not None

    def test_secondary_index(self):
        db = Database(Machine(tiny_intel()), sqlite_like())
        table = db.create_table("t", SCHEMA, ROWS, indexes=["v"])
        index = table.index_on("v")
        assert index is not None
        assert index.via_primary_key  # clustered: payload is the PK

    def test_duplicate_table_rejected(self):
        db = Database(Machine(tiny_intel()), postgres_like())
        db.create_table("t", SCHEMA, ROWS)
        with pytest.raises(CatalogError):
            db.create_table("t", SCHEMA, ROWS)


class TestExecute:
    def test_execute_and_sink(self):
        db = Database(Machine(tiny_intel()), sqlite_like())
        db.create_table("t", SCHEMA, ROWS)
        out = db.execute(Scan("t"))
        assert sorted(out) == ROWS
        assert db._sink.rows_emitted >= 50

    def test_explain(self):
        db = Database(Machine(tiny_intel()), postgres_like())
        db.create_table("t", SCHEMA, ROWS)
        text = db.explain(Sort(Scan("t"), ((Col("v"), True),)))
        assert "Sort" in text and "SeqScan" in text

    @pytest.mark.parametrize("profile, join_lines", [
        (sqlite_like, ["        IndexNLJoin[inner](u.uk)",
                       "          SeqScan(t)"]),
        (postgres_like, ["        HashJoin[inner]",
                         "          SeqScan(t)",
                         "          SeqScan(u)"]),
    ])
    def test_explain_indents_every_operator(self, profile, join_lines):
        db = Database(Machine(tiny_intel()), profile())
        db.create_table("t", SCHEMA, ROWS)
        db.create_table("u", Schema([Column("uk", INT), Column("w", INT)]),
                        [(i, i % 5) for i in range(50)], primary_key="uk")
        join = Join(Scan("t"), Scan("u"), Col("v"), Col("uk"))
        plan = Sort(Distinct(Project(Filter(join, Col("w") > 1),
                                     (("w", Col("w")),))),
                    ((Col("w"), False),), 3)
        assert db.explain(plan).splitlines() == [
            "TopNHeap(1 keys, n=3)",
            "  Distinct",
            "    Project(w)",
            "      Filter",
        ] + join_lines

    def test_clear_caches_forces_disk(self):
        machine = Machine(tiny_intel())
        db = Database(machine, postgres_like())
        db.create_table("t", SCHEMA, ROWS)
        db.execute(Scan("t"))          # warm the pool
        machine.reset_measurements()
        db.execute(Scan("t"))
        assert machine.idle_s == 0.0   # all hits
        db.clear_caches()
        machine.reset_measurements()
        db.execute(Scan("t"))
        assert machine.idle_s > 0.0    # cold again

    def test_set_state_region_keeps_overflow(self):
        machine = Machine(tiny_intel())
        db = Database(machine, sqlite_like())
        old = db.state_region
        new = machine.address_space.alloc(1024, "new-state")
        db.set_state_region(new)
        assert db.state_region is new
        assert db.state_overflow_region is old
