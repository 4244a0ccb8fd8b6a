"""Tests of the sampled table statistics (``repro.db.stats``)."""

import pytest

from repro import Machine, tiny_intel
from repro.db import Database, postgres_like
from repro.db.stats import SAMPLE_TARGET, Statistics, collect
from repro.workloads.tpch import TpchData, load_into


@pytest.fixture(scope="module")
def db():
    machine = Machine(tiny_intel())
    db = Database(machine, postgres_like(), name="stats-db")
    load_into(db, TpchData("10MB", seed=20200330))
    return db


@pytest.fixture(scope="module")
def stats(db):
    return Statistics(db.catalog)


class TestCollection:
    def test_sample_bounded(self, db):
        for name in ("lineitem", "orders", "customer"):
            ts = collect(db.catalog.table(name))
            assert 0 < ts.sampled <= 2 * SAMPLE_TARGET
            assert ts.n_rows == db.catalog.table(name).storage.n_rows

    def test_small_table_sampled_fully(self, db):
        ts = collect(db.catalog.table("customer"))
        if ts.n_rows <= SAMPLE_TARGET:
            assert ts.sampled == ts.n_rows
            assert len(ts.rows) == ts.n_rows

    def test_collection_leaves_machine_counters_alone(self, db):
        before = db.machine.cpu.counters.as_dict()
        collect(db.catalog.table("lineitem"))
        assert db.machine.cpu.counters.as_dict() == before

    def test_memoised_and_invalidated(self, stats):
        first = stats.table("orders")
        assert stats.table("orders") is first
        stats.invalidate("orders")
        assert stats.table("orders") is not first


class TestSelectivity:
    def test_range_selectivity_tracks_actual_fraction(self, db, stats):
        table = db.catalog.table("lineitem")
        idx = table.schema.index_of("l_quantity")
        rows = list(table.storage.peek_rows())
        actual = sum(1 for r in rows if r[idx] <= 25) / len(rows)
        cs = stats.table("lineitem").column("l_quantity")
        est = cs.range_selectivity(hi=25)
        assert est == pytest.approx(actual, abs=0.1)

    def test_eq_selectivity_of_unseen_value_uses_distinct(self, stats):
        cs = stats.table("orders").column("o_orderkey")
        est = cs.eq_selectivity(-1)
        assert est is not None
        assert 0 < est <= 1.0 / max(cs.n_distinct, 1) + 1e-12

    def test_uncomparable_value_returns_none(self, stats):
        cs = stats.table("orders").column("o_orderkey")
        assert cs.eq_selectivity(object()) is None


class TestSampleJoin:
    def test_unfiltered_fk_join_estimates_fact_side(self, db, stats):
        from repro.db.exprs import Col

        est = stats.sample_join_rows(
            "orders", None, Col("o_custkey"),
            "customer", None, Col("c_custkey"),
        )
        n_orders = db.catalog.table("orders").storage.n_rows
        # Every order has a customer: the join is |orders|-sized.
        assert est == pytest.approx(n_orders, rel=0.35)

    def test_correlated_filters_beat_independence(self, db, stats):
        """TPC-H Q3's anti-correlated date filters: the sample join must
        land close to the true cardinality, not the independence
        estimate (an order of magnitude high)."""
        from repro.db.exprs import Col
        from repro.workloads.tpch.queries import QUERIES

        plan = QUERIES[3].plan
        # Walk to the innermost join: lineitem (filtered) x orders
        # (filtered) on the order key.
        node = plan
        while not hasattr(node, "left"):
            node = node.child
        inner = node.left

        l_scan, o_scan = inner.left, inner.right
        est = stats.sample_join_rows(
            l_scan.table, l_scan.predicate, inner.left_key,
            o_scan.table, o_scan.predicate, inner.right_key,
        )
        actual = len(db.execute(inner))
        # 10MB samples the whole table, so the sample join is exact.
        assert est == pytest.approx(actual, rel=0.01)

    def test_unknown_column_gives_no_estimate(self, stats):
        from repro.db.exprs import Col

        assert stats.sample_join_rows(
            "orders", None, Col("o_missing"),
            "customer", None, Col("c_custkey"),
        ) is None
        assert stats.sample_join_rows(
            "orders", Col("o_missing").eq(1), Col("o_custkey"),
            "customer", None, Col("c_custkey"),
        ) is None

    def test_filtered_join_leaves_machine_counters_alone(self, db):
        from repro.db.exprs import Col, Const

        fresh = Statistics(db.catalog)
        before = db.machine.pmu.counters.as_dict()
        est = fresh.sample_join_rows(
            "orders", Col("o_totalprice") > Const(1000.0), Col("o_custkey"),
            "customer", Col("c_acctbal") < Const(0.0), Col("c_custkey"),
        )
        assert db.machine.pmu.counters.as_dict() == before
        assert est > 0

    def test_memoised(self, stats):
        from repro.db.exprs import Col

        args = ("orders", None, Col("o_custkey"),
                "customer", None, Col("c_custkey"))
        assert stats.sample_join_rows(*args) == stats.sample_join_rows(*args)


class TestSampledConjunct:
    """``EnergyModel._sampled_conjunct``: per-shape sampled selectivity,
    composed the way the shape heuristics compose."""

    @pytest.fixture(scope="class")
    def model(self, db, stats):
        from repro.db.costs import EnergyModel

        return EnergyModel(db.catalog, db.profile, stats=stats)

    @staticmethod
    def sel(model, expr):
        return model._sampled_conjunct("lineitem", expr)

    def test_comparisons_read_the_column_statistics(self, model, stats):
        from repro.db.exprs import Cmp, Col, Const

        cs = stats.table("lineitem").column("l_quantity")
        q, v = Col("l_quantity"), Const(25)
        expected = {
            "=": cs.eq_selectivity(25),
            "!=": 1.0 - cs.eq_selectivity(25),
            "<": cs.range_selectivity(hi=25, hi_strict=True),
            "<=": cs.range_selectivity(hi=25),
            ">": cs.range_selectivity(lo=25, lo_strict=True),
            ">=": cs.range_selectivity(lo=25),
        }
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        for op, want in expected.items():
            assert self.sel(model, Cmp(op, q, v)) == want, op
            # Constant on the left: the comparison is mirrored.
            mirrored = Cmp(flipped.get(op, op), v, q)
            assert self.sel(model, mirrored) == want, op

    def test_boolean_shapes_compose(self, model):
        from repro.db.costs import conjunct_selectivity
        from repro.db.exprs import And, Col, Not, Or, StrPrefix

        low = Col("l_quantity") <= 10
        high = Col("l_discount") > 0.05
        opaque = StrPrefix(Col("l_shipmode"), "A")
        s_low, s_high = self.sel(model, low), self.sel(model, high)
        assert self.sel(model, And(low, high)) == s_low * s_high
        assert self.sel(model, Or(low, high)) == min(1.0, s_low + s_high)
        assert self.sel(model, Not(low)) == 1.0 - s_low
        # An unsampled part falls back to its shape guess.
        assert self.sel(model, And(low, opaque)) == (
            s_low * conjunct_selectivity(opaque))
        assert self.sel(model, opaque) is None
        assert self.sel(model, Not(opaque)) is None

    def test_between_and_in_list(self, model, stats):
        from repro.db.exprs import Between, Col, InList

        cs = stats.table("lineitem").column("l_quantity")
        assert self.sel(model, Between(Col("l_quantity"), 5, 15)) == (
            cs.range_selectivity(lo=5, hi=15))
        in_list = InList(Col("l_quantity"), (3, 7, 7))
        assert self.sel(model, in_list) == min(
            1.0, cs.eq_selectivity(3) + cs.eq_selectivity(7))
        unseen = InList(Col("l_quantity"), (3, object()))
        assert self.sel(model, unseen) is None

    def test_untracked_shapes_are_not_sampled(self, model):
        from repro.db.exprs import Between, Cmp, Col, Const, InList

        assert self.sel(model, Cmp("<", Col("l_quantity") + 1,
                                   Const(5))) is None
        for expr in (Cmp("=", Col("nope"), Const(1)),
                     Between(Col("nope"), 1, 2),
                     InList(Col("nope"), (1,))):
            assert self.sel(model, expr) is None
