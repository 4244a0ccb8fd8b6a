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


def kept_fraction(db, stats, table, test):
    """Fraction of ``table``'s sampled rows whose name->value dict
    passes ``test`` (computed in plain Python, not by ``compile``)."""
    names = db.catalog.table(table).schema.names()
    rows = stats.table(table).rows
    return sum(1 for row in rows if test(dict(zip(names, row)))) / len(rows)


class TestSelectivity:
    """``Statistics.selectivity``: the fraction of the sample the whole
    compiled predicate keeps."""

    def test_equals_kept_fraction_of_sample(self, db, stats):
        from repro.db.exprs import Between, Col, InList

        cases = [
            (Col("l_quantity") <= 25, lambda r: r["l_quantity"] <= 25),
            (Col("l_quantity").eq(25), lambda r: r["l_quantity"] == 25),
            (Col("l_quantity").ne(25), lambda r: r["l_quantity"] != 25),
            (Between(Col("l_quantity"), 5, 15),
             lambda r: 5 <= r["l_quantity"] <= 15),
            (InList(Col("l_quantity"), (3, 7, 7)),
             lambda r: r["l_quantity"] in (3, 7)),
        ]
        for expr, test in cases:
            want = kept_fraction(db, stats, "lineitem", test)
            assert 0.0 < want < 1.0
            assert stats.selectivity("lineitem", expr) == want, expr

    def test_range_selectivity_tracks_actual_fraction(self, db, stats):
        from repro.db.exprs import Col

        table = db.catalog.table("lineitem")
        idx = table.schema.index_of("l_quantity")
        rows = list(table.storage.peek_rows())
        actual = sum(1 for r in rows if r[idx] <= 25) / len(rows)
        est = stats.selectivity("lineitem", Col("l_quantity") <= 25)
        assert est == pytest.approx(actual, abs=0.05)

    def test_correlated_and_is_not_the_product(self, db, stats):
        from repro.db.exprs import And, Col

        low = Col("l_quantity") <= 10
        high = Col("l_discount") > 0.05
        both = stats.selectivity("lineitem", And(low, high))
        assert both == kept_fraction(
            db, stats, "lineitem",
            lambda r: r["l_quantity"] <= 10 and r["l_discount"] > 0.05)
        product = (stats.selectivity("lineitem", low)
                   * stats.selectivity("lineitem", high))
        assert both != product

    def test_string_and_column_pairs_are_measured(self, db, stats):
        from repro.db.costs import conjunct_selectivity
        from repro.db.exprs import Col, StrPrefix

        prefix = StrPrefix(Col("l_shipmode"), "A")
        late = Col("l_commitdate") < Col("l_receiptdate")
        for expr, test in (
            (prefix, lambda r: r["l_shipmode"].startswith("A")),
            (late, lambda r: r["l_commitdate"] < r["l_receiptdate"]),
        ):
            want = kept_fraction(db, stats, "lineitem", test)
            got = stats.selectivity("lineitem", expr)
            assert got == want, expr
            assert got != conjunct_selectivity(expr), expr

    def test_uncomparable_value_returns_none(self, stats):
        from repro.db.exprs import Col, Const

        assert stats.selectivity(
            "orders", Col("o_orderkey") < Const(object())) is None

    def test_missing_column_gives_none(self, stats):
        from repro.db.exprs import And, Col

        assert stats.selectivity("lineitem", Col("nope").eq(1)) is None
        assert stats.selectivity(
            "lineitem", And(Col("l_quantity") <= 10, Col("nope") > 1)
        ) is None

    def test_invalidate_drops_the_memo(self, db):
        from repro.db.exprs import Col

        fresh = Statistics(db.catalog)
        pred = Col("o_totalprice") > 1000.0
        owing = Col("c_acctbal") < 0.0
        first = fresh.selectivity("orders", pred)
        fresh.selectivity("customer", owing)
        assert list(fresh._kept) == [("orders", pred), ("customer", owing)]
        fresh.invalidate("orders")
        assert list(fresh._kept) == [("customer", owing)]
        assert fresh.selectivity("orders", pred) == first

    def test_leaves_machine_counters_alone(self, db):
        from repro.db.exprs import Col, StrContains

        fresh = Statistics(db.catalog)
        fresh.table("part")
        before = db.machine.pmu.counters.as_dict()
        est = fresh.selectivity("part", StrContains(Col("p_name"), "green"))
        assert db.machine.pmu.counters.as_dict() == before
        assert est > 0


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


class TestScanSelectivity:
    """``EnergyModel._scan_selectivity``: the sampled fraction of the
    whole predicate, floored at one row; the shape guesses only without
    statistics or when the sample cannot evaluate the predicate."""

    def test_sampled_then_guessed(self, db, stats):
        from repro.db.costs import EnergyModel, predicate_selectivity
        from repro.db.exprs import Col, Const, Not

        sampled = EnergyModel(db.catalog, db.profile, stats=stats)
        bare = EnergyModel(db.catalog, db.profile)
        pred = Not(Col("l_quantity").eq(25))
        assert sampled._scan_selectivity("lineitem", pred) == (
            stats.selectivity("lineitem", pred))
        assert bare._scan_selectivity("lineitem", pred) == (
            predicate_selectivity(pred))
        missing = Col("nope").eq(1)
        assert sampled._scan_selectivity("lineitem", missing) == (
            predicate_selectivity(missing))
        n_rows = db.catalog.table("lineitem").storage.n_rows
        assert sampled._scan_selectivity(
            "lineitem", Col("l_quantity") < Const(-1)) == 1.0 / n_rows
