"""Tests of the planner cost model (``repro.db.costs``).

The serving layer's shortest-job-first policy orders jobs by the
uncalibrated :class:`EnergyModel`'s predicted joules, so it depends on
two properties:

* predictions are *monotone in work* — a bigger table, a join, or an
  extra operator costs more, so SJF ordering tracks real work;
* predictions and join orders are *stable across data seeds* — the
  model reads only catalog cardinalities, so regenerating the same tier
  with a different seed never changes a join order or the relative
  ranking SJF schedules by (generated row counts may differ slightly,
  so absolute joules are not byte-identical).
"""

import pytest

from repro import Machine, tiny_intel
from repro.db import Database, postgres_like
from repro.db.costs import (
    MIN_ROW_ESTIMATE,
    MIN_SELECTIVITY,
    RANGE_SELECTIVITY,
    EnergyModel,
    predicate_selectivity,
    tables_used,
)
from repro.db.exprs import And, Col, Const
from repro.db.operators import AggSpec
from repro.db.planner import Aggregate, Filter, Join, Limit, Scan, Sort
from repro.workloads.tpch import TpchData, load_into
from repro.workloads.tpch.queries import QUERIES


def loaded(tier, seed=20200330):
    machine = Machine(tiny_intel())
    db = Database(machine, postgres_like(), name=f"db-{tier}-{seed}")
    load_into(db, TpchData(tier, seed=seed))
    return db


def model(db) -> EnergyModel:
    """The SJF pricer: no statistics, Table-2 magnitudes."""
    return EnergyModel(db.catalog, db.profile)


@pytest.fixture(scope="module")
def db_small():
    return loaded("10MB")


@pytest.fixture(scope="module")
def db_big():
    return loaded("100MB")


@pytest.fixture(scope="module")
def db_small_reseeded():
    return loaded("10MB", seed=777)


class TestMonotonicity:
    def test_scan_cost_grows_with_table_size(self, db_small, db_big):
        # nation is fixed-size across tiers, so it is not listed.
        small, big = model(db_small), model(db_big)
        for table in ("lineitem", "orders", "customer"):
            assert (big.plan_energy_j(Scan(table))
                    > small.plan_energy_j(Scan(table)) > 0)

    def test_bigger_tables_cost_more_than_smaller(self, db_small):
        m = model(db_small)
        assert (m.plan_energy_j(Scan("lineitem"))
                > m.plan_energy_j(Scan("orders"))
                > m.plan_energy_j(Scan("nation")))

    def test_operators_add_cost(self, db_small):
        # Subtree joules, not plan_energy_j: the output sink prices
        # every emitted row, so a bare scan emits more than a filter.
        m = model(db_small)
        scan = Scan("lineitem")
        base = m.estimate(scan).total_j
        filtered = Filter(scan, Col("l_quantity") > Const(10))
        agg = Aggregate(scan, (), (AggSpec("n", "count"),))
        sort = Sort(scan, ((Col("l_quantity"), False),))
        assert m.estimate(filtered).total_j > base
        assert m.estimate(agg).total_j > base
        assert m.estimate(sort).total_j > base

    def test_filter_reduces_estimated_rows(self, db_small):
        m = model(db_small)
        scan = m.estimate(Scan("lineitem"))
        filtered = m.estimate(
            Filter(Scan("lineitem"), Col("l_quantity") > Const(10)))
        assert 0 < filtered.rows < scan.rows

    def test_join_cost_exceeds_both_inputs(self, db_small):
        m = model(db_small)
        join = Join(Scan("orders"), Scan("lineitem"),
                    Col("o_orderkey"), Col("l_orderkey"))
        cost = m.plan_energy_j(join)
        assert cost > m.plan_energy_j(Scan("orders"))
        assert cost > m.plan_energy_j(Scan("lineitem"))


class TestSeedStability:
    def test_cost_ranking_stable_across_data_seeds(self, db_small,
                                                   db_small_reseeded):
        # SJF only needs the *ordering* of predictions; that must not
        # depend on which seed generated the data.
        def ranking(db):
            m = model(db)
            return sorted(
                (1, 3, 6, 12, 14),
                key=lambda n: m.plan_energy_j(QUERIES[n].plan),
            )

        assert ranking(db_small) == [6, 1, 14, 3, 12]
        assert ranking(db_small) == ranking(db_small_reseeded)

    def test_costs_close_across_data_seeds(self, db_small,
                                           db_small_reseeded):
        # Generated cardinalities jitter a little between seeds, but a
        # tier pins the scale, so predictions stay within a few percent.
        a_model, b_model = model(db_small), model(db_small_reseeded)
        for number in (1, 3, 6, 12, 14):
            plan = QUERIES[number].plan
            assert plan is not None
            a = a_model.plan_energy_j(plan)
            b = b_model.plan_energy_j(plan)
            assert a == pytest.approx(b, rel=0.25)

    def test_join_order_identical_across_data_seeds(self, db_small,
                                                    db_small_reseeded):
        for number in (3, 12, 14):
            plan = QUERIES[number].plan
            assert (db_small.explain(plan)
                    == db_small_reseeded.explain(plan))

    def test_sql_plans_stable_across_seeds(self, db_small,
                                           db_small_reseeded):
        sql = ("SELECT o_orderpriority, COUNT(*) FROM orders, lineitem "
               "WHERE o_orderkey = l_orderkey AND l_quantity > 10 "
               "GROUP BY o_orderpriority")
        assert (db_small.explain(db_small.sql_plan(sql))
                == db_small_reseeded.explain(db_small_reseeded.sql_plan(sql)))


class TestTablesUsed:
    def test_single_scan(self, db_small):
        assert tables_used(Scan("orders")) == ("orders",)

    def test_join_collects_sorted(self, db_small):
        join = Join(Scan("orders"), Scan("lineitem"),
                    Col("o_orderkey"), Col("l_orderkey"))
        assert tables_used(join) == ("lineitem", "orders")


class TestSelectivityComposition:
    """Per-conjunct composition (no per-conjunct floor) with a final
    clamp: deep AND chains shrink multiplicatively but never estimate
    fewer than MIN_ROW_ESTIMATE rows."""

    def test_conjuncts_compose_multiplicatively(self, db_small):
        one = Scan("lineitem", Col("l_quantity") <= Const(25))
        three = Scan("lineitem", And(
            Col("l_quantity") <= Const(25),
            Col("l_discount") <= Const(0.05),
            Col("l_tax") <= Const(0.04),
        ))
        m = model(db_small)
        r1 = m.estimate(one).rows
        r3 = m.estimate(three).rows
        # Three range conjuncts estimate well below one (flooring each
        # conjunct at DEFAULT_SELECTIVITY would flatten this).
        assert r3 < r1 * RANGE_SELECTIVITY * RANGE_SELECTIVITY * 1.01

    def test_composed_selectivity_clamped(self):
        deep = And(*[Col("l_quantity") <= Const(25) for _ in range(40)])
        assert predicate_selectivity(deep) == MIN_SELECTIVITY

    def test_rows_never_below_min_estimate(self, db_small):
        scan = Scan("lineitem", And(
            *[Col("l_quantity") <= Const(25) for _ in range(40)]))
        plan = Filter(Filter(scan, Col("l_discount") <= Const(0.0)),
                      Col("l_tax") <= Const(0.0))
        assert model(db_small).estimate(plan).rows >= MIN_ROW_ESTIMATE


class TestLimitCost:
    """Limit caps the *pipelined* portion of its child's joules."""

    def test_limit_caps_pipelined_scan(self, db_small):
        m = model(db_small)
        scan = Scan("lineitem")
        full = m.estimate(scan)
        limited = m.estimate(Limit(scan, 5))
        expected = full.startup_j + (full.total_j - full.startup_j) * (
            5.0 / full.rows)
        assert limited.total_j == pytest.approx(expected)
        assert limited.total_j < full.total_j * 0.5
        assert limited.rows == 5

    def test_limit_cannot_cap_blocking_child(self, db_small):
        # A sort is blocking: startup == total, so Limit saves nothing.
        m = model(db_small)
        plan = Sort(Scan("lineitem"), ((Col("l_quantity"), False),))
        full = m.estimate(plan)
        limited = m.estimate(Limit(plan, 5))
        assert limited.total_j == pytest.approx(full.total_j)

    def test_oversized_limit_is_free(self, db_small):
        m = model(db_small)
        scan = Scan("customer")
        full = m.estimate(scan)
        limited = m.estimate(Limit(scan, int(full.rows) * 10))
        assert limited.total_j == pytest.approx(full.total_j)
        assert limited.rows == full.rows
