"""Unit tests of the optimizer passes, the energy gate, and the
streaming top-N heap operator (``repro.db.optimizer``)."""

import pytest

from repro import Machine, tiny_intel
from repro.db import Database, mysql_like, postgres_like, sqlite_like
from repro.db.exprs import Col
from repro.db.optimizer import Optimizer, default_passes
from repro.db.optimizer.explain import _fmt_j, render_explain
from repro.db.optimizer.strategies import (
    LimitPushdown,
    OptimizationStrategy,
    OptimizerContext,
    PredicatePushdown,
    ProjectionPruning,
)
from repro.db.planner import Limit, Project, Scan, Sort
from repro.workloads.tpch import TpchData, load_into
from repro.workloads.tpch.queries import QUERIES

SEED = 20200330


def loaded(profile, seed=SEED, name=None):
    machine = Machine(tiny_intel())
    db = Database(machine, profile,
                  name=name or f"opt-{profile.name}-{seed}")
    load_into(db, TpchData("10MB", seed=seed))
    return db


@pytest.fixture(scope="module")
def db():
    return loaded(postgres_like())


@pytest.fixture(scope="module")
def ctx(db):
    return OptimizerContext.build(db.catalog, db.profile)


PLAN_QUERIES = sorted(n for n in QUERIES if QUERIES[n].plan is not None)


class TestPassIdempotence:
    """Applying a rewrite pass twice must equal applying it once."""

    @pytest.mark.parametrize("strategy_cls", [
        PredicatePushdown, ProjectionPruning, LimitPushdown,
    ])
    def test_idempotent_on_every_tpch_plan(self, ctx, strategy_cls):
        strategy = strategy_cls()
        for number in PLAN_QUERIES:
            once = strategy.apply(QUERIES[number].plan, ctx)
            twice = strategy.apply(once, ctx)
            assert twice == once, f"Q{number}: {strategy.name} not settled"


class TestTopNHeap:
    """Bounded sort lowers to TopNHeapOp and equals the full sort."""

    def sort_plan(self, limit=None):
        scan = Scan("orders")
        keys = ((Col("o_totalprice"), True), (Col("o_orderkey"), False))
        if limit is None:
            return Limit(Sort(scan, keys), 7)
        return Sort(scan, keys, limit)

    def test_bounded_sort_lowers_to_heap(self, db):
        from repro.db.operators import SortOp, TopNHeapOp

        assert isinstance(db.plan(self.sort_plan(limit=7)), TopNHeapOp)
        assert isinstance(db.plan(Sort(Scan("orders"), (
            (Col("o_totalprice"), True),))), SortOp)

    def test_topn_equals_full_sort_prefix(self, db):
        full = db.execute(self.sort_plan())          # Limit over full Sort
        topn = db.execute(self.sort_plan(limit=7))   # bounded -> heap
        assert topn == full

    def test_topn_equals_full_sort_when_input_fits(self, db):
        # limit >= n rows: the heap never evicts, output is the full sort.
        n = db.catalog.table("customer").storage.n_rows
        keys = ((Col("c_acctbal"), False),)
        full = db.execute(Sort(Scan("customer"), keys))
        topn = db.execute(Sort(Scan("customer"), keys, n + 10))
        assert topn == full


class TestEnergyGate:
    def test_worse_proposal_is_rejected(self, db):
        class Pessimiser(OptimizationStrategy):
            """Re-sorts the output by its own sort keys: equivalent,
            but strictly adds a full sort's micro-ops."""

            name = "pessimiser"

            def apply(self, plan, ctx):
                return Sort(plan, plan.keys)

        optimizer = Optimizer(db.catalog, db.profile,
                              passes=(Pessimiser(),))
        plan = QUERIES[1].plan
        result = optimizer.optimize(plan)
        assert result.plan == plan
        assert result.passes[0].changed
        assert not result.passes[0].kept
        assert result.kept_passes == ()

    def test_kept_passes_never_raise_predicted_energy(self, db):
        optimizer = Optimizer(db.catalog, db.profile)
        for number in PLAN_QUERIES:
            result = optimizer.optimize(QUERIES[number].plan)
            assert result.predicted_j <= result.predicted_baseline_j * (
                1.0 + 1e-6
            ), f"Q{number}"


class TestJoinOrderStability:
    def test_same_seed_same_choice(self):
        """Two identically seeded loads must optimize to identical
        trees — the DP reads only catalog + sampled stats, both
        deterministic functions of the data."""
        db_a = loaded(sqlite_like(), name="opt-stab-a")
        db_b = loaded(sqlite_like(), name="opt-stab-b")
        opt_a = Optimizer(db_a.catalog, db_a.profile)
        opt_b = Optimizer(db_b.catalog, db_b.profile)
        for number in (3, 5, 10):
            plan = QUERIES[number].plan
            assert opt_a.optimize(plan).plan == opt_b.optimize(plan).plan

    def test_optimize_is_deterministic(self, db):
        optimizer = Optimizer(db.catalog, db.profile)
        for number in (3, 5, 10, 18):
            plan = QUERIES[number].plan
            assert optimizer.optimize(plan).plan == \
                optimizer.optimize(plan).plan


class TestEquivalence:
    """Optimized plans return the same rows (spot check; the full
    22-query x 3-engine sweep lives in tests/workloads)."""

    @pytest.mark.parametrize("profile_fn", [
        postgres_like, sqlite_like, mysql_like,
    ])
    def test_q3_rows_identical(self, profile_fn):
        db = loaded(profile_fn(), name=f"opt-eq-{profile_fn.__name__}")
        optimizer = Optimizer(db.catalog, db.profile)
        plan = QUERIES[3].plan
        result = optimizer.optimize(plan)
        assert db.execute(result.plan) == db.execute(plan)


class TestDefaultPipeline:
    def test_default_passes_cover_every_family(self):
        names = [p.name for p in default_passes()]
        assert names == [
            "predicate-pushdown", "projection-pruning", "limit-pushdown",
            "join-order", "access-path",
        ]


class TestExplain:
    """``render_explain``: the per-pass audit, then the energy tree."""

    @pytest.mark.parametrize("number", [3, 6])
    def test_lists_each_pass_once_and_roots_at_the_plan_total(self, db,
                                                               number):
        optimizer = Optimizer(db.catalog, db.profile)
        result = optimizer.optimize(QUERIES[number].plan)
        lines = render_explain(result, optimizer.model).splitlines()
        first_words = [line.split()[0] for line in lines if line.strip()]
        for strategy in default_passes():
            assert first_words.count(strategy.name) == 1, strategy.name
        root_line = lines[lines.index("") + 1]
        total_j = optimizer.model.estimate(result.plan).total_j
        assert root_line.endswith(f"subtree {_fmt_j(total_j):>11}")

    def test_fmt_j_switches_units_at_the_boundaries(self):
        assert _fmt_j(2.5) == "2.500 J"
        assert _fmt_j(1.0) == "1.000 J"
        assert _fmt_j(0.999) == "999.000 mJ"
        assert _fmt_j(1e-3) == "1.000 mJ"
        assert _fmt_j(9.99e-4) == "999.00 uJ"
        assert _fmt_j(2.5e-7) == "0.25 uJ"


def _rows_equal(db, original, rewritten):
    assert db.execute(rewritten) == db.execute(original)


class TestLimitPushdownShapes:
    """Each ``LimitPushdown`` rewrite on a hand-built plan: the expected
    shape, and the same rows as the plan it rewrote."""

    KEYS = ((Col("o_orderkey"), True),)

    @pytest.mark.parametrize("outer, inner", [(3, 5), (5, 3)])
    def test_stacked_limits_collapse_to_the_tighter(self, db, ctx, outer,
                                                    inner):
        scan = Scan("orders")
        plan = Limit(Limit(scan, inner), outer)
        rewritten = LimitPushdown().apply(plan, ctx)
        assert rewritten == Limit(scan, min(outer, inner))
        _rows_equal(db, plan, rewritten)

    @pytest.mark.parametrize("sort_limit, expected", [
        (None, 4), (10, 4), (2, 2),
    ])
    def test_limit_over_sort_becomes_a_bounded_sort(self, db, ctx,
                                                    sort_limit, expected):
        scan = Scan("orders")
        plan = Limit(Sort(scan, self.KEYS, sort_limit), 4)
        rewritten = LimitPushdown().apply(plan, ctx)
        assert rewritten == Sort(scan, self.KEYS, expected)
        _rows_equal(db, plan, rewritten)

    def test_limit_slides_below_a_projection(self, db, ctx):
        scan = Scan("orders")
        outputs = (("k", Col("o_orderkey")), ("p", Col("o_totalprice")))
        plan = Limit(Project(scan, outputs), 5)
        rewritten = LimitPushdown().apply(plan, ctx)
        assert rewritten == Project(Limit(scan, 5), outputs)
        _rows_equal(db, plan, rewritten)

    def test_limit_stack_over_project_over_sort(self, db, ctx):
        scan = Scan("orders")
        outputs = (("k", Col("o_orderkey")),)
        plan = Limit(Limit(Project(Sort(scan, self.KEYS), outputs), 6), 9)
        rewritten = LimitPushdown().apply(plan, ctx)
        assert rewritten == Project(Sort(scan, self.KEYS, 6), outputs)
        _rows_equal(db, plan, rewritten)


class TestProjectionMerge:
    """``ProjectionPruning`` on stacked projections."""

    INNER = (("k", Col("n_nationkey")), ("r", Col("n_regionkey")))

    def test_outer_composes_through_the_inner(self, db, ctx):
        scan = Scan("nation")
        plan = Project(Project(scan, self.INNER),
                       (("s", Col("k") + Col("r")), ("k", Col("k"))))
        rewritten = ProjectionPruning().apply(plan, ctx)
        assert rewritten == Project(scan, (
            ("s", Col("n_nationkey") + Col("n_regionkey")),
            ("k", Col("n_nationkey")),
        ))
        _rows_equal(db, plan, rewritten)

    def test_pure_reselection_disappears(self, db, ctx):
        scan = Scan("nation")
        inner = Project(scan, self.INNER)
        plan = Project(inner, (("k", Col("k")), ("r", Col("r"))))
        rewritten = ProjectionPruning().apply(plan, ctx)
        assert rewritten == inner
        _rows_equal(db, plan, rewritten)

    def test_reordering_reselection_composes(self, db, ctx):
        scan = Scan("nation")
        plan = Project(Project(scan, self.INNER),
                       (("r", Col("r")), ("k", Col("k"))))
        rewritten = ProjectionPruning().apply(plan, ctx)
        assert rewritten == Project(scan, (("r", Col("n_regionkey")),
                                           ("k", Col("n_nationkey"))))
        _rows_equal(db, plan, rewritten)
