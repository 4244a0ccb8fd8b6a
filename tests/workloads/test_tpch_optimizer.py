"""Property-style equivalence suite: for every TPC-H query and every
engine profile, the optimizer's plan must return exactly the rows the
hand-built plan returns (order-sensitive only when the plan root pins
an order)."""

import hashlib

import pytest

from repro import Machine, tiny_intel
from repro.db import Database, mysql_like, postgres_like, sqlite_like
from repro.db.optimizer import Optimizer
from repro.workloads.tpch import TpchData, load_into
from repro.workloads.tpch.optimize import (
    _RecordingOptimizer,
    plan_fixes_order,
    rows_equal,
)
from repro.workloads.tpch.queries import QUERIES

SEED = 20200330
PROFILES = {
    "postgresql": postgres_like,
    "sqlite": sqlite_like,
    "mysql": mysql_like,
}
ALL_QUERIES = sorted(QUERIES)
MULTI_PASS = sorted(n for n in QUERIES if QUERIES[n].plan is None)


@pytest.fixture(scope="module", params=sorted(PROFILES))
def harness(request):
    engine = request.param
    machine = Machine(tiny_intel())
    db = Database(machine, PROFILES[engine](), name=f"opt-eq-{engine}")
    load_into(db, TpchData("10MB", seed=SEED))
    return db, Optimizer(db.catalog, db.profile)


@pytest.mark.parametrize("number", ALL_QUERIES)
def test_optimized_rows_identical(harness, number):
    db, optimizer = harness
    query = QUERIES[number]

    if query.plan is not None:
        result = optimizer.optimize(query.plan)
        expected = db.execute(query.plan)
        actual = db.execute(result.plan)
        ordered = plan_fixes_order(query.plan)
    else:
        # Multi-pass rewrites (Q2/Q11/Q15/Q22) go through the engine's
        # optimizer hook: every statement they plan is optimized.
        recorder = _RecordingOptimizer(optimizer)
        db.optimizer = None
        try:
            expected = query.run(db)
            db.optimizer = recorder
            actual = query.run(db)
        finally:
            db.optimizer = None
        assert recorder.results, f"Q{number}: optimizer hook never ran"
        ordered = True  # query.run returns presentation order

    assert rows_equal(expected, actual, ordered), (
        f"Q{number}: optimized rows differ"
    )


#: SHA-256 prefix of every chosen plan's ``repr`` and kept passes, all 22
#: queries in order (multi-pass queries contribute one line per planned
#: statement).  A change here means the optimizer picks different plans:
#: re-record only alongside a measured account of the new choices.
CHOSEN_PLAN_DIGESTS = {
    "mysql": "b0ab7bec61d32a38",
    "postgresql": "b0ab7bec61d32a38",
    "sqlite": "bcb58dc1e5a4a370",
}


def test_chosen_plans_pinned(harness):
    db, optimizer = harness
    digest = hashlib.sha256()
    for number in ALL_QUERIES:
        query = QUERIES[number]
        if query.plan is not None:
            results = [optimizer.optimize(query.plan)]
        else:
            recorder = _RecordingOptimizer(optimizer)
            db.optimizer = recorder
            try:
                query.run(db)
            finally:
                db.optimizer = None
            results = recorder.results
        for result in results:
            digest.update(
                f"Q{number} {result.plan!r} {result.kept_passes!r}\n"
                .encode()
            )
    assert digest.hexdigest()[:16] == CHOSEN_PLAN_DIGESTS[db.profile.name]


def test_multi_pass_queries_are_exactly_the_planless_ones():
    assert MULTI_PASS == [2, 11, 15, 22]


def test_plan_fixes_order_matches_tpch_shapes():
    """Sorted-root detection: Q1 (Sort root) is ordered, Q19's plain
    aggregate is not."""
    assert plan_fixes_order(QUERIES[1].plan)
    assert not plan_fixes_order(QUERIES[19].plan)


def test_harness_measures_a_multi_pass_query():
    """``compare_query`` on a plan-less query: the hand-built run plans
    as written, the optimized run through the engine hook, and both
    return the same rows."""
    from repro.workloads.tpch.optimize import run_optimizer_bench

    doc = run_optimizer_bench(quick=True, engines=("sqlite",),
                              queries=(15,))
    entry = doc["engines"]["sqlite"]["Q15"]
    assert entry["rows_match"]
    assert entry["handbuilt_j"] > 0 and entry["optimized_j"] > 0
    assert entry["outcome"] in ("win", "tie", "regression")


def test_outcome_bands():
    from repro.workloads.tpch.optimize import REGRESSION_EPSILON, _outcome

    worse = 1.0 + 2 * REGRESSION_EPSILON
    assert _outcome(1.0, 0.5, ("join-order",)) == "win"
    assert _outcome(1.0, 0.5) == "tie"  # no rewrite kept: jitter
    assert _outcome(1.0, worse, ("join-order",)) == "regression"
    assert _outcome(1.0, worse) == "tie"
    assert _outcome(1.0, 1.0, ("join-order",)) == "tie"


def test_rows_equal_rejects_each_kind_of_difference():
    assert rows_equal([(1, 2.0)], [(1, 2.0 + 1e-9)], ordered=True)
    assert rows_equal([(1,), (2,)], [(2,), (1,)], ordered=False)
    assert not rows_equal([(1,), (2,)], [(2,), (1,)], ordered=True)
    assert not rows_equal([(1,)], [(1,), (2,)], ordered=False)
    assert not rows_equal([(1, 2)], [(1,)], ordered=False)
    assert not rows_equal([(1, 2.0)], [(1, 2.5)], ordered=False)
    # A float beside a non-number compares by plain equality.
    assert not rows_equal([(1.0,)], [("x",)], ordered=True)
