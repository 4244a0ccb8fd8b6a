"""Optimizer-vs-hand-built measured harness over the 22 TPC-H queries.

For every query × engine profile, measures the simulated active energy
of the hand-built plan and of the optimizer's chosen plan (each run
warmed first, priced with the machine's calibrated ``dE_m``), checks
the two produce identical results, and reports per-query ratios plus a
win/tie/regression summary.  Measurement noise is disabled: the
comparison is between two deterministic executions on one machine, and
the paper's multiplicative noise draw would swamp sub-percent plan
differences.

The energy gate inside the optimizer only keeps rewrites it *predicts*
are no worse; this harness is the ground truth that the prediction
holds for measured joules.  ``repro bench`` embeds a quick subset as a
CI regression gate; ``repro optimize --compare`` runs it standalone.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.db.optimizer import OptimizationResult, Optimizer
from repro.db.planner import Limit, Logical, Project, Sort
from repro.micro.measurement import run_measured
from repro.workloads.tpch.queries import QUERIES

#: Artifact identity (``repro.obs.diff`` keys on these).
ARTIFACT_KIND = "optimizer"
ARTIFACT_SCHEMA_VERSION = 1

ENGINES = ("postgresql", "sqlite", "mysql")

#: Quick-mode subset: the cheapest queries that still cover every pass
#: family (scan-heavy Q1/Q6, join-reorder Q5/Q10, top-N Q3/Q18).
QUICK_QUERIES = (1, 3, 5, 6, 10, 18)

#: Full runs use a tier big enough that top-N inputs overflow their
#: limits (at 10MB most sorts see fewer rows than their LIMIT, so a
#: bounded sort cannot show a measured win).
FULL_TIER = "500MB"
QUICK_TIER = "10MB"

#: Even with measurement noise disabled, repeated runs of an identical
#: workload drift by up to ~1e-4 relative (cache/pager state cycles
#: between runs).  Outcomes are classified against a band an order of
#: magnitude wider, so a tie never reads as a win or a regression.
WIN_EPSILON = 1e-3
REGRESSION_EPSILON = 1e-3


# ---------------------------------------------------------- result equality

def _approx_value_eq(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
        except TypeError:
            return a == b
    return a == b


def _row_sort_key(row) -> tuple:
    # Collapse float dust before ordering so both sides sort identically.
    return tuple(
        f"{v:.9g}" if isinstance(v, float) else repr(v) for v in row
    )


def rows_equal(expected: Sequence, actual: Sequence,
               ordered: bool) -> bool:
    """Row-set equality with float tolerance; ``ordered`` pins order."""
    if len(expected) != len(actual):
        return False
    left, right = list(expected), list(actual)
    if not ordered:
        left = sorted(left, key=_row_sort_key)
        right = sorted(right, key=_row_sort_key)
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        if not all(_approx_value_eq(a, b) for a, b in zip(row_a, row_b)):
            return False
    return True


def plan_fixes_order(plan: Logical) -> bool:
    """Whether the plan's root pins its output order (Sort at the top,
    possibly under Limit/Project) — then equality is order-sensitive."""
    node = plan
    while isinstance(node, (Limit, Project)):
        node = node.child
    return isinstance(node, Sort)


# ------------------------------------------------------------- measurement

class _RecordingOptimizer:
    """Wraps an :class:`Optimizer` as an engine hook, keeping the audit
    trail of every plan it optimized (multi-pass queries plan several
    statements per run)."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.results: list[OptimizationResult] = []

    def optimize(self, plan: Logical) -> OptimizationResult:
        result = self.optimizer.optimize(plan)
        self.results.append(result)
        return result


def _measure(lab, fn) -> float:
    """Deterministic active energy of one warmed workload run."""
    cal = lab.calibration()
    machine = lab.machine
    machine.disable_eist()
    machine.set_pstate(cal.pstate)
    machine.set_prefetcher(True)
    machine.set_cstates(False)
    fn()  # warm-up: steady-state caches, pool, and temp arena
    measurement = run_measured(machine, fn, cal.background,
                               apply_noise=False)
    return measurement.active_energy_j


def _outcome(handbuilt_j: float, optimized_j: float,
             kept: Sequence[str] = ()) -> str:
    if optimized_j < handbuilt_j * (1.0 - WIN_EPSILON):
        return "win" if kept else "tie"
    if optimized_j > handbuilt_j * (1.0 + REGRESSION_EPSILON):
        # With no rewrite kept, both runs execute identical plans: any
        # delta is run-to-run jitter, not an optimizer decision.
        return "regression" if kept else "tie"
    return "tie"


def compare_query(lab, engine: str, number: int,
                  optimizer: Optimizer) -> dict:
    """Measure hand-built vs optimized energy for one query."""
    db = lab.database(engine)
    query = QUERIES[number]
    recorder = _RecordingOptimizer(optimizer)

    captured: dict[str, list] = {}

    if query.plan is not None:
        result = optimizer.optimize(query.plan)
        recorder.results.append(result)
        ordered = plan_fixes_order(query.plan)

        def run_hand():
            captured["hand"] = db.execute(query.plan)

        def run_opt():
            captured["opt"] = db.execute(result.plan)
    else:
        # Multi-pass query: the engine hook optimizes each statement it
        # plans; the run's final output order is fixed by the query.
        # The hook is installed only inside run_opt, so run_hand plans
        # every statement as written.
        ordered = True

        def run_hand():
            captured["hand"] = query.run(db)

        def run_opt():
            db.optimizer = recorder
            try:
                captured["opt"] = query.run(db)
            finally:
                db.optimizer = None

    handbuilt_j = _measure(lab, run_hand)
    optimized_j = _measure(lab, run_opt)

    kept: list[str] = []
    for res in recorder.results:
        for name in res.kept_passes:
            if name not in kept:
                kept.append(name)
    return {
        "handbuilt_j": handbuilt_j,
        "optimized_j": optimized_j,
        "ratio": optimized_j / handbuilt_j if handbuilt_j > 0 else 1.0,
        "rows_match": rows_equal(captured["hand"], captured["opt"], ordered),
        "kept_passes": kept,
        "outcome": _outcome(handbuilt_j, optimized_j, kept),
    }


def run_optimizer_bench(quick: bool = False,
                        tier: Optional[str] = None,
                        engines: Sequence[str] = ENGINES,
                        queries: Optional[Sequence[int]] = None) -> dict:
    """The full harness: every query × engine, one artifact document."""
    from repro.analysis.lab import Lab, LabConfig

    if tier is None:
        tier = QUICK_TIER if quick else FULL_TIER
    if queries is None:
        queries = QUICK_QUERIES if quick else tuple(sorted(QUERIES))

    lab = Lab(LabConfig(tier=tier))
    doc: dict = {
        "kind": ARTIFACT_KIND,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "tier": tier,
        "quick": quick,
        "engines": {},
    }
    wins = ties = regressions = mismatches = 0
    topn_wins = join_wins = 0
    for engine in engines:
        db = lab.database(engine)
        delta_e = lab.calibration().delta_e
        optimizer = Optimizer(db.catalog, db.profile, delta_e)
        per_engine: dict = {}
        for number in queries:
            entry = compare_query(lab, engine, number, optimizer)
            per_engine[f"Q{number}"] = entry
            if not entry["rows_match"]:
                mismatches += 1
            if entry["outcome"] == "win":
                wins += 1
                if "limit-pushdown" in entry["kept_passes"]:
                    topn_wins += 1
                if "join-order" in entry["kept_passes"]:
                    join_wins += 1
            elif entry["outcome"] == "regression":
                regressions += 1
            else:
                ties += 1
        doc["engines"][engine] = per_engine
    doc["summary"] = {
        "queries": len(queries) * len(engines),
        "wins": wins,
        "ties": ties,
        "regressions": regressions,
        "result_mismatches": mismatches,
        "topn_wins": topn_wins,
        "join_reorder_wins": join_wins,
    }
    return doc
