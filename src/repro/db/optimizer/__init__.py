"""Energy-aware cost-based query optimizer.

A pipeline of pluggable rewrite passes over logical trees, driven by
the energy cost model in :mod:`repro.db.costs`: each pass proposes an
equivalent tree, the :class:`~repro.db.costs.EnergyModel` prices both
under the active engine profile's (calibrated) per-micro-op energies,
and the proposal is kept only when the predicted J/query does not rise.
The pipeline therefore never makes a plan worse than the hand-built
one by its own estimate — and the TPC-H harness
(:mod:`repro.workloads.tpch.optimize`) verifies that holds for
*measured* joules across all 22 queries × 3 engine profiles.

Default pass order::

    predicate-pushdown    sink conjuncts into the scans
    projection-pruning    collapse stacked projections
    limit-pushdown        Limit+Sort -> bounded sort (TopNHeapOp)
    join-order            left-deep subset DP by predicted joules
    access-path           seq vs index/range scan per predicted joules

Add a pass by subclassing
:class:`~repro.db.optimizer.strategies.OptimizationStrategy` and
passing a custom ``passes`` tuple to :class:`Optimizer` (see
``docs/optimizer.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.model import DeltaE
from repro.db.catalog import Catalog
from repro.db.costs import EnergyModel
from repro.db.planner import Logical
from repro.db.profiles import EngineProfile
from repro.db.optimizer.joins import JoinOrderEnumeration
from repro.db.optimizer.strategies import (
    AccessPathSelection,
    LimitPushdown,
    OptimizationStrategy,
    OptimizerContext,
    PredicatePushdown,
    ProjectionPruning,
)

#: The tolerance under which "no worse" is judged: measured energies of
#: identical executions can differ by float-accumulation dust, and the
#: gate must not fail on it.
KEEP_EPSILON = 1e-9


@dataclass(frozen=True)
class PassReport:
    """What one pass did to one plan."""

    name: str
    changed: bool          # the pass proposed a different tree
    kept: bool             # the proposal survived the energy gate
    predicted_before_j: float
    predicted_after_j: float


@dataclass(frozen=True)
class OptimizationResult:
    """An optimized plan plus the audit trail that produced it."""

    plan: Logical
    original: Logical
    passes: tuple[PassReport, ...]
    predicted_j: float           # of the chosen plan
    predicted_baseline_j: float  # of the original plan

    @property
    def kept_passes(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes if p.kept)


def default_passes() -> tuple[OptimizationStrategy, ...]:
    return (
        PredicatePushdown(),
        ProjectionPruning(),
        LimitPushdown(),
        JoinOrderEnumeration(),
        AccessPathSelection(),
    )


class Optimizer:
    """The pass pipeline for one catalog + engine profile."""

    def __init__(self, catalog: Catalog, profile: EngineProfile,
                 delta_e: Optional[DeltaE] = None,
                 passes: Optional[Sequence[OptimizationStrategy]] = None):
        self.ctx = OptimizerContext.build(catalog, profile, delta_e)
        self.passes = tuple(passes if passes is not None
                            else default_passes())

    @property
    def model(self) -> EnergyModel:
        return self.ctx.model

    def optimize(self, plan: Logical) -> OptimizationResult:
        """Run every pass, keeping only predicted-no-worse rewrites."""
        model = self.ctx.model
        baseline_j = model.plan_energy_j(plan)
        current = plan
        current_j = baseline_j
        reports = []
        for strategy in self.passes:
            proposal = strategy.apply(current, self.ctx)
            changed = proposal != current
            if not changed:
                reports.append(PassReport(strategy.name, False, False,
                                          current_j, current_j))
                continue
            proposal_j = model.plan_energy_j(proposal)
            kept = proposal_j <= current_j * (1.0 + KEEP_EPSILON)
            reports.append(PassReport(strategy.name, True, kept,
                                      current_j, proposal_j))
            if kept:
                current, current_j = proposal, proposal_j
        return OptimizationResult(current, plan, tuple(reports),
                                  current_j, baseline_j)


from repro.db.optimizer.explain import render_explain  # noqa: E402

__all__ = [
    "AccessPathSelection",
    "JoinOrderEnumeration",
    "KEEP_EPSILON",
    "LimitPushdown",
    "OptimizationResult",
    "OptimizationStrategy",
    "Optimizer",
    "OptimizerContext",
    "PassReport",
    "PredicatePushdown",
    "ProjectionPruning",
    "default_passes",
    "render_explain",
]
