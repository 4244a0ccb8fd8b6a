"""The optimizer's rewrite passes.

Each pass is an :class:`OptimizationStrategy`: a pure function from one
logical tree to an equivalent logical tree, parameterised by an
:class:`OptimizerContext` (catalog, engine profile, and the energy
model).  Passes only *propose* rewrites — the pipeline in
:mod:`repro.db.optimizer` keeps a proposal only when the energy model
predicts it is no worse, so a misfiring heuristic can never regress a
query's measured joules.

Every rewrite here preserves the result multiset (and result order
where a ``Sort`` above fixes one); the equivalence suite in
``tests/workloads/test_tpch_optimizer.py`` holds them to that across
all 22 TPC-H plans × 3 engine profiles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.model import DeltaE
from repro.db.catalog import Catalog
from repro.db.costs import EnergyModel
from repro.db.exprs import (
    Col,
    Expr,
    and_all,
    children,
    columns_used,
    conjuncts,
    with_children,
)
from repro.db.planner import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    Logical,
    Project,
    Scan,
    Sort,
    _range_bounds,
    has_access_path,
)
from repro.db.profiles import INDEX_NL_JOIN, EngineProfile


@dataclass
class OptimizerContext:
    """Shared state every pass sees."""

    catalog: Catalog
    profile: EngineProfile
    model: EnergyModel

    @classmethod
    def build(cls, catalog: Catalog, profile: EngineProfile,
              delta_e: Optional[DeltaE] = None) -> "OptimizerContext":
        from repro.db.stats import Statistics

        stats = Statistics(catalog)
        return cls(catalog, profile,
                   EnergyModel(catalog, profile, delta_e, stats=stats))


class OptimizationStrategy:
    """One rewrite pass; subclasses override :meth:`apply`."""

    #: Short name shown in EXPLAIN output and artifacts.
    name = "noop"

    def apply(self, plan: Logical, ctx: OptimizerContext) -> Logical:
        raise NotImplementedError


# ------------------------------------------------------------ tree helpers

def map_children(node: Logical,
                 fn: Callable[[Logical], Logical]) -> Logical:
    """Rebuild ``node`` with every direct child rewritten by ``fn``."""
    if isinstance(node, Scan):
        return node
    if isinstance(node, Join):
        left, right = fn(node.left), fn(node.right)
        if left is node.left and right is node.right:
            return node
        return dataclasses.replace(node, left=left, right=right)
    child = fn(node.child)
    if child is node.child:
        return node
    return dataclasses.replace(node, child=child)


def output_columns(catalog: Catalog, node: Logical) -> Optional[set[str]]:
    """Column names a logical node's output rows carry, or None when
    they cannot be determined (duplicate-name renames make the set
    ambiguous, so callers treat None as "hands off")."""
    if isinstance(node, Scan):
        return set(catalog.table(node.table).schema.names())
    if isinstance(node, Join):
        left = output_columns(catalog, node.left)
        if node.kind in ("semi", "anti"):
            return left
        right = output_columns(catalog, node.right)
        if left is None or right is None:
            return None
        if left & right:
            return None  # schema.concat would rename; sets go ambiguous
        return left | right
    if isinstance(node, Project):
        return {name for name, _ in node.outputs}
    if isinstance(node, Aggregate):
        return ({name for name, _ in node.group_by}
                | {spec.name for spec in node.aggs})
    return output_columns(catalog, node.child)


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace every column reference via ``mapping`` (recursive)."""
    if isinstance(expr, Col):
        return mapping.get(expr.name, expr)
    return with_children(expr, [substitute(child, mapping)
                                for child in children(expr)])


def _settle(node: Logical, preds: list[Expr]) -> Logical:
    residual = and_all(preds)
    return node if residual is None else Filter(node, residual)


# ------------------------------------------------------------------ passes

class PredicatePushdown(OptimizationStrategy):
    """Sink filter conjuncts towards the scans they constrain.

    Conjuncts travel down through projections (rewritten through the
    output expressions), full sorts, distincts, aggregate group keys,
    and the join side that owns their columns; whatever reaches a scan
    merges into its predicate so the storage layer filters during the
    visit instead of a FilterOp afterwards.  Bounded sorts and limits
    are barriers — filtering below them changes which rows they keep.
    """

    name = "predicate-pushdown"

    def apply(self, plan: Logical, ctx: OptimizerContext) -> Logical:
        self._catalog = ctx.catalog
        return self._push(plan, [])

    def _push(self, node: Logical, preds: list[Expr]) -> Logical:
        if isinstance(node, Filter):
            return self._push(node.child, preds + conjuncts(node.predicate))
        if isinstance(node, Scan):
            schema = set(self._catalog.table(node.table).schema.names())
            sink = [p for p in preds if columns_used(p) <= schema]
            rest = [p for p in preds if columns_used(p) - schema]
            if sink:
                merged = and_all(conjuncts(node.predicate) + sink)
                node = dataclasses.replace(node, predicate=merged)
            return _settle(node, rest)
        if isinstance(node, Join):
            left_cols = output_columns(self._catalog, node.left)
            right_cols = (output_columns(self._catalog, node.right)
                          if node.kind == "inner" else None)
            left_preds: list[Expr] = []
            right_preds: list[Expr] = []
            rest = []
            for p in preds:
                cols = columns_used(p)
                if left_cols is not None and cols <= left_cols:
                    left_preds.append(p)
                elif right_cols is not None and cols <= right_cols:
                    right_preds.append(p)
                else:
                    rest.append(p)
            rewritten = dataclasses.replace(
                node,
                left=self._push(node.left, left_preds),
                right=self._push(node.right, right_preds),
            )
            return _settle(rewritten, rest)
        if isinstance(node, Project):
            mapping = {name: expr for name, expr in node.outputs}
            through = [substitute(p, mapping) for p in preds
                       if columns_used(p) <= set(mapping)]
            rest = [p for p in preds if columns_used(p) - set(mapping)]
            rewritten = dataclasses.replace(
                node, child=self._push(node.child, through)
            )
            return _settle(rewritten, rest)
        if isinstance(node, Aggregate):
            mapping = {name: expr for name, expr in node.group_by}
            through = [substitute(p, mapping) for p in preds
                       if columns_used(p) <= set(mapping)]
            rest = [p for p in preds if columns_used(p) - set(mapping)]
            rewritten = dataclasses.replace(
                node, child=self._push(node.child, through)
            )
            return _settle(rewritten, rest)
        if isinstance(node, Sort) and node.limit is None:
            return dataclasses.replace(
                node, child=self._push(node.child, preds)
            )
        if isinstance(node, Distinct):
            return dataclasses.replace(
                node, child=self._push(node.child, preds)
            )
        # Limit and bounded Sort are barriers; unknown nodes too.
        return _settle(map_children(node, lambda c: self._push(c, [])),
                       preds)


class ProjectionPruning(OptimizationStrategy):
    """Collapse stacked projections and drop no-op ones.

    ``Project(Project(x))`` composes into one projection (outer
    expressions rewritten through the inner outputs); an outer
    projection that merely re-selects the inner's outputs by name, in
    order, disappears entirely.
    """

    name = "projection-pruning"

    def apply(self, plan: Logical, ctx: OptimizerContext) -> Logical:
        return self._rewrite(plan)

    def _rewrite(self, node: Logical) -> Logical:
        node = map_children(node, self._rewrite)
        if not isinstance(node, Project):
            return node
        child = node.child
        if not isinstance(child, Project):
            return node
        inner_names = tuple(name for name, _ in child.outputs)
        if tuple(name for name, _ in node.outputs) == inner_names and all(
            isinstance(e, Col) and e.name == name
            for name, e in node.outputs
        ):
            return child  # pure re-selection of the inner outputs
        mapping = {name: expr for name, expr in child.outputs}
        if any(columns_used(e) - set(mapping) for _, e in node.outputs):
            return node
        composed = tuple(
            (name, substitute(expr, mapping)) for name, expr in node.outputs
        )
        return Project(child.child, composed)


class LimitPushdown(OptimizationStrategy):
    """Move limits next to the operator that can exploit them.

    ``Limit(Sort)`` becomes a bounded sort — which the planner lowers
    to the streaming :class:`~repro.db.operators.TopNHeapOp`, the big
    win —, stacked limits collapse to the tighter one, and limits slide
    below projections (1:1 operators) so less work is produced.
    """

    name = "limit-pushdown"

    def apply(self, plan: Logical, ctx: OptimizerContext) -> Logical:
        return self._rewrite(plan)

    def _rewrite(self, node: Logical) -> Logical:
        if isinstance(node, Limit):
            child = node.child
            if isinstance(child, Limit):
                return self._rewrite(Limit(child.child, min(node.n, child.n)))
            if isinstance(child, Sort):
                bound = (node.n if child.limit is None
                         else min(node.n, child.limit))
                return self._rewrite(Sort(child.child, child.keys, bound))
            if isinstance(child, Project):
                return Project(self._rewrite(Limit(child.child, node.n)),
                               child.outputs)
            return Limit(self._rewrite(child), node.n)
        return map_children(node, self._rewrite)


class AccessPathSelection(OptimizationStrategy):
    """Pick each scan's access path by predicted joules.

    For every scan with a predicate, the candidates are the planner's
    default, a forced sequential scan, and a forced range scan on each
    indexed column with a range conjunct; the energy model prices each
    (descents, leaf streaming, row fetches vs. a prefetched full
    stream) and the cheapest wins.  Scans that an ``index_nl`` profile
    would use as nested-loop inners are left untouched — forcing an
    access path there would rob the join of its index probes.
    """

    name = "access-path"

    def apply(self, plan: Logical, ctx: OptimizerContext) -> Logical:
        self._ctx = ctx
        return self._rewrite(plan, nl_inner=False)

    def _rewrite(self, node: Logical, nl_inner: bool) -> Logical:
        if isinstance(node, Scan):
            if nl_inner:
                return node
            return self._choose(node)
        if isinstance(node, Join):
            right_is_inner = (
                self._ctx.profile.join_strategy == INDEX_NL_JOIN
                and isinstance(node.right, Scan)
                and isinstance(node.right_key, Col)
            )
            left = self._rewrite(node.left, nl_inner=False)
            right = self._rewrite(node.right, nl_inner=right_is_inner)
            if left is node.left and right is node.right:
                return node
            return dataclasses.replace(node, left=left, right=right)
        return map_children(node, lambda c: self._rewrite(c, False))

    def _choose(self, node: Scan) -> Scan:
        if node.predicate is None or node.access is not None:
            return node
        table = self._ctx.catalog.table(node.table)
        candidates: list[Optional[str]] = [None, "seq"]
        for part in conjuncts(node.predicate):
            bounds = _range_bounds(part)
            if bounds is None:
                continue
            column = bounds[0]
            if (column in table.schema and has_access_path(table, column)
                    and column not in candidates):
                candidates.append(column)
        model = self._ctx.model
        scored = [
            (model.estimate(dataclasses.replace(node, access=a)).total_j, i)
            for i, a in enumerate(candidates)
        ]
        best_j, best_i = min(scored)
        default_j = scored[0][0]
        # Keep the planner's default unless a forced path is strictly
        # cheaper (ties always resolve to the default).
        if best_j >= default_j * (1.0 - 1e-9):
            return node
        return dataclasses.replace(node, access=candidates[best_i])
