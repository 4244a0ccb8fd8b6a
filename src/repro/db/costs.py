"""The planner's cost model: predicted joules over logical trees.

:class:`EnergyModel` predicts the MS micro-op counts (L1D, Reg2L1D, L2,
L3, mem, pf, stall; §2.4) a plan would generate under one engine
profile and prices them with the calibrated per-micro-op energies
``dE_m`` (:class:`repro.core.MicroOpPricing`), yielding a predicted
J/query.  The optimizer (:mod:`repro.db.optimizer`) minimises it and
the serving layer's shortest-job-first policy orders queries by it.
The cardinality pieces it builds on (:func:`predicate_selectivity` and
the selectivity constants) live here too.

No randomness enters anywhere, so estimates depend only on the
catalog's table sizes: two datasets at the same tier may differ
slightly in generated cardinalities, but join orders and relative cost
orderings stay stable across data seeds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PlanError
from repro.core.coefficients import PRICE_COMPONENTS, MicroOpPricing
from repro.core.model import DeltaE
from repro.db.catalog import Catalog, TableDef
from repro.db.exprs import (
    And,
    Between,
    Cmp,
    Expr,
    InList,
    Not,
    Or,
    StrContains,
    StrPrefix,
    StrSuffix,
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
    choose_range_conjunct,
    index_nl_column,
)
from repro.db.operators.join import HASH_ENTRY_BYTES
from repro.db.profiles import CLUSTERED, INDEX_NL_JOIN, EngineProfile
from repro.sim.address_space import LINE_SIZE as LINE

#: Default selectivity of a predicate conjunct with no statistics.
DEFAULT_SELECTIVITY = 0.33

#: Selectivities are composed per-conjunct (an AND multiplies), so a
#: deep chain would otherwise collapse the estimate to ~0 rows and
#: mislead join-order enumeration into treating the input as free.
#: Composition clamps here, and row estimates never drop below
#: :data:`MIN_ROW_ESTIMATE`.
MIN_SELECTIVITY = 0.01
MIN_ROW_ESTIMATE = 1.0

#: Per-construct selectivity guesses (System R flavoured).
EQ_SELECTIVITY = 0.10
RANGE_SELECTIVITY = DEFAULT_SELECTIVITY
BETWEEN_SELECTIVITY = 0.30
STRING_MATCH_SELECTIVITY = 0.15


# ------------------------------------------------------------- selectivity

def conjunct_selectivity(expr: Expr) -> float:
    """Selectivity of one predicate conjunct, from its shape alone."""
    if isinstance(expr, And):
        return predicate_selectivity(expr)
    if isinstance(expr, Or):
        total = sum(conjunct_selectivity(p) for p in expr.parts)
        return max(MIN_SELECTIVITY, min(1.0, total))
    if isinstance(expr, Not):
        return min(1.0, max(MIN_SELECTIVITY,
                            1.0 - conjunct_selectivity(expr.part)))
    if isinstance(expr, Cmp):
        if expr.op == "=":
            return EQ_SELECTIVITY
        if expr.op == "!=":
            return 1.0 - EQ_SELECTIVITY
        return RANGE_SELECTIVITY
    if isinstance(expr, Between):
        return BETWEEN_SELECTIVITY
    if isinstance(expr, InList):
        return max(MIN_SELECTIVITY,
                   min(0.9, EQ_SELECTIVITY * len(expr.values)))
    if isinstance(expr, (StrPrefix, StrSuffix, StrContains)):
        return STRING_MATCH_SELECTIVITY
    return DEFAULT_SELECTIVITY


def predicate_selectivity(predicate: Optional[Expr]) -> float:
    """Composed selectivity of a whole predicate, clamped to
    :data:`MIN_SELECTIVITY` so deep AND chains never estimate ~0 rows."""
    if predicate is None:
        return 1.0
    parts = predicate.parts if isinstance(predicate, And) else (predicate,)
    out = 1.0
    for part in parts:
        out *= conjunct_selectivity(part)
    return max(MIN_SELECTIVITY, min(1.0, out))


def tables_used(node: Logical) -> tuple[str, ...]:
    """Base tables scanned anywhere in the tree, sorted and deduplicated.

    The serving layer's locality-batching policy keys on this set: two
    queries sharing hot tables keep the buffer pool and caches warm for
    each other.
    """
    names: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Scan):
            names.add(current.table)
        elif isinstance(current, Join):
            stack.append(current.left)
            stack.append(current.right)
        else:
            stack.append(current.child)
    return tuple(sorted(names))


# ------------------------------------------------------------ energy model

#: Predicted stall events per latency-exposed (random) memory access;
#: sequential streams are prefetch-covered and charge far fewer.
RANDOM_STALLS = 6.0
STREAM_STALLS = 0.5

#: Hash tables are priced with the executor's own fixed-width entries
#: (``operators.join.HASH_ENTRY_BYTES``) in the temp arena — row
#: payloads stay host-side, so hash memory traffic scales with entry
#: *count*, not row width.  The bucket array is a modelling choice,
#: not the executor's sizing.
HASH_BUCKET_BYTES = 2048 * 8.0


def _zero_counts() -> dict[str, float]:
    return {name: 0.0 for name in PRICE_COMPONENTS}


@dataclass
class NodeEnergy:
    """Predicted micro-op counts and joules for one plan node."""

    label: str
    rows: float                      # estimated output cardinality
    row_bytes: float                 # estimated output row width
    counts: dict[str, float]         # this node's own MS counts
    energy_j: float                  # this node's own joules
    startup_j: float                 # blocking portion of total_j
    total_j: float                   # subtree joules
    children: tuple["NodeEnergy", ...] = ()
    breakdown_j: dict[str, float] = field(default_factory=dict)


class EnergyModel:
    """Predicts J/query for a logical plan under one engine profile.

    The prediction mirrors what the simulated executor charges: per-row
    interpreter state traffic (the profile's ``state_*_per_row`` knobs
    → L1D/Reg2L1D), weak-locality engine state (``cold_loads_per_row``
    → L2), table data streamed by buffer-pool residency (resident pages
    → L2, the streaming remainder → prefetch-covered DRAM), B-tree
    descents as dependent, latency-exposed random accesses (L3/mem +
    stall), and sort/hash structures sized against ``work_mem``.  Counts
    are priced with :class:`repro.core.MicroOpPricing` — calibrated
    ``dE_m`` when available, Table-2 magnitudes otherwise.

    Absolute joules are an estimate; what the optimizer relies on is
    the *ordering* of candidate plans, which tracks the executor because
    both charge the same per-row shapes.
    """

    def __init__(self, catalog: Catalog, profile: EngineProfile,
                 delta_e: Optional[DeltaE] = None, stats=None):
        self.catalog = catalog
        self.profile = profile
        self.pricing = MicroOpPricing.from_delta_e(delta_e)
        #: Optional :class:`repro.db.stats.Statistics`; a scan predicate
        #: then keeps the fraction of the table's sample it passes, and
        #: scan-scan joins join the samples, instead of shape guesses.
        self.stats = stats

    # -- selectivity (sampled when statistics are available) ----------------

    def _sampled(self, table_name: str, predicate: Expr) -> Optional[float]:
        if self.stats is None:
            return None
        return self.stats.selectivity(table_name, predicate)

    def _scan_selectivity(self, table_name: str,
                          predicate: Optional[Expr]) -> float:
        """Selectivity of a scan predicate: the fraction of the table's
        sample it keeps where statistics allow, shape guesses otherwise.
        With a sample backing the estimate the floor drops to one row's
        worth — a sampled 0.1% is real, unlike a guessed one."""
        if predicate is None:
            return 1.0
        sampled = self._sampled(table_name, predicate)
        if sampled is None:
            return predicate_selectivity(predicate)
        n_rows = max(1.0, float(self.catalog.table(table_name)
                                .storage.n_rows))
        return max(1.0 / n_rows, sampled)

    def _base_distinct(self, node: Logical, column: str) -> Optional[float]:
        """Distinct-value estimate of ``column``'s base domain under
        ``node`` — the table-wide count, deliberately *not* clamped to
        the filtered cardinality.  Join selectivity assumes filters hit
        join keys uniformly, so the divisor is the domain size; clamping
        to the filtered rows would re-introduce the containment bias
        that inflates filtered-FK join estimates."""
        if isinstance(node, Scan):
            if self.stats is None:
                return None
            table = self.catalog.table(node.table)
            if column not in table.schema:
                return None
            ts = self.stats.table(node.table)
            if not ts.sampled:
                return None
            # Average multiplicity in the sample extrapolates: a column
            # with m rows per value in the sample has ~n_rows/m values.
            return max(1.0, ts.n_rows * ts.n_distinct[column] / ts.sampled)
        if isinstance(node, Join):
            found = self._base_distinct(node.left, column)
            if found is None and node.kind == "inner":
                found = self._base_distinct(node.right, column)
            return found
        if isinstance(node, Project):
            for name, expr in node.outputs:
                if name == column:
                    from repro.db.exprs import Col
                    if isinstance(expr, Col):
                        return self._base_distinct(node.child, expr.name)
                    return None
            return None
        if isinstance(node, Aggregate):
            # A group-by output's domain is the grouped column's domain
            # (each base value yields at most one group).
            for name, expr in node.group_by:
                if name == column:
                    from repro.db.exprs import Col
                    if isinstance(expr, Col):
                        return self._base_distinct(node.child, expr.name)
                    return None
            return None
        return self._base_distinct(node.child, column)

    def _join_rows(self, node: Join, left_rows: float,
                   right_rows: float) -> float:
        """Inner-join output estimate ``|L||R| / max(V_l, V_r)`` with
        sampled base-domain distinct counts; falls back to the key-FK
        heuristic ``max(|L|, |R|)`` when a key side has no statistics."""
        from repro.db.exprs import Col, TupleOf

        fallback = max(left_rows, right_rows)

        def key_columns(key: Expr) -> Optional[tuple]:
            if isinstance(key, Col):
                return (key.name,)
            if isinstance(key, TupleOf) and all(
                isinstance(p, Col) for p in key.parts
            ):
                return tuple(p.name for p in key.parts)
            return None

        lcols = key_columns(node.left_key)
        rcols = key_columns(node.right_key)
        if lcols is None or rcols is None or len(lcols) != len(rcols):
            return fallback
        # Scan-scan joins: join the statistics samples directly, which
        # captures filter correlation through the join keys that the
        # independence formula below cannot see.
        if (self.stats is not None and isinstance(node.left, Scan)
                and isinstance(node.right, Scan)):
            sampled = self.stats.sample_join_rows(
                node.left.table, node.left.predicate, node.left_key,
                node.right.table, node.right.predicate, node.right_key,
            )
            if sampled is not None:
                return max(MIN_ROW_ESTIMATE,
                           min(sampled, left_rows * right_rows))
        v_left = v_right = 1.0
        for lc, rc in zip(lcols, rcols):
            vl = self._base_distinct(node.left, lc)
            vr = self._base_distinct(node.right, rc)
            if vl is None or vr is None:
                return fallback
            v_left *= vl
            v_right *= vr
        rows = left_rows * right_rows / max(v_left, v_right, 1.0)
        return max(MIN_ROW_ESTIMATE, min(rows, left_rows * right_rows))

    # -- public entry points ------------------------------------------------

    def estimate(self, node: Logical) -> NodeEnergy:
        """Bottom-up per-node energy estimate for one logical tree."""
        return self._node(node)

    def plan_energy_j(self, node: Logical) -> float:
        """Predicted J for the whole plan, including emitting the
        result rows into the output sink."""
        root = self._node(node)
        emit = _zero_counts()
        emit["Reg2L1D"] = root.rows * (root.row_bytes / 8.0)
        emit["other"] = root.rows * self.profile.operator_overhead_ops
        return root.total_j + self.pricing.total_j(emit)

    # -- shared count shapes ------------------------------------------------

    def _finish(self, label, rows, row_bytes, counts, children,
                startup_j=None, blocking=False) -> NodeEnergy:
        breakdown = self.pricing.energy_j(counts)
        own = sum(breakdown.values())
        total = own + sum(c.total_j for c in children)
        if blocking:
            startup = total
        elif startup_j is None:
            startup = sum(c.startup_j for c in children)
        else:
            startup = min(startup_j, total)
        return NodeEnergy(label, max(rows, MIN_ROW_ESTIMATE),
                          max(row_bytes, 8.0), counts, own, startup, total,
                          tuple(children), breakdown)

    def _visit(self, counts: dict, rows: float) -> None:
        """Per-row interpreter work of visiting a stored tuple."""
        p = self.profile
        counts["L1D"] += rows * p.state_loads_per_row
        counts["Reg2L1D"] += rows * p.state_stores_per_row
        counts["L2"] += rows * p.cold_loads_per_row
        counts["other"] += rows * (
            p.state_other_per_row + p.state_branch_per_row
            + p.state_cmp_per_row + p.state_add_per_row + p.row_overhead_ops
        )

    def _produce(self, counts: dict, rows: float) -> None:
        """Per-row work of an operator handing a tuple upward — the
        mirror of ``produce_overhead``: fixed interpreter state traffic,
        independent of row width (rows travel as host tuples; only
        materialising operators and the output sink pay width)."""
        p = self.profile
        counts["L1D"] += rows * p.op_loads_per_row
        counts["Reg2L1D"] += rows * p.op_stores_per_row
        counts["other"] += rows * (
            p.operator_overhead_ops
            + (p.state_other_per_row + p.state_branch_per_row
               + p.state_cmp_per_row + p.state_add_per_row) / 4.0
        )

    def _stream(self, counts: dict, total_bytes: float) -> None:
        """Sequentially streamed data, split by buffer-pool residency:
        resident lines re-walk pool structures (L2); the remainder is a
        prefetch-covered DRAM stream (mem + pf, few stalls)."""
        lines = total_bytes / LINE
        resident = min(1.0, self.profile.buffer_pool_bytes
                       / max(total_bytes, 1.0))
        counts["L2"] += lines * resident
        miss = lines * (1.0 - resident)
        counts["mem"] += miss
        counts["pf"] += miss
        counts["stall"] += miss * STREAM_STALLS

    def _btree_depth(self, n_rows: float) -> float:
        fanout = max(4.0, self.profile.btree_node_bytes / 32.0)
        return max(1.0, math.ceil(math.log(max(n_rows, 2.0), fanout)))

    def _descend(self, counts: dict, table_rows: float, probes: float,
                 table_bytes: float) -> None:
        """Random B-tree descents: upper levels stay cached, the leaf
        level's residency follows the buffer pool, and the latency of
        each uncached hop is exposed (stall)."""
        depth = self._btree_depth(table_rows)
        resident = min(1.0, self.profile.buffer_pool_bytes
                       / max(table_bytes, 1.0))
        counts["L2"] += probes * (depth - 1)
        counts["L3"] += probes * resident
        counts["mem"] += probes * (1.0 - resident)
        counts["stall"] += probes * (
            2.0 + RANDOM_STALLS * (1.0 - resident)
        )
        # Binary search inside each node.
        fanout = max(4.0, self.profile.btree_node_bytes / 32.0)
        counts["other"] += probes * depth * math.log2(fanout)

    # -- per-node estimates -------------------------------------------------

    def _node(self, node: Logical) -> NodeEnergy:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Filter):
            child = self._node(node.child)
            counts = _zero_counts()
            counts["L1D"] += child.rows * 8.0
            counts["other"] += child.rows * 4.0
            rows = child.rows * predicate_selectivity(node.predicate)
            return self._finish("Filter", rows, child.row_bytes, counts,
                                [child])
        if isinstance(node, Project):
            child = self._node(node.child)
            counts = _zero_counts()
            row_bytes = 8.0 * len(node.outputs)
            self._produce(counts, child.rows)
            counts["other"] += child.rows * 2.0 * len(node.outputs)
            return self._finish("Project", child.rows, row_bytes, counts,
                                [child])
        if isinstance(node, Aggregate):
            return self._aggregate(node)
        if isinstance(node, Sort):
            return self._sort(node)
        if isinstance(node, Limit):
            child = self._node(node.child)
            rows = min(child.rows, float(node.n))
            fraction = min(1.0, float(node.n) / max(child.rows, 1.0))
            capped = child.startup_j + (
                (child.total_j - child.startup_j) * fraction
            )
            capped_child = NodeEnergy(
                child.label, child.rows, child.row_bytes, child.counts,
                child.energy_j, child.startup_j, capped, child.children,
                child.breakdown_j,
            )
            return self._finish("Limit", rows, child.row_bytes,
                                _zero_counts(), [capped_child],
                                startup_j=child.startup_j)
        if isinstance(node, Distinct):
            child = self._node(node.child)
            counts = _zero_counts()
            counts["L1D"] += child.rows * 2.0
            counts["other"] += child.rows
            self._produce(counts, child.rows * 0.5)
            return self._finish("Distinct", child.rows * 0.5,
                                child.row_bytes, counts, [child])
        raise PlanError(f"unknown logical node {type(node).__name__}")

    def _table(self, name: str) -> tuple[TableDef, float, float]:
        table = self.catalog.table(name)
        n_rows = float(table.storage.n_rows)
        return table, n_rows, n_rows * table.schema.row_size

    def _scan(self, node: Scan) -> NodeEnergy:
        table, n_rows, table_bytes = self._table(node.table)
        row_bytes = float(table.schema.row_size)
        sel = self._scan_selectivity(node.table, node.predicate)
        counts = _zero_counts()

        access = node.access
        if access is None and (self.profile.prefer_index_scan
                               and node.predicate is not None):
            # Mirror the planner: these profiles turn a range conjunct
            # on an indexed column into a range scan on their own.
            chosen = choose_range_conjunct(table, node.predicate)
            if chosen is not None:
                access = chosen[0]
        if access in (None, "seq"):
            self._visit(counts, n_rows)
            self._stream(counts, table_bytes)
            return self._finish(f"Scan({node.table})", n_rows * sel,
                                row_bytes, counts, [])
        if access == "index_order":
            # Walk a secondary index in key order, chasing each entry to
            # its row: every fetch is a random access (Figure 6's
            # pointer-chasing index scan).
            self._stream(counts, n_rows * 16.0)  # the leaf entry walk
            self._descend(counts, n_rows, n_rows, table_bytes)
            self._visit(counts, n_rows)
            return self._finish(f"IndexOrderScan({node.table})",
                                n_rows * sel, row_bytes, counts, [])

        # Range scan on `access`: one descent finds the start, matched
        # entries stream from the leaves, and each match costs a row
        # visit.  Secondary indexes additionally chase every match to
        # the base row (clustered-PK ranges read rows in storage order).
        matched = n_rows * self._range_fraction(node, access)
        self._descend(counts, n_rows, 1.0, table_bytes)
        clustered_pk = (
            self.profile.table_storage == CLUSTERED
            and table.primary_key == access
        )
        if clustered_pk:
            self._stream(counts, matched * row_bytes)
        else:
            self._stream(counts, matched * 16.0)  # index leaf entries
            self._descend(counts, n_rows, matched, table_bytes)
        self._visit(counts, matched)
        return self._finish(f"RangeScan({node.table}.{access})",
                            n_rows * sel, row_bytes, counts, [])

    def _range_fraction(self, node: Scan, column: str) -> float:
        """Fraction of the table the range conjunct on ``column`` keeps."""
        from repro.db.exprs import conjuncts

        for part in conjuncts(node.predicate):
            bounds = _range_bounds(part)
            if bounds is not None and bounds[0] == column:
                sampled = self._sampled(node.table, part)
                if sampled is None:
                    return conjunct_selectivity(part)
                return sampled
        return 1.0

    def _join(self, node: Join) -> NodeEnergy:
        left = self._node(node.left)
        counts = _zero_counts()
        if node.kind in ("semi", "anti"):
            out_rows = left.rows * DEFAULT_SELECTIVITY
        else:
            out_rows = None  # fixed below once the right side is known

        if (self.profile.join_strategy == INDEX_NL_JOIN
                and index_nl_column(self.catalog, node) is not None):
            table, n_rows, table_bytes = self._table(node.right.table)
            right_bytes = float(table.schema.row_size)
            if out_rows is None:
                right_rows = n_rows * self._scan_selectivity(
                    node.right.table, node.right.predicate)
                out_rows = self._join_rows(node, left.rows, right_rows)
            # Every left row descends once and then visits every *key*
            # match — the inner scan's own predicate filters rows only
            # after they are fetched, so the visit count is the join
            # cardinality with that predicate stripped.  (This is what
            # makes probing a big table from a small unfiltered outer
            # expensive even when few rows survive the filter.)
            bare = node if node.right.predicate is None else (
                dataclasses.replace(
                    node,
                    right=dataclasses.replace(node.right, predicate=None),
                )
            )
            visits = self._join_rows(bare, left.rows, float(n_rows))
            self._descend(counts, n_rows, left.rows, table_bytes)
            self._visit(counts, max(visits, out_rows))
            rows = out_rows
            row_bytes = left.row_bytes + right_bytes
            if node.kind in ("semi", "anti"):
                row_bytes = left.row_bytes
            self._produce(counts, rows)
            return self._finish(f"IndexNLJoin({node.right.table})", rows,
                                row_bytes, counts, [left],
                                startup_j=left.startup_j)

        right = self._node(node.right)
        rows = (out_rows if out_rows is not None
                else self._join_rows(node, left.rows, right.rows))
        row_bytes = left.row_bytes + right.row_bytes
        if node.kind in ("semi", "anti"):
            row_bytes = left.row_bytes
        # Build on the right, mirroring the executor's chained table:
        # every insert and probe is one dependent bucket access plus
        # hash arithmetic; inserts store a fixed-width entry; each
        # emitted match walks one chain link.  The table's arena
        # working set is small (entry cursor wraps), so accesses price
        # at L2; only the entry *count* can overflow work_mem.
        probes = left.rows + right.rows
        counts["L2"] += probes + rows
        counts["stall"] += probes + rows
        counts["other"] += probes * 3.0 + rows
        counts["Reg2L1D"] += right.rows * (HASH_ENTRY_BYTES / 8.0)
        hash_bytes = HASH_BUCKET_BYTES + right.rows * HASH_ENTRY_BYTES
        spill = max(0.0, hash_bytes - self.profile.work_mem_bytes)
        if spill > 0:
            counts["mem"] += 2.0 * spill / LINE
            counts["stall"] += (spill / LINE) * STREAM_STALLS
        self._produce(counts, rows)
        build_j = (right.total_j
                   + self.pricing.total_j(counts) * (right.rows / probes))
        return self._finish(f"HashJoin({node.kind})", rows, row_bytes,
                            counts, [left, right],
                            startup_j=left.startup_j + build_j)

    def _aggregate(self, node: Aggregate) -> NodeEnergy:
        child = self._node(node.child)
        counts = _zero_counts()
        groups = math.sqrt(child.rows) if node.group_by else 1.0
        n_aggs = max(1, len(node.aggs))
        counts["L1D"] += child.rows * 2.0
        counts["other"] += child.rows * (2.0 + n_aggs)
        counts["Reg2L1D"] += child.rows * (n_aggs / 2.0)
        row_bytes = 8.0 * (len(node.group_by) + len(node.aggs))
        self._produce(counts, groups)
        sel = (predicate_selectivity(node.having)
               if node.having is not None else 1.0)
        return self._finish("Aggregate", groups * sel, row_bytes, counts,
                            [child], blocking=True)

    def _sort(self, node: Sort) -> NodeEnergy:
        child = self._node(node.child)
        n = max(child.rows, 2.0)
        row_bytes = child.row_bytes
        counts = _zero_counts()
        limit = node.limit
        heap_ok = (limit is not None
                   and limit * row_bytes <= self.profile.work_mem_bytes)
        if heap_ok:
            # Streaming top-N heap.  An input that fits in the heap is
            # buffered and sorted exactly like the full sort (but always
            # cache-resident, and never spilling); past the fill, each
            # row pays one root compare and only the expected
            # ~limit·ln(n/limit) entrants pay the log-depth sift-down,
            # the row store, and the final output sort.
            k = float(max(1, limit))
            if n <= k:
                inserts = n
                comparisons = n * max(1.0, math.ceil(math.log2(n)))
            else:
                admits = k * (1.0 + math.log(n / k))
                inserts = k + admits
                comparisons = (
                    (n - k)                                   # root tests
                    + 2.0 * k                                 # heapify
                    + admits * max(1.0, math.log2(k + 1.0))   # sift-downs
                    + k * max(1.0, math.ceil(math.log2(max(k, 2.0))))
                )
            counts["L1D"] += 2.0 * comparisons
            counts["other"] += comparisons
            counts["Reg2L1D"] += inserts * (row_bytes / 8.0)
            rows = min(child.rows, k)
            self._produce(counts, rows)
            return self._finish(f"TopNHeap({limit})", rows, row_bytes,
                                counts, [child], blocking=True)
        # Full materialising sort: store every row, n·log2(n) compares
        # over a buffer whose residency follows work_mem, spill past it.
        total_bytes = n * row_bytes
        comparisons = n * max(1.0, math.ceil(math.log2(n)))
        resident = min(1.0, self.profile.work_mem_bytes
                       / max(total_bytes, 1.0))
        counts["Reg2L1D"] += n * (row_bytes / 8.0)
        counts["L1D"] += 2.0 * comparisons * resident
        counts["L2"] += 2.0 * comparisons * (1.0 - resident)
        counts["other"] += comparisons
        spill = max(0.0, total_bytes - self.profile.work_mem_bytes)
        if spill > 0:
            counts["mem"] += 2.0 * spill / LINE
            counts["stall"] += (spill / LINE) * STREAM_STALLS
        rows = child.rows if limit is None else min(child.rows, float(limit))
        self._produce(counts, rows)
        return self._finish("Sort", rows, row_bytes, counts, [child],
                            blocking=True)
