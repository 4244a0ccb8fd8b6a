"""Logical query algebra and the per-engine physical planner.

Queries (TPC-H, the basic operations, and the SQL front-end) are built
as logical trees; :func:`lower` turns a logical tree into a physical
operator tree according to the engine profile's rules:

* **access paths** — engines with ``prefer_index_scan`` turn a range or
  equality conjunct on an indexed column into an index-range scan; the
  SQLite profile keeps its sequential-scan tendency (§3.3);
* **joins** — ``hash`` profiles build a hash table on the right child;
  ``index_nl`` profiles probe the inner table's B-tree per outer row
  when the join column has an access path, falling back to a hash join
  otherwise (SQLite's transient-index fallback);
* **column touching** — the planner collects every column name used
  anywhere in the query and tells each scan which of its columns are
  actually read, so untouched bytes are not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import PlanError
from repro.db.catalog import Catalog, TableDef
from repro.db.exprs import (
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    and_all,
    columns_used,
    conjuncts,
)
from repro.db.operators import (
    AggOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexNLJoinOp,
    IndexOrderScanOp,
    IndexRangeScanOp,
    LimitOp,
    ProjectOp,
    SeqScanOp,
    SortOp,
    TopNHeapOp,
)
from repro.db.operators.base import PhysicalOp
from repro.db.profiles import EngineProfile, HASH_JOIN, INDEX_NL_JOIN
from repro.db.table import ClusteredTable


# --------------------------------------------------------------- logical tree

@dataclass(frozen=True)
class Scan:
    """Read a base table, with an optional filter."""

    table: str
    predicate: Optional[Expr] = None
    #: force a particular access path: None (planner decides), "seq",
    #: "index_order" (the Figure 6 "index scan" operation), or a column
    #: name to range-scan on.
    access: Optional[str] = None


@dataclass(frozen=True)
class Join:
    left: "Logical"
    right: "Logical"
    left_key: Expr
    right_key: Expr
    kind: str = "inner"


@dataclass(frozen=True)
class Filter:
    child: "Logical"
    predicate: Expr


@dataclass(frozen=True)
class Project:
    child: "Logical"
    outputs: tuple  # of (name, Expr)


@dataclass(frozen=True)
class Aggregate:
    child: "Logical"
    group_by: tuple  # of (name, Expr)
    aggs: tuple      # of AggSpec
    having: Optional[Expr] = None


@dataclass(frozen=True)
class Sort:
    child: "Logical"
    keys: tuple  # of (Expr, desc)
    limit: Optional[int] = None


@dataclass(frozen=True)
class Limit:
    child: "Logical"
    n: int


@dataclass(frozen=True)
class Distinct:
    child: "Logical"


Logical = Union[Scan, Join, Filter, Project, Aggregate, Sort, Limit, Distinct]


# ----------------------------------------------------------- column gathering

def _exprs_of(node: Logical) -> list[Expr]:
    if isinstance(node, Scan):
        return [node.predicate] if node.predicate is not None else []
    if isinstance(node, Join):
        return [node.left_key, node.right_key]
    if isinstance(node, Filter):
        return [node.predicate]
    if isinstance(node, Project):
        return [e for _, e in node.outputs]
    if isinstance(node, Aggregate):
        out = [e for _, e in node.group_by]
        out += [s.expr for s in node.aggs if s.expr is not None]
        if node.having is not None:
            out.append(node.having)
        return out
    if isinstance(node, Sort):
        return [e for e, _ in node.keys]
    if isinstance(node, (Limit, Distinct)):
        return []
    raise PlanError(f"unknown logical node {type(node).__name__}")


def collect_used_columns(node: Logical) -> tuple[set[str], set[str]]:
    """Columns referenced in the tree, plus tables whose *full* rows
    reach the output.

    A scan that feeds the result without passing through a Project or
    Aggregate emits whole tuples, so every column of its table is
    touched (materialising the result reads all of it).  Semi/anti
    joins hide their right side; all other nodes pass visibility down.
    """
    used: set[str] = set()
    fully_visible: set[str] = set()
    stack: list[tuple[Logical, bool]] = [(node, True)]
    while stack:
        current, visible = stack.pop()
        for expr in _exprs_of(current):
            used.update(columns_used(expr))
        if isinstance(current, Scan):
            if visible:
                fully_visible.add(current.table)
        elif isinstance(current, Join):
            right_visible = visible and current.kind not in ("semi", "anti")
            stack.append((current.left, visible))
            stack.append((current.right, right_visible))
        elif isinstance(current, (Project, Aggregate)):
            stack.append((current.child, False))
        else:
            stack.append((current.child, visible))
    return used, fully_visible


# ------------------------------------------------------------------- lowering

@dataclass
class Planner:
    """Lowers logical trees for one engine profile over one catalog."""

    catalog: Catalog
    profile: EngineProfile

    def lower(self, node: Logical) -> PhysicalOp:
        used, fully_visible = collect_used_columns(node)
        self._fully_visible = fully_visible
        return self._lower(node, used)

    # -- scans ------------------------------------------------------------

    def _touched(self, table: TableDef, used: set[str]) -> list[str]:
        if table.name in getattr(self, "_fully_visible", ()):
            return list(table.schema.names())
        touched = [n for n in table.schema.names() if n in used]
        # A scan that touches nothing still reads its first column (the
        # row must at least be visited, e.g. COUNT(*) scans).
        return touched or [table.schema.names()[0]]

    def _lower_scan(self, node: Scan, used: set[str]) -> PhysicalOp:
        table = self.catalog.table(node.table)
        touched = self._touched(table, used)
        if node.access == "seq":
            return SeqScanOp(table, node.predicate, touched)
        if node.access == "index_order":
            # Prefer a secondary index: on clustered tables the primary
            # key *is* the storage order, so only a secondary index
            # exhibits the index-scan pointer chasing of Figure 6.  The
            # *last* registered secondary index is chosen: foreign-key
            # indexes registered first tend to correlate with load
            # order, while later ones (dates, attributes) do not —
            # giving the paper's weak-locality access pattern.
            column = None
            for index in table.indexes.values():
                if index.column != table.primary_key:
                    column = index.column
            if column is None and table.index_on(table.primary_key) is not None:
                column = table.primary_key
            if column is None:
                raise PlanError(
                    f"index-order scan needs an index on {table.name}"
                )
            return IndexOrderScanOp(table, column, node.predicate, touched)
        if node.access is not None:
            return self._range_scan(table, node.access, node.predicate, touched)
        # Planner's choice: try to turn one conjunct into an index range.
        if self.profile.prefer_index_scan and node.predicate is not None:
            chosen = choose_range_conjunct(table, node.predicate)
            if chosen is not None:
                column, lo, hi, residual = chosen
                return IndexRangeScanOp(table, column, lo, hi, residual, touched)
        return SeqScanOp(table, node.predicate, touched)

    def _range_scan(self, table: TableDef, column: str,
                    predicate: Optional[Expr], touched) -> PhysicalOp:
        parts = conjuncts(predicate)
        for i, part in enumerate(parts):
            bounds = _range_bounds(part)
            if bounds is not None and bounds[0] == column:
                _, lo, hi, keep = bounds
                rest = parts[:i] + parts[i + 1:]
                if keep:
                    rest = rest + [part]
                residual = and_all(rest)
                return IndexRangeScanOp(table, column, lo, hi, residual, touched)
        raise PlanError(
            f"forced range access on {column!r} but no range conjunct found"
        )

    # -- joins ------------------------------------------------------------

    def _lower_join(self, node: Join, used: set[str]) -> PhysicalOp:
        left = self._lower(node.left, used)
        if self.profile.join_strategy == INDEX_NL_JOIN:
            column = index_nl_column(self.catalog, node)
            if column is not None:
                table = self.catalog.table(node.right.table)
                return IndexNLJoinOp(
                    left, table, node.left_key, column, node.kind,
                    inner_predicate=node.right.predicate,
                    touched_inner=self._touched(table, used),
                )
        if self.profile.join_strategy not in (HASH_JOIN, INDEX_NL_JOIN):
            raise PlanError(
                f"unknown join strategy {self.profile.join_strategy!r}"
            )
        right = self._lower(node.right, used)
        return HashJoinOp(left, right, node.left_key, node.right_key, node.kind)

    # -- everything else ----------------------------------------------------

    def _lower(self, node: Logical, used: set[str]) -> PhysicalOp:
        if isinstance(node, Scan):
            return self._lower_scan(node, used)
        if isinstance(node, Join):
            return self._lower_join(node, used)
        if isinstance(node, Filter):
            return FilterOp(self._lower(node.child, used), node.predicate)
        if isinstance(node, Project):
            return ProjectOp(self._lower(node.child, used), node.outputs)
        if isinstance(node, Aggregate):
            agg = AggOp(self._lower(node.child, used), node.group_by, node.aggs)
            if node.having is not None:
                return FilterOp(agg, node.having)
            return agg
        if isinstance(node, Sort):
            child = self._lower(node.child, used)
            # A bounded sort whose kept rows fit in work_mem runs as a
            # streaming top-N heap instead of a full materialising sort
            # (same output: the heap tie-breaks on arrival order, which
            # is exactly the stable sort's prefix).
            limit = node.limit
            if (limit is not None
                    and limit * child.schema.row_size
                    <= self.profile.work_mem_bytes):
                return TopNHeapOp(child, node.keys, limit)
            return SortOp(child, node.keys, node.limit)
        if isinstance(node, Limit):
            return LimitOp(self._lower(node.child, used), node.n)
        if isinstance(node, Distinct):
            return DistinctOp(self._lower(node.child, used))
        raise PlanError(f"unknown logical node {type(node).__name__}")


def is_clustered_key(table: TableDef, column: str) -> bool:
    """True when ``column`` is the storage order of a clustered table."""
    storage = table.storage
    return (
        isinstance(storage, ClusteredTable)
        and storage.key_column == table.schema.index_of(column)
    )


def has_access_path(table: TableDef, column: str) -> bool:
    """True when ``column`` can be range-scanned (clustered key or
    secondary index) — the condition both the planner's access-path
    choice and the optimizer's access-path enumeration share."""
    return is_clustered_key(table, column) or (
        table.index_on(column) is not None
    )


def index_nl_column(catalog: Catalog, join: Join) -> Optional[str]:
    """The inner column an index nested-loop join would probe, or None.

    ``join`` lowers to an index nested loop (on ``index_nl`` profiles)
    only when its right side is a plain scan and its right key is a
    column of that table with an access path.  The planner and the
    energy model both ask this one question.
    """
    right = join.right
    if not isinstance(right, Scan) or right.access not in (None, "seq"):
        return None
    if not isinstance(join.right_key, Col):
        return None
    table = catalog.table(right.table)
    column = join.right_key.name
    if column not in table.schema or not has_access_path(table, column):
        return None
    return column


def choose_range_conjunct(table: TableDef, predicate: Expr):
    """Find a ``Between``/``Cmp`` conjunct on an indexed column; returns
    ``(column, lo, hi, residual)`` or None."""
    parts = conjuncts(predicate)
    for i, part in enumerate(parts):
        bounds = _range_bounds(part)
        if bounds is None:
            continue
        column, lo, hi, keep = bounds
        if column in table.schema and has_access_path(table, column):
            rest = parts[:i] + parts[i + 1:]
            if keep:
                rest = rest + [part]
            residual = and_all(rest)
            return column, lo, hi, residual
    return None


def _range_bounds(expr: Expr):
    """Extract ``(column, lo, hi, keep_conjunct)`` from a Between or a
    constant comparison.  ``keep_conjunct`` is True for strict bounds:
    the inclusive index range over-approximates, so the original
    conjunct must stay in the residual filter."""
    if isinstance(expr, Between) and isinstance(expr.part, Col):
        return expr.part.name, expr.lo, expr.hi, False
    if isinstance(expr, Cmp) and isinstance(expr.left, Col) and isinstance(
        expr.right, Const
    ):
        column = expr.left.name
        value = expr.right.value
        if expr.op == "=":
            return column, value, value, False
        if not isinstance(value, (int, float)):
            return None
        if expr.op == "<=":
            return column, float("-inf"), value, False
        if expr.op == "<":
            return column, float("-inf"), value, True
        if expr.op == ">=":
            return column, value, float("inf"), False
        if expr.op == ">":
            return column, value, float("inf"), True
    return None
