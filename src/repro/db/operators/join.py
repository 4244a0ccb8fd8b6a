"""Join operators: hash join and index nested-loop join.

* :class:`HashJoinOp` — PostgreSQL/MySQL-8 style: build a hash table on
  the right child (spilling when it exceeds ``work_mem``), probe with
  the left child.  Supports inner, left-outer, semi, and anti joins.
* :class:`IndexNLJoinOp` — SQLite style: for each outer row, look the
  join key up in the inner table's B-tree (primary key or secondary
  index).  Dependent pointer-chasing per probe.

Join memory behaviour is modelled, not just counted: hash buckets and
entries live in the query's temp arena, so their loads/stores flow
through the simulated cache hierarchy like everything else.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import PlanError
from repro.db.catalog import TableDef
from repro.db.exprs import Expr, columns_used
from repro.db.operators.base import ExecContext, PhysicalOp
from repro.seeding import stable_hash
from repro.db.table import ClusteredTable, HeapTable
from repro.db.types import Row

INNER = "inner"
LEFT = "left"
SEMI = "semi"
ANTI = "anti"
JOIN_KINDS = (INNER, LEFT, SEMI, ANTI)

#: Modelled bytes per hash-table entry (key + pointer + padding); the
#: cost model (``db.costs``) sizes hash traffic with the same figure.
HASH_ENTRY_BYTES = 24


class _ModeledHashTable:
    """A chained hash table in the temp arena with op accounting."""

    def __init__(self, ctx: ExecContext, est_entries: int, label: str):
        self.ctx = ctx
        n_buckets = max(64, 1 << (max(1, est_entries)).bit_length())
        self.n_buckets = n_buckets
        self.buckets_region = ctx.temp.alloc(n_buckets * 8, label=f"{label}/buckets")
        self.entries_region = ctx.temp.alloc(
            max(64, est_entries) * HASH_ENTRY_BYTES, label=f"{label}/entries"
        )
        self._cursor = 0
        self._map: dict = {}
        self.n_entries = 0
        #: key -> bucket byte offset.  ``stable_hash`` is a recursive
        #: Python fold, far more expensive than the dict probe, and
        #: join keys repeat heavily (foreign keys), so the offset is
        #: computed once per distinct key — the addresses (and thus
        #: every charged micro-op) are identical either way.
        self._bucket_offs: dict = {}

    def _bucket_addr(self, key) -> int:
        machine = self.ctx.machine
        machine.mul(1)
        machine.add(1)
        off = self._bucket_offs.get(key)
        if off is None:
            off = (stable_hash(key) % self.n_buckets) * 8
            self._bucket_offs[key] = off
        return self.buckets_region.base + off

    def insert(self, key, value) -> None:
        machine = self.ctx.machine
        machine.load(self._bucket_addr(key), dependent=True)
        entry_addr = self.entries_region.base + (
            self._cursor % max(1, self.entries_region.size - HASH_ENTRY_BYTES)
        )
        machine.store_bytes(entry_addr, HASH_ENTRY_BYTES)
        self._cursor += HASH_ENTRY_BYTES
        self._map.setdefault(key, []).append(value)
        self.n_entries += 1

    def probe(self, key) -> list:
        machine = self.ctx.machine
        machine.load(self._bucket_addr(key), dependent=True)
        matches = self._map.get(key, [])
        # Walk the chain: one dependent load + compare per entry.
        for _ in matches:
            machine.load(self.entries_region.base, dependent=True)
            machine.cmp(1)
        if not matches:
            machine.cmp(1)
        return matches

    @property
    def bytes_used(self) -> int:
        return self.n_buckets * 8 + self.n_entries * HASH_ENTRY_BYTES


class HashJoinOp(PhysicalOp):
    """Hash join: builds on the right child, probes with the left.

    Output schema is ``left ++ right`` for inner/left joins and just
    ``left`` for semi/anti joins.
    """

    def __init__(self, left: PhysicalOp, right: PhysicalOp,
                 left_key: Expr, right_key: Expr, kind: str = INNER):
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.kind = kind
        if kind in (SEMI, ANTI):
            self.schema = left.schema
        else:
            self.schema = left.schema.concat(right.schema)
        self._null_right = tuple([None] * len(right.schema))

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"HashJoin[{self.kind}]"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        machine = ctx.machine
        build_key = self.right_key.compile(self.right.schema, machine)
        probe_key = self.left_key.compile(self.left.schema, machine)
        table = _ModeledHashTable(
            ctx, est_entries=1024, label=f"hashjoin/{id(self) & 0xffff:x}"
        )
        build_rows = 0
        for row in self.right.traced_rows(ctx):
            table.insert(build_key(row), row)
            build_rows += 1
        overflow = table.bytes_used - ctx.profile.work_mem_bytes
        if overflow > 0:
            ctx.spill(overflow)
        produce = ctx.produce_overhead
        semi = self.kind == SEMI
        anti = self.kind == ANTI
        left_outer = self.kind == LEFT
        for row in self.left.traced_rows(ctx):
            matches = table.probe(probe_key(row))
            if semi:
                if matches:
                    produce()
                    yield row
                continue
            if anti:
                if not matches:
                    produce()
                    yield row
                continue
            if matches:
                for match in matches:
                    produce()
                    yield row + match
            elif left_outer:
                produce()
                yield row + self._null_right


class IndexNLJoinOp(PhysicalOp):
    """Index nested-loop join: probe the inner table's tree per outer row.

    ``inner_column`` must be the inner table's clustered key or an
    indexed column.  Output schema is ``outer ++ inner`` (or ``outer``
    for semi/anti).
    """

    def __init__(self, outer: PhysicalOp, inner: TableDef,
                 outer_key: Expr, inner_column: str, kind: str = INNER,
                 inner_predicate: Optional[Expr] = None,
                 touched_inner: Optional[Sequence[str]] = None):
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_column = inner_column
        self.kind = kind
        self.inner_predicate = inner_predicate
        storage = inner.storage
        inner_schema = inner.schema
        self._inner_key_index = inner_schema.index_of(inner_column)
        self._clustered_key = (
            isinstance(storage, ClusteredTable)
            and storage.key_column == self._inner_key_index
        )
        self.index = None if self._clustered_key else inner.index_on(inner_column)
        if not self._clustered_key and self.index is None:
            raise PlanError(
                f"no access path for NL join on {inner.name}.{inner_column}"
            )
        needed: set[str] = set(touched_inner or inner_schema.names())
        if inner_predicate is not None:
            needed.update(columns_used(inner_predicate))
        self._needed = tuple(sorted(inner_schema.index_of(n) for n in needed))
        if kind in (SEMI, ANTI):
            self.schema = outer.schema
        else:
            self.schema = outer.schema.concat(inner_schema)
        self._null_inner = tuple([None] * len(inner_schema))

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.outer,)

    def describe(self) -> str:
        return (
            f"IndexNLJoin[{self.kind}]({self.inner.name}.{self.inner_column})"
        )

    def _lookup(self, key) -> list[Row]:
        storage = self.inner.storage
        if self._clustered_key:
            assert isinstance(storage, ClusteredTable)
            row = storage.key_lookup(key, self._needed)
            return [row] if row is not None else []
        assert self.index is not None
        out = []
        # Secondary indexes may be non-unique: scan the [key, key] range.
        for _k, payload, _addr in self.index.tree.range_scan(key, key):
            if isinstance(storage, HeapTable):
                row = storage.fetch_row(payload, self._needed)
            else:
                assert isinstance(storage, ClusteredTable)
                row = storage.key_lookup(payload, self._needed)
            if row is not None:
                out.append(row)
        return out

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        machine = ctx.machine
        outer_key = self.outer_key.compile(self.outer.schema, machine)
        inner_pred = (
            self.inner_predicate.compile(self.inner.schema, machine)
            if self.inner_predicate is not None else None
        )
        produce = ctx.produce_overhead
        semi = self.kind == SEMI
        anti = self.kind == ANTI
        left_outer = self.kind == LEFT
        for row in self.outer.traced_rows(ctx):
            matches = self._lookup(outer_key(row))
            if inner_pred is not None:
                matches = [m for m in matches if inner_pred(m)]
            if semi:
                if matches:
                    produce()
                    yield row
                continue
            if anti:
                if not matches:
                    produce()
                    yield row
                continue
            if matches:
                for match in matches:
                    produce()
                    yield row + match
            elif left_outer:
                produce()
                yield row + self._null_inner
