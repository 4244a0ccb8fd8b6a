"""The Database facade: load tables, plan, and execute queries.

One :class:`Database` is one engine flavour (an
:class:`~repro.db.profiles.EngineProfile`) bound to one simulated
machine.  It owns the catalog, the buffer pool / pagers, the temp
arena, and the output sink, and exposes:

* :meth:`create_table` — bulk-load rows into the profile's storage
  organisation and build requested secondary indexes;
* :meth:`plan` — lower a logical tree for this engine;
* :meth:`execute` — run a plan and return its result rows (while the
  machine counts every micro-op);
* :meth:`explain` — the physical plan as text.

Execution resets the temp arena (reusing its addresses, like a real
allocator) and streams result tuples into the output sink.
"""

from __future__ import annotations

import logging
from typing import Iterator, Optional, Sequence, Union

from repro.errors import DatabaseError
from repro.db.bufferpool import BufferPool, PoolStats
from repro.db.btree import BTree
from repro.db.catalog import Catalog, IndexDef, TableDef
from repro.db.operators.base import ExecContext, OutputSink, PhysicalOp, TempArena
from repro.db.planner import Logical, Planner
from repro.db.profiles import CLUSTERED, HEAP, EngineProfile
from repro.db.table import build_clustered, build_heap
from repro.db.types import Row, Schema
from repro.sim.machine import Machine

logger = logging.getLogger(__name__)


class ExecSession:
    """One re-entrant execution of one physical plan.

    :meth:`Database.execute` serialises queries through the database's
    shared temp arena and output sink; interleaved (time-sliced)
    executions would corrupt each other there.  A session owns private
    copies of both, carved from a per-*slot* resource pool so that
    queries scheduled into the same slot reuse warm arena addresses —
    the same allocator-reuse behaviour the shared path models.

    The session also snapshots the buffer pool's counters at creation,
    so per-query hit rates stay exact under interleaving (see
    :class:`~repro.db.bufferpool.PoolStats`).
    """

    def __init__(self, db: "Database", physical: PhysicalOp,
                 temp: TempArena, sink: OutputSink, slot: int):
        self.db = db
        self.physical = physical
        self.slot = slot
        self.rows_emitted = 0
        self.finished = False
        self._temp = temp
        self._sink = sink
        temp.reset()
        self._pool_base: Optional[PoolStats] = (
            db._pool.stats() if db._pool is not None else None
        )
        self.ctx = ExecContext(
            machine=db.machine,
            profile=db.profile,
            catalog=db.catalog,
            temp=temp,
            sink=sink,
            state_region=db.state_region,
            state_overflow_region=db.state_overflow_region,
            cold_region=db.cold_region,
        )

    def rows(self) -> Iterator[Row]:
        """The plan's row generator; safe to advance one row at a time
        interleaved with other sessions."""
        row_bytes = self.physical.schema.row_size
        emit = self._sink.emit
        for row in self.physical.rows(self.ctx):
            emit(row_bytes)
            self.rows_emitted += 1
            yield row
        self.finished = True

    def pool_stats(self) -> PoolStats:
        """Buffer-pool counter delta attributable to this session so far."""
        if self._pool_base is None:
            pool = self.db._pool
            if pool is None:
                return PoolStats()
            # The pool came to life mid-session: everything it counted
            # happened after this session's baseline.
            return pool.stats()
        return self.db._pool.stats_since(self._pool_base)


class SessionRows:
    """A session's row stream speaking the batched-quantum protocol.

    :meth:`Database.execute_iter` returns one of these instead of a
    bare generator, so every plan-backed consumer — the serve loop's
    quanta, the cluster coordinator's shard drains — can execute whole
    batches with one call while per-row ``next()`` keeps working
    unchanged.

    :meth:`run_rows` advances the plan ``n`` rows inside a single
    call: the operator tree is *re-entered once* (the plan's operators
    live as suspended generator frames — scan/filter/project resume
    mid-loop, aggregate/sort/top-N resume mid-build or mid-drain — so
    a quantum boundary spills exactly the iterator state those frames
    hold), and each row crosses only the generator chain, never the
    caller's per-row dispatch.  The exactness contract is structural:
    ``run_rows(n)`` *is* ``n`` pulls of the same generator, so it
    charges precisely the micro-ops ``n`` single-row ``next()`` calls
    would — byte-identical counters, energy, and cache state by
    construction, whichever protocol the consumer picks
    (``tests/serve/test_engine_equivalence.py`` holds it to that).
    """

    __slots__ = ("session", "_rows")

    def __init__(self, session: ExecSession):
        self.session = session
        self._rows = session.rows()

    def __iter__(self) -> "SessionRows":
        return self

    def __next__(self) -> Row:
        return next(self._rows)

    def run_rows(self, n: int) -> int:
        """Produce up to ``n`` rows in one re-entry of the plan;
        returns how many were produced (fewer than asked = plan
        exhausted — the serve loop's end-of-stream signal)."""
        rows = self._rows
        done = 0
        try:
            for _ in range(n):
                next(rows)
                done += 1
        except StopIteration:
            pass
        return done

    def fetch_all(self) -> list[Row]:
        """Materialise every remaining row (bulk consumers: the
        cluster coordinator's per-shard result collection)."""
        return list(self._rows)

    def drain(self) -> int:
        """Run the plan to exhaustion, discarding rows; returns the
        row count (crashed-attempt accounting wants the charges, not
        the tuples)."""
        done = 0
        while True:
            got = self.run_rows(1024)
            done += got
            if got < 1024:
                return done


class Database:
    """One engine instance over one simulated machine."""

    def __init__(self, machine: Machine, profile: EngineProfile,
                 name: str = "db"):
        self.machine = machine
        self.profile = profile
        self.name = name
        self.catalog = Catalog()
        self._pool: Optional[BufferPool] = None
        self._next_file_id = 1
        self._next_block = 0
        arena_bytes = max(1 << 20, profile.work_mem_bytes * 2)
        self._temp = TempArena(machine, arena_bytes, label=f"{name}/temp")
        self._sink = OutputSink(machine)
        #: Per-slot (TempArena, OutputSink) pairs for re-entrant sessions.
        self._slot_resources: dict[int, tuple[TempArena, OutputSink]] = {}
        #: Hot interpreter/executor state (the sqlite3VdbeExec() analogue);
        #: the TCM co-design swaps in a DTCM region via set_state_region.
        self.state_region = machine.address_space.alloc(
            4096, label=f"{name}/engine-state"
        )
        self.state_overflow_region = None
        #: Larger, weak-locality working set (buffer descriptors, catalog
        #: caches); sized relative to L1D so scaled machines keep the
        #: same L2/L3-resident regime.
        self.cold_region = machine.address_space.alloc(
            machine.config.l1d.size * profile.cold_state_l1d_multiple,
            label=f"{name}/cold-state",
        )
        #: Write-ahead-log ring buffer (DML appends records here).
        self._wal_region = machine.address_space.alloc(
            64 * 1024, label=f"{name}/wal"
        )
        self._wal_cursor = 0
        self._planner = Planner(self.catalog, profile)
        #: Optional logical-plan optimizer (see :mod:`repro.db.optimizer`);
        #: when set, :meth:`plan` rewrites every logical tree through it
        #: before lowering.  Off by default: hand-built plans run as
        #: written unless a caller sets it.
        self.optimizer = None

    # ------------------------------------------------------------ loading

    @property
    def pool(self) -> BufferPool:
        """Lazily-created shared buffer pool (heap storage engines)."""
        if self._pool is None:
            self._pool = BufferPool(
                self.machine,
                self.profile.buffer_pool_bytes,
                self.profile.page_size,
                label=f"{self.name}/pool",
            )
        return self._pool

    def create_table(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[Row],
        primary_key: Optional[str] = None,
        indexes: Sequence[str] = (),
    ) -> TableDef:
        """Bulk-load a table in this profile's organisation.

        ``primary_key`` defaults to the first column; clustered storage
        sorts and keys the table B-tree by it.  ``indexes`` lists extra
        columns to build secondary B-trees on.
        """
        pk = primary_key or schema.names()[0]
        pk_index = schema.index_of(pk)
        rows = [tuple(r) for r in rows]
        if self.profile.table_storage == CLUSTERED:
            pager_pages = max(
                1, self.profile.buffer_pool_bytes // self.profile.btree_node_bytes
            )
            storage = build_clustered(
                self.machine, schema, pk_index, rows,
                node_bytes=self.profile.btree_node_bytes,
                pager_pages=pager_pages,
                first_block=self._next_block,
                name=name,
            )
            n_pages = storage.tree.n_nodes
        elif self.profile.table_storage == HEAP:
            storage = build_heap(
                self.machine, schema, rows,
                page_size=self.profile.page_size,
                pool=self.pool,
                file_id=self._next_file_id,
                first_block=self._next_block,
            )
            self._next_file_id += 1
            n_pages = storage.file.n_pages
        else:
            raise DatabaseError(
                f"unknown table storage {self.profile.table_storage!r}"
            )
        self._next_block += n_pages + 1
        table = TableDef(name=name, schema=schema, storage=storage,
                         primary_key=pk)
        self.catalog.add_table(table)
        # Heap tables always get a primary-key index (every real engine
        # enforces the PK); clustered tables *are* their PK index.
        if self.profile.table_storage == HEAP:
            self._build_index(table, pk)
        for column in indexes:
            if column != pk or self.profile.table_storage != HEAP:
                self._build_index(table, column)
        return table

    def _build_index(self, table: TableDef, column: str) -> None:
        schema = table.schema
        col_index = schema.index_of(column)
        pk_index = schema.index_of(table.primary_key)
        clustered = self.profile.table_storage == CLUSTERED
        if clustered and col_index == pk_index:
            return  # the clustered tree already serves this column
        tree = BTree(
            self.machine,
            f"{table.name}.{column}",
            payload_bytes=8,
            node_bytes=self.profile.btree_node_bytes,
        )
        pairs = []
        if clustered:
            for row in (r for r, _ in table.storage.seq_scan(())):
                pairs.append((row[col_index], row[pk_index]))
        else:
            storage = table.storage
            for i in range(storage.file.n_rows):
                page_no, slot = storage.file.locate(i)
                row = storage.file.row_at(page_no, slot)
                pairs.append((row[col_index], (page_no, slot)))
        pairs.sort(key=lambda p: p[0])
        tree.bulk_load(pairs)
        self.catalog.add_index(
            IndexDef(
                name=f"idx_{table.name}_{column}",
                table_name=table.name,
                column=column,
                tree=tree,
                via_primary_key=clustered,
            )
        )

    # ------------------------------------------------------------ running

    def plan(self, logical: Logical) -> PhysicalOp:
        if self.optimizer is not None:
            logical = self.optimizer.optimize(logical).plan
        return self._planner.lower(logical)

    def sql(self, text: str):
        """Parse and execute one statement.

        SELECT returns the result rows; INSERT/UPDATE/DELETE return the
        affected-row count.
        """
        from repro.db.sql import ast
        from repro.db.sql.parser import parse_statement
        from repro.db.sql.translate import _Translator, bind_dml

        stmt = parse_statement(text)
        with self.machine.tracer.span("sql", category="sql",
                                      statement=text, engine=self.name):
            if isinstance(stmt, ast.SelectStmt):
                return self.execute(
                    _Translator(self.catalog, stmt).translate()
                )
            if isinstance(stmt, ast.InsertStmt):
                return self.insert(stmt.table, stmt.rows)
            if isinstance(stmt, ast.UpdateStmt):
                assignments, predicate = bind_dml(self.catalog, stmt)
                return self.update(stmt.table, assignments, predicate)
            if isinstance(stmt, ast.DeleteStmt):
                return self.delete(stmt.table, bind_dml(self.catalog, stmt))
        raise DatabaseError(f"unsupported statement {type(stmt).__name__}")

    def sql_plan(self, text: str) -> Logical:
        """Parse and bind a SELECT statement without executing it."""
        from repro.db.sql.translate import sql_to_plan

        return sql_to_plan(self.catalog, text)

    def explain(self, query: Union[Logical, PhysicalOp]) -> str:
        physical = query if isinstance(query, PhysicalOp) else self.plan(query)
        return physical.explain()

    def execute(self, query: Union[Logical, PhysicalOp]) -> list[Row]:
        """Run a query; returns the result rows.

        Every result tuple is materialised into the output sink (its
        stores are the "output stream" temporary data of §3.2); result
        *display* stays disabled, as in the paper's modified kernels.
        """
        physical = query if isinstance(query, PhysicalOp) else self.plan(query)
        self._temp.reset()
        tracer = self.machine.tracer
        ctx = ExecContext(
            machine=self.machine,
            profile=self.profile,
            catalog=self.catalog,
            temp=self._temp,
            sink=self._sink,
            state_region=self.state_region,
            state_overflow_region=self.state_overflow_region,
            cold_region=self.cold_region,
            tracer=tracer,
        )
        row_bytes = physical.schema.row_size
        out: list[Row] = []
        emit = self._sink.emit
        with tracer.span("execute", category="query", engine=self.name,
                         plan_root=physical.describe()):
            for row in physical.traced_rows(ctx):
                emit(row_bytes)
                out.append(row)
        logger.debug("%s: executed %s -> %d rows",
                     self.name, physical.describe(), len(out))
        return out

    def session(self, query: Union[Logical, PhysicalOp],
                slot: int = 0) -> ExecSession:
        """Open a re-entrant execution of ``query`` (see
        :class:`ExecSession`).  Sessions with distinct slots may be
        advanced interleaved; consecutive sessions in one slot reuse the
        slot's (warm) temp arena and sink."""
        physical = query if isinstance(query, PhysicalOp) else self.plan(query)
        resources = self._slot_resources.get(slot)
        if resources is None:
            arena_bytes = max(1 << 20, self.profile.work_mem_bytes * 2)
            resources = (
                TempArena(self.machine, arena_bytes,
                          label=f"{self.name}/temp.slot{slot}"),
                OutputSink(self.machine),
            )
            self._slot_resources[slot] = resources
        return ExecSession(self, physical, resources[0], resources[1], slot)

    def execute_iter(self, query: Union[Logical, PhysicalOp],
                     slot: int = 0) -> SessionRows:
        """Stream a query's rows (re-entrant form of :meth:`execute`).

        The returned :class:`SessionRows` is a plain row iterator that
        additionally speaks the batched-quantum protocol
        (``run_rows``), so the serve loop and the cluster coordinator
        execute plan-backed work in bulk while ad-hoc callers keep
        iterating row by row."""
        return SessionRows(self.session(query, slot=slot))

    # ------------------------------------------------------------ DML
    #
    # The paper profiles read queries only and leaves write energy as
    # future work (§2.3); the write path exists so downstream studies
    # can take that step (see repro.analysis.experiments.ext_writes).

    def _dml_row_overhead(self, row_bytes: int) -> None:
        """Per-modified-row engine work: the same interpreter that runs
        reads (§3.2's hot state), plus a WAL record append."""
        machine = self.machine
        profile = self.profile
        machine.hot_loads(self.state_region.base, profile.state_loads_per_row)
        machine.hot_stores(self.state_region.base, profile.state_stores_per_row)
        machine.other(profile.state_other_per_row)
        machine.branch(profile.state_branch_per_row // 2)
        machine.add(profile.state_add_per_row // 2)
        record = row_bytes + 24  # LSN + table id + checksum
        # Wrap on the *padded* size: the cursor advances by the aligned
        # footprint, so checking the raw record length let a record start
        # at a cursor whose aligned end fell past the region, pushing the
        # next append (and its store traffic) beyond the WAL arena.
        padded = (record + 7) // 8 * 8
        if self._wal_cursor + padded > self._wal_region.size:
            self._wal_cursor = 0
        machine.store_bytes(self._wal_region.base + self._wal_cursor, record)
        self._wal_cursor += padded

    def insert(self, table_name: str, rows: Sequence[Row]) -> int:
        """Insert rows, maintaining every index; returns the count."""
        table = self.catalog.table(table_name)
        schema = table.schema
        pk_index = schema.index_of(table.primary_key)
        clustered = self.profile.table_storage == CLUSTERED
        n = 0
        for row in rows:
            row = tuple(row)
            if len(row) != len(schema):
                raise DatabaseError(
                    f"row arity {len(row)} != schema arity {len(schema)}"
                )
            self._dml_row_overhead(schema.row_size)
            rowref = table.storage.insert(row)
            for index in table.indexes.values():
                key = row[schema.index_of(index.column)]
                payload = row[pk_index] if clustered else rowref
                index.tree.insert(key, payload)
            n += 1
        return n

    def update(self, table_name: str, assignments: dict,
               predicate=None) -> int:
        """UPDATE ... SET: returns the number of rows changed.

        ``assignments`` maps column names to expressions (or plain
        values).  Changing the primary key is rejected — real engines
        implement that as delete+insert, and so should callers.
        """
        from repro.db.exprs import Const, Expr

        table = self.catalog.table(table_name)
        schema = table.schema
        if table.primary_key in assignments:
            raise DatabaseError(
                "updating the primary key is not supported; delete and "
                "re-insert instead"
            )
        compiled = {}
        for column, value in assignments.items():
            expr = value if isinstance(value, Expr) else Const(value)
            compiled[schema.index_of(column)] = expr.compile(
                schema, self.machine
            )
        pred = (predicate.compile(schema, self.machine)
                if predicate is not None else None)
        pk_index = schema.index_of(table.primary_key)
        clustered = self.profile.table_storage == CLUSTERED
        touched = tuple(range(len(schema)))
        changed = []
        for row, rowref in table.storage.seq_scan(touched):
            if pred is None or pred(row):
                changed.append((row, rowref))
        for old_row, rowref in changed:
            self._dml_row_overhead(schema.row_size)
            new_row = list(old_row)
            for col_index, fn in compiled.items():
                new_row[col_index] = fn(old_row)
            new_row = tuple(new_row)
            table.storage.update(rowref, new_row)
            # Maintain indexes whose key changed.
            for index in table.indexes.values():
                col_index = schema.index_of(index.column)
                if old_row[col_index] == new_row[col_index]:
                    continue
                payload = old_row[pk_index] if clustered else rowref
                index.tree.delete(old_row[col_index], payload)
                index.tree.insert(new_row[col_index], payload)
        return len(changed)

    def delete(self, table_name: str, predicate=None) -> int:
        """DELETE FROM: returns the number of rows removed.

        Heap tables tombstone (stale index entries are skipped lazily);
        clustered tables remove the tree entry, and their secondary
        indexes go stale the same lazy way.
        """
        table = self.catalog.table(table_name)
        schema = table.schema
        pred = (predicate.compile(schema, self.machine)
                if predicate is not None else None)
        touched = tuple(range(len(schema)))
        doomed = []
        for row, rowref in table.storage.seq_scan(touched):
            if pred is None or pred(row):
                doomed.append(rowref)
        for rowref in doomed:
            self._dml_row_overhead(24)  # tombstone record only
            table.storage.delete(rowref)
        return len(doomed)

    def set_state_region(self, region) -> None:
        """Relocate the engine's *key* hot structures (the §4.2 "special
        variables" strategy places 4KB of them in DTCM).  The previous
        region keeps the uncovered remainder of the state traffic."""
        self.state_overflow_region = self.state_region
        self.state_region = region

    def clear_caches(self) -> None:
        """Cold-start the storage layer (buffer pool and pagers)."""
        if self._pool is not None:
            self._pool.clear()
        for table in self.catalog.tables():
            storage = table.storage
            pager = getattr(storage, "pager", None)
            if pager is not None:
                pager.clear()
