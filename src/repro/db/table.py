"""Table storage organisations: heap files and clustered B-trees.

* :class:`HeapTable` — PostgreSQL-style: rows live in heap pages behind
  the buffer pool; indexes are separate B-trees whose payloads are
  ``(page_no, slot)`` row references.
* :class:`ClusteredTable` — SQLite/InnoDB-style: the table *is* a
  B-tree keyed by rowid/primary key, rows stored in the leaves; leaf
  pages go through a pager (LRU over the configured cache size).

Both expose the same access paths so the executor stays storage-neutral:

* ``seq_scan(needed)`` — all rows in physical/key order;
* ``fetch_row(rowref, needed)`` — one row by reference (heap only);
* ``key_lookup`` / ``key_range`` — primary-key access (clustered only).

``needed`` is a tuple of column indexes whose values the query actually
touches; only those columns are charged as loads — reading a 6-column
slice of a 16-column row does not pay for the other 10 (the paper's
scans are costed the same way: the load count tracks touched data).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Sequence

from repro.errors import DatabaseError
from repro.db.bufferpool import BufferPool
from repro.db.btree import BTree, _Node
from repro.db.pagestore import PagedFile
from repro.db.types import Row, Schema
from repro.sim.address_space import LINE_SHIFT
from repro.sim.machine import Machine

RowRef = tuple  # (page_no, slot)


def _word_offsets(schema: Schema, needed: Sequence[int],
                  skip: Optional[int] = None) -> tuple[int, ...]:
    """Ascending byte offsets of every word the needed columns span.

    Wide (string) columns contribute one offset per 8 bytes.  The result
    is memoised on the schema — it is recomputed once per (needed, skip)
    combination, then reused for every row of every scan.
    """
    cache = schema.__dict__.setdefault("_word_offset_cache", {})
    key = (tuple(needed), skip)
    offs = cache.get(key)
    if offs is None:
        out = []
        for index in needed:
            if index == skip:
                continue
            width = schema.columns[index].width
            off = schema.offsets[index]
            out.append(off)
            for extra in range(1, (width + 7) // 8):
                out.append(off + 8 * extra)
        out.sort()
        offs = tuple(out)
        cache[key] = offs
    return offs


def _load_fields(machine: Machine, row_base: int, schema: Schema,
                 needed: Sequence[int], dependent: bool = False) -> None:
    """Charge the loads for the needed columns of one row.

    ``dependent=True`` marks the first load as address-dependent: random
    row fetches (index scans, key lookups) cannot issue the row's loads
    until the index entry that names the row has returned, so the first
    access exposes its full latency (§3.2's index-scan stall)."""
    machine.exec.load_run(row_base, _word_offsets(schema, needed), dependent)


class HeapTable:
    """Heap-file storage behind a buffer pool."""

    kind = "heap"

    def __init__(self, machine: Machine, schema: Schema, file: PagedFile,
                 pool: BufferPool):
        self.machine = machine
        self.schema = schema
        self.file = file
        self.pool = pool

    @property
    def n_rows(self) -> int:
        return self.file.n_live_rows

    def seq_scan(self, needed: Sequence[int]) -> Iterator[tuple[Row, RowRef]]:
        """Physical-order scan over live rows; yields ``(row, rowref)``."""
        machine = self.machine
        schema = self.schema
        row_size = schema.row_size
        is_deleted = self.file.is_deleted
        has_tombstones = self.file.n_deleted > 0
        offs = _word_offsets(schema, needed)
        load_run = machine.exec.load_run
        for page_no in range(self.file.n_pages):
            frame = self.pool.fetch(self.file, page_no)
            base = frame.region.base
            for slot, row in enumerate(frame.rows):
                if has_tombstones and is_deleted(page_no, slot):
                    machine.load(base + slot * row_size)  # header check
                    continue
                load_run(base + slot * row_size, offs)
                yield row, (page_no, slot)

    def peek_rows(self) -> Iterator[Row]:
        """Charge-free row iteration for the statistics sampler."""
        return self.file.peek_rows()

    def fetch_row(self, rowref: RowRef,
                  needed: Sequence[int]) -> Optional[Row]:
        """Random row access through the buffer pool (index-scan path).

        Returns None for tombstoned rows — stale index entries are
        skipped lazily, like a real heap with lazy index cleanup."""
        page_no, slot = rowref
        frame = self.pool.fetch(self.file, page_no)
        # Slot-array indirection: the line pointer in the page header
        # names the tuple's offset, so the tuple loads depend on it.
        self.machine.load(frame.region.base + 8 * (slot % 8), dependent=True)
        if self.file.is_deleted(page_no, slot):
            return None
        row_base = frame.region.base + slot * self.schema.row_size
        _load_fields(self.machine, row_base, self.schema, needed,
                     dependent=True)
        return self.file.row_at(page_no, slot)

    # ------------------------------------------------------------- DML

    def insert(self, row: Row) -> RowRef:
        """Append one row; charges the tuple-write stores."""
        page_no, slot = self.file.append_row(row)
        frame = self.pool.fetch(self.file, page_no)
        self.machine.store_bytes(
            frame.region.base + slot * self.schema.row_size,
            self.schema.row_size,
        )
        frame.rows = self.file.page(page_no)
        return (page_no, slot)

    def update(self, rowref: RowRef, row: Row) -> None:
        page_no, slot = rowref
        frame = self.pool.fetch(self.file, page_no)
        self.file.update_row(page_no, slot, row)
        self.machine.store_bytes(
            frame.region.base + slot * self.schema.row_size,
            self.schema.row_size,
        )

    def delete(self, rowref: RowRef) -> None:
        page_no, slot = rowref
        frame = self.pool.fetch(self.file, page_no)
        self.file.delete_row(page_no, slot)
        # Tombstoning writes the tuple header.
        self.machine.store(frame.region.base + slot * self.schema.row_size)


class _LeafPager:
    """LRU cache of clustered-tree leaf pages (the SQLite pager model).

    A leaf visit outside the cache costs a disk read and invalidates the
    leaf's lines (the page image was re-read into the page cache)."""

    def __init__(self, machine: Machine, capacity_pages: int, node_bytes: int,
                 first_block: int):
        self.machine = machine
        self.capacity = max(1, capacity_pages)
        self.node_bytes = node_bytes
        self.first_block = first_block
        self._cached: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def visit(self, node: _Node) -> None:
        key = node.region.base
        if key in self._cached:
            self._cached.move_to_end(key)
            self.hits += 1
            return
        self.misses += 1
        block = self.first_block + (key >> LINE_SHIFT) % (1 << 20)
        self.machine.disk_read(block, self.node_bytes)
        first_line = node.region.base >> LINE_SHIFT
        hierarchy = self.machine.hierarchy
        hierarchy.mut_epoch += 1
        for line in range(first_line, first_line + node.region.n_lines):
            hierarchy.l1d.invalidate(line)
            if hierarchy.l2 is not None:
                hierarchy.l2.invalidate(line)
            if hierarchy.l3 is not None:
                hierarchy.l3.invalidate(line)
        if len(self._cached) >= self.capacity:
            self._cached.popitem(False)
        self._cached[key] = None

    def clear(self) -> None:
        self._cached.clear()


class ClusteredTable:
    """B-tree-organised storage (rows in the leaves), with a pager."""

    kind = "clustered"

    def __init__(self, machine: Machine, schema: Schema, key_column: int,
                 tree: BTree, pager: Optional[_LeafPager] = None):
        self.machine = machine
        self.schema = schema
        self.key_column = key_column
        self.tree = tree
        self.pager = pager

    @property
    def n_rows(self) -> int:
        return self.tree.n_entries

    def _on_leaf(self, node: _Node) -> None:
        if self.pager is not None:
            self.pager.visit(node)

    def _field_loads_at(self, entry_addr: int, needed: Sequence[int]) -> None:
        # The key load was already issued by the tree; charge the other
        # touched columns relative to the entry's payload base (the key
        # precedes the stored row, hence the +8).
        self.machine.exec.load_run(
            entry_addr + 8, _word_offsets(self.schema, needed, self.key_column)
        )

    def seq_scan(self, needed: Sequence[int]) -> Iterator[tuple[Row, RowRef]]:
        """Key-order scan over the leaves (what SQLite's table scan is)."""
        offs = _word_offsets(self.schema, needed, self.key_column)
        load_run = self.machine.exec.load_run
        for key, row, addr in self.tree.scan_all(on_leaf=self._on_leaf):
            load_run(addr + 8, offs)
            yield row, (0, key)

    def peek_rows(self) -> Iterator[Row]:
        """Charge-free row iteration for the statistics sampler."""
        for _key, row in self.tree.peek_entries():
            yield row

    def key_lookup(self, key, needed: Sequence[int]) -> Optional[Row]:
        hit = self.tree.search(key)
        if hit is None:
            return None
        row, addr = hit
        if self.pager is not None:
            # search() does not report the leaf; approximate with one
            # pager touch keyed on the entry's node region.
            pass
        self._field_loads_at(addr, needed)
        return row

    def key_range(self, lo, hi, needed: Sequence[int]) -> Iterator[tuple[Row, RowRef]]:
        offs = _word_offsets(self.schema, needed, self.key_column)
        load_run = self.machine.exec.load_run
        for key, row, addr in self.tree.range_scan(lo, hi, on_leaf=self._on_leaf):
            load_run(addr + 8, offs)
            yield row, (0, key)

    # ------------------------------------------------------------- DML

    def insert(self, row: Row) -> RowRef:
        key = row[self.key_column]
        self.tree.insert(key, tuple(row))
        return (0, key)

    def update(self, rowref: RowRef, row: Row) -> None:
        _page, key = rowref
        if not self.tree.update_payload(key, tuple(row)):
            raise DatabaseError(f"no row with key {key!r} to update")

    def delete(self, rowref: RowRef) -> None:
        _page, key = rowref
        if not self.tree.delete(key):
            raise DatabaseError(f"no row with key {key!r} to delete")


def build_clustered(
    machine: Machine,
    schema: Schema,
    key_column: int,
    rows: Sequence[Row],
    node_bytes: int,
    pager_pages: Optional[int] = None,
    first_block: int = 0,
    name: str = "table",
) -> ClusteredTable:
    """Sort rows by the key column and bulk-load a clustered tree."""
    ordered = sorted(rows, key=lambda r: r[key_column])
    tree = BTree(
        machine, name,
        payload_bytes=schema.row_size,
        node_bytes=node_bytes,
    )
    tree.bulk_load([(r[key_column], r) for r in ordered])
    pager = None
    if pager_pages is not None:
        pager = _LeafPager(machine, pager_pages, node_bytes, first_block)
    return ClusteredTable(machine, schema, key_column, tree, pager)


def build_heap(
    machine: Machine,
    schema: Schema,
    rows: Sequence[Row],
    page_size: int,
    pool: BufferPool,
    file_id: int,
    first_block: int = 0,
) -> HeapTable:
    """Pack rows into a paged file and wrap it as a heap table."""
    file = PagedFile(file_id, schema, page_size, first_block=first_block)
    file.append_rows(rows)
    return HeapTable(machine, schema, file, pool)
