"""Buffer pool: LRU page cache between the executor and the disk model.

This is where the Table 4 knobs (``shared_buffers``, ``cache_size``,
``innodb_buffer_pool_size``) act: the pool holds a fixed number of
frames; a page miss costs a disk read (CPU idle) and recycles the
least-recently-used frame.

Frames are simulated-memory regions allocated once and reused, like a
real buffer manager: when a frame is recycled its cache lines are
invalidated (the new page arrives by DMA into DRAM, not into the CPU
caches), so re-reads after recycling behave like cold data.

Every ``fetch`` also models the buffer-manager lookup itself: a hash
probe into the page table (one dependent load + a little bookkeeping),
which is part of the indirection overhead the paper attributes to
PostgreSQL/MySQL-style buffer management (§3.3).
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError, FaultError, PageCorruptionError, \
    TransientDiskError
from repro.db.pagestore import PagedFile, PageId, compute_page_checksum
from repro.db.types import Row
from repro.sim.address_space import LINE_SHIFT, LINE_SIZE, Region
from repro.sim.machine import Machine

logger = logging.getLogger(__name__)


@dataclass
class Frame:
    """One buffer frame: a fixed region currently holding one page."""

    index: int
    region: Region
    page_id: PageId | None = None
    rows: Sequence[Row] = ()


@dataclass(frozen=True)
class PoolStats:
    """An immutable snapshot (or delta) of one pool's counters.

    Interleaved queries share one pool, so zeroing the live counters
    between queries would destroy every other in-flight query's
    attribution.  Instead, callers snapshot at query start and diff at
    query end — each execution context gets its own exact per-query
    delta without touching shared state.
    """

    hits: int = 0
    misses: int = 0
    recycles: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def since(self, earlier: "PoolStats") -> "PoolStats":
        """The counter delta accumulated after ``earlier`` was taken."""
        return PoolStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            recycles=self.recycles - earlier.recycles,
        )


class BufferPool:
    """Fixed-capacity LRU page cache over simulated memory."""

    def __init__(self, machine: Machine, pool_bytes: int, page_size: int,
                 label: str = "bufferpool"):
        if page_size <= 0 or pool_bytes < page_size:
            raise ConfigError(
                f"pool of {pool_bytes} bytes cannot hold a {page_size}B page"
            )
        self.machine = machine
        self.page_size = page_size
        self.n_frames = pool_bytes // page_size
        self.frames = [
            Frame(index=i,
                  region=machine.address_space.alloc(page_size, f"{label}/frame{i}"))
            for i in range(self.n_frames)
        ]
        #: page table: PageId -> frame index, in LRU order (oldest first).
        self._table: OrderedDict[PageId, int] = OrderedDict()
        self._free = list(range(self.n_frames - 1, -1, -1))
        #: metadata region the modelled hash-probe load lands in.
        self._meta = machine.address_space.alloc(
            max(LINE_SIZE, self.n_frames * 16), f"{label}/pagetable"
        )
        self.label = label
        self.hits = 0
        self.misses = 0
        self.recycles = 0
        machine.metrics.add_collector(self._collect_metrics)

    # ------------------------------------------------------------ stats

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def stats(self) -> PoolStats:
        """Snapshot the live counters (see :class:`PoolStats`)."""
        return PoolStats(hits=self.hits, misses=self.misses,
                         recycles=self.recycles)

    def stats_since(self, snapshot: PoolStats) -> PoolStats:
        """Per-query attribution: the delta since ``snapshot``."""
        return self.stats().since(snapshot)

    def _collect_metrics(self) -> None:
        """Export pool health into the machine's metrics registry."""
        metrics = self.machine.metrics
        labels = {"pool": self.label}
        metrics.gauge("bufferpool.frames", labels).set(self.n_frames)
        metrics.gauge("bufferpool.resident_pages", labels).set(
            len(self._table)
        )
        metrics.gauge("bufferpool.hits", labels).set(self.hits)
        metrics.gauge("bufferpool.misses", labels).set(self.misses)
        metrics.gauge("bufferpool.recycles", labels).set(self.recycles)
        metrics.gauge("bufferpool.hit_rate", labels).set(self.hit_rate())

    # ------------------------------------------------------------ fetch

    def fetch(self, paged_file: PagedFile, page_no: int) -> Frame:
        """Return the frame holding the page, reading from disk on miss."""
        machine = self.machine
        page_id = PageId(paged_file.file_id, page_no)
        # Model of the buffer-manager hash probe.
        meta_addr = self._meta.base + (hash(page_id) % self._meta.n_lines) * LINE_SIZE
        machine.load(meta_addr, dependent=True)
        machine.other(2)

        frame_index = self._table.get(page_id)
        if frame_index is not None:
            self._table.move_to_end(page_id)
            self.hits += 1
            return self.frames[frame_index]

        self.misses += 1
        with machine.tracer.span("bufferpool.miss", category="io",
                                 pool=self.label, page=str(page_id)):
            if self._free:
                frame_index = self._free.pop()
            else:
                evicted, frame_index = self._table.popitem(False)
                self.recycles += 1
                logger.debug("%s: recycling frame %d (page %s -> %s)",
                             self.label, frame_index, evicted, page_id)
            frame = self.frames[frame_index]
            injector = machine.fault_injector
            try:
                if injector is None:
                    machine.disk_read(paged_file.block_of(page_no),
                                      self.page_size)
                else:
                    self._read_with_retries(paged_file, page_no, injector)
                self._invalidate_frame(frame)
                frame.page_id = page_id
                frame.rows = paged_file.page(page_no)
                if injector is not None and injector.plan.page_corrupt_p > 0:
                    self._verify_page(frame, paged_file, page_no, injector)
            except FaultError:
                # The frame holds no valid page; return it to the free
                # list so the pool stays consistent for the next fetch.
                frame.page_id = None
                frame.rows = ()
                self._free.append(frame.index)
                raise
            self._table[page_id] = frame_index
        return frame

    def _read_with_retries(self, paged_file: PagedFile, page_no: int,
                           injector) -> None:
        """Disk read that retries transient errors up to the plan's limit.

        Every failed attempt's device time has already been charged (the
        machine idles through it before re-raising), so retried reads show
        up as wasted joules without any extra bookkeeping here.
        """
        machine = self.machine
        block = paged_file.block_of(page_no)
        retries_left = injector.plan.disk_error_max_retries
        while True:
            try:
                machine.disk_read(block, self.page_size)
                return
            except TransientDiskError:
                if retries_left <= 0:
                    raise
                retries_left -= 1
                machine.metrics.counter(
                    "bufferpool.disk_retries", {"pool": self.label}
                ).inc()

    def _verify_page(self, frame: Frame, paged_file: PagedFile,
                     page_no: int, injector) -> None:
        """Checksum the freshly-read frame; repair corrupt pages by
        re-reading from disk (the repair is charged its real energy).

        Verification walks the page once (loads) plus the arithmetic of
        the checksum itself.  The injector decides whether the in-flight
        copy was corrupted; the stored checksum from the page header is
        the reference either way.
        """
        machine = self.machine
        expected = paged_file.page_checksum(page_no)

        def verify() -> bool:
            machine.load_bytes(frame.region.base, self.page_size)
            machine.other(max(1, self.page_size // LINE_SIZE))
            actual = compute_page_checksum(frame.rows)
            return actual == expected and not injector.page_corrupt()

        if verify():
            return
        # Each repair re-read *and* its re-verification are wasted work:
        # both live inside the wasted="page_repair" span so the energy
        # split charges the full cost of corruption to the fault.
        for _ in range(injector.plan.page_repair_max):
            with machine.tracer.span("bufferpool.repair", category="fault",
                                     fault="page.corrupt",
                                     wasted="page_repair",
                                     page=str(frame.page_id)):
                self._read_with_retries(paged_file, page_no, injector)
                self._invalidate_frame(frame)
                frame.rows = paged_file.page(page_no)
                if verify():
                    return
        raise PageCorruptionError(
            f"page {frame.page_id} failed checksum after "
            f"{injector.plan.page_repair_max} repair re-reads"
        )

    def contains(self, paged_file: PagedFile, page_no: int) -> bool:
        return PageId(paged_file.file_id, page_no) in self._table

    def clear(self) -> None:
        """Drop every cached page (cold restart)."""
        for frame in self.frames:
            frame.page_id = None
            frame.rows = ()
        self._table.clear()
        self._free = list(range(self.n_frames - 1, -1, -1))

    def _invalidate_frame(self, frame: Frame) -> None:
        """DMA overwrote the frame: its lines must not hit in any cache."""
        hierarchy = self.machine.hierarchy
        hierarchy.mut_epoch += 1
        first_line = frame.region.base >> LINE_SHIFT
        for line in range(first_line, first_line + frame.region.n_lines):
            hierarchy.l1d.invalidate(line)
            if hierarchy.l2 is not None:
                hierarchy.l2.invalidate(line)
            if hierarchy.l3 is not None:
                hierarchy.l3.invalidate(line)
