"""Multi-level memory hierarchy with step-by-step replication.

Models the data-movement behaviour of §2.3 / Figure 2:

* a demand load probes L1D, then L2, then L3, then DRAM, and the line is
  *replicated into every level on the way back* (step-by-step replication
  strategy);
* stores are write-back + write-allocate; a store hit dirties the L1D
  line, a (rare) store miss pulls the line in like a load first;
* dirty victims are written back one level down and counted;
* the L2 hardware prefetcher watches **demand-load misses only** and
  stages sequential lines into L2 (from L3) and into L3 (from DRAM),
  per the paper's two countable prefetch kinds.  Store (RFO) misses are
  deliberately *not* fed to the prefetcher: the paper only counts the
  two L2-prefetch kinds, and the modelled streamer does not train on
  write-allocate traffic (see :mod:`repro.sim.prefetcher`).  Both
  execution engines implement this identically — the reference
  :meth:`MemoryHierarchy.store` and the batched
  ``BatchExecutor._store_addrs`` — pinned by
  ``tests/sim/test_hierarchy.py::TestPrefetcher::test_store_misses_do_not_train``;
* an optional TCM region (§4) bypasses the cache hierarchy entirely at
  L1 speed and its own (lower) energy price.

The hierarchy updates the PMU counters; it knows nothing about time or
energy — the CPU model turns service levels into cycles and the RAPL
model turns counters into joules.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.address_space import LINE_SHIFT, Region
from repro.sim.cache import CacheLevel
from repro.sim.pmu import PmuCounters
from repro.sim.prefetcher import StreamPrefetcher

#: Service-level constants returned by :meth:`MemoryHierarchy.load`.
LEVEL_TCM = 0
LEVEL_L1D = 1
LEVEL_L2 = 2
LEVEL_L3 = 3
LEVEL_MEM = 4

LEVEL_NAMES = {
    LEVEL_TCM: "TCM",
    LEVEL_L1D: "L1D",
    LEVEL_L2: "L2",
    LEVEL_L3: "L3",
    LEVEL_MEM: "mem",
}


class MemoryHierarchy:
    """L1D (+ optional L2, L3) over DRAM, plus optional TCM bypass."""

    def __init__(
        self,
        l1d: CacheLevel,
        l2: Optional[CacheLevel],
        l3: Optional[CacheLevel],
        prefetcher: StreamPrefetcher,
        counters: PmuCounters,
        tcm_region: Optional[Region] = None,
    ):
        self.l1d = l1d
        self.l2 = l2
        self.l3 = l3
        self.prefetcher = prefetcher
        self.counters = counters
        self.tcm_region = tcm_region
        #: Bumped by every entry point that can mutate cache/LRU state;
        #: the batched executor's scan-replay memo keys on it (see
        #: repro.sim.batch.BatchExecutor.scan_lines).
        self.mut_epoch = 0

    # ------------------------------------------------------------ helpers

    def set_counters(self, counters: PmuCounters) -> None:
        """Re-point the hierarchy at a fresh counter block (PMU reset)."""
        self.counters = counters

    def in_tcm(self, addr: int) -> bool:
        region = self.tcm_region
        return region is not None and region.contains(addr)

    def flush(self) -> None:
        """Drop all cached lines (a cold start between measurements)."""
        self.mut_epoch += 1
        self.l1d.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.l3 is not None:
            self.l3.flush()
        self.prefetcher.reset()

    # ------------------------------------------------------------ hot path

    def load(self, addr: int) -> int:
        """Perform one demand load; returns the service LEVEL_* constant."""
        c = self.counters
        tcm = self.tcm_region
        if tcm is not None and tcm.base <= addr < tcm.base + tcm.size:
            c.n_tcm_load += 1
            return LEVEL_TCM
        line = addr >> LINE_SHIFT
        c.n_l1d += 1
        if self.l1d.lookup(line):
            c.l1d_hits += 1
            return LEVEL_L1D
        level = self._fetch_from_below(line)
        self._run_prefetcher(line)
        return level

    def store(self, addr: int) -> bool:
        """Perform one store; returns True when it hit in L1D (or TCM)."""
        c = self.counters
        tcm = self.tcm_region
        if tcm is not None and tcm.base <= addr < tcm.base + tcm.size:
            c.n_tcm_store += 1
            return True
        line = addr >> LINE_SHIFT
        c.n_store += 1
        if self.l1d.lookup(line, write=True):
            c.n_store_l1d_hit += 1
            return True
        # Write-allocate: fetch the line (counted as demand traffic below
        # L1D, like an RFO), then dirty it in L1D.  Deliberately no
        # _run_prefetcher call — the prefetcher trains on demand-load
        # misses only (see the module docstring).
        self._fetch_from_below(line, dirty=True)
        return False

    # ------------------------------------------------------------ internals

    def _fetch_from_below(self, line: int, dirty: bool = False) -> int:
        """Service an L1D miss; fills every level on the way (Figure 2)."""
        c = self.counters
        if self.l2 is not None:
            c.n_l2 += 1
            if self.l2.lookup(line):
                c.l2_hits += 1
                self._fill_l1(line, dirty)
                return LEVEL_L2
        if self.l3 is not None:
            c.n_l3 += 1
            if self.l3.lookup(line):
                c.l3_hits += 1
                self._fill_l2(line)
                self._fill_l1(line, dirty)
                return LEVEL_L3
        c.n_mem += 1
        self._fill_l3(line)
        self._fill_l2(line)
        self._fill_l1(line, dirty)
        return LEVEL_MEM

    def _fill_l1(self, line: int, dirty: bool = False) -> None:
        victim = self.l1d.fill(line, dirty)
        if victim is not None and victim[1]:
            self.counters.n_writeback += 1
            if self.l2 is not None:
                self._fill_l2(victim[0], dirty=True)
            # else (no L2, so no L3): written straight to DRAM; the
            # writeback counter covers it.

    def _fill_l2(self, line: int, dirty: bool = False) -> None:
        if self.l2 is None:
            return
        victim = self.l2.fill(line, dirty)
        if victim is not None and victim[1]:
            self.counters.n_writeback += 1
            self._fill_l3(victim[0], dirty=True)

    def _fill_l3(self, line: int, dirty: bool = False) -> None:
        if self.l3 is None:
            return
        victim = self.l3.fill(line, dirty)
        if victim is not None and victim[1]:
            self.counters.n_writeback += 1
            # Dirty L3 victims drain to DRAM; counted, not cached.

    def _run_prefetcher(self, miss_line: int) -> None:
        l2_lines, l3_lines = self.prefetcher.observe(miss_line)
        c = self.counters
        for line in l2_lines:
            if self.l2 is not None and not self.l2.contains(line):
                if self.l3.contains(line):  # an L2 comes with an L3
                    c.n_pf_l2 += 1
                    self._fill_l2(line)
                else:
                    # Not on chip yet: fetched from DRAM into L3 (the
                    # paper's "prefetch into L3" kind).
                    c.n_pf_l3 += 1
                    self._fill_l3(line)
        for line in l3_lines:
            if self.l3 is not None and not self.l3.contains(line):
                c.n_pf_l3 += 1
                self._fill_l3(line)
