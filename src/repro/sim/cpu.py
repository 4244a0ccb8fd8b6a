"""Trace-driven CPU timing model.

The paper's stall analysis (§2.5.1, Figure 3) rests on two execution
behaviours:

* **dependent loads** (list traversal): the address of the next load is
  produced by the previous one, so the pipeline is forced to break — a
  load costs its full load-to-use latency: 1 busy cycle plus
  ``latency - 1`` stall cycles;
* **independent loads** (array traversal): addresses are known up front,
  speculation/out-of-order execution hides the latency, and the i7-4790's
  dual-issue front end retires two loads per cycle with no stall.

This model implements exactly that dichotomy, plus a memory-level-
parallelism (MLP) bound for independent *misses*: an out-of-order window
can only overlap ``mlp`` outstanding misses, so a stream of independent
DRAM misses still exposes ``latency / mlp`` cycles each.  In-order cores
(the ARM1176 preset) use ``mlp = 1``: a miss stalls regardless.

The CPU mutates the shared PMU counter block; energy is priced later from
those counters (see :mod:`repro.sim.energy`).  Cycle prices are charged
as whole PMU ticks (:data:`~repro.sim.pmu.TICKS_PER_CYCLE`), converted
once per frequency, so any price off the tick grid is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.address_space import LINE_SHIFT, LINE_SIZE
from repro.sim.hierarchy import (
    LEVEL_L1D,
    LEVEL_NAMES,
    LEVEL_TCM,
    MemoryHierarchy,
)
from repro.sim.pmu import TICKS_PER_CYCLE, PmuCounters, cycle_ticks


#: The issue-width fields of :class:`TimingConfig`.
ISSUE_WIDTHS = ("load_issue", "store_issue", "alu_issue", "nop_issue",
                "mul_issue", "cmp_issue", "branch_issue", "other_issue")


@dataclass(frozen=True)
class TimingConfig:
    """Latency and issue-width parameters of a core.

    Latencies are load-to-use, in core cycles, except DRAM which is in
    nanoseconds (DRAM latency is fixed in wall-clock time, so its cycle
    cost *grows* with frequency — the effect behind Table 5's stall
    behaviour).  Every price must be a whole number of PMU ticks; the
    DRAM latency depends on the frequency, so ``Machine`` checks it at
    every P-state of its table.
    """

    lat_l1: int = 4
    lat_l2: int = 12
    lat_l3: int = 34
    dram_lat_ns: float = 60.0
    lat_tcm: int = 4
    mlp: int = 8
    load_issue: float = 0.5    # dual-issue loads
    store_issue: float = 1.0   # one store port
    alu_issue: float = 0.5
    nop_issue: float = 0.25
    mul_issue: float = 1.0
    cmp_issue: float = 0.5
    branch_issue: float = 1.0
    other_issue: float = 1.0

    def __post_init__(self) -> None:
        if self.mlp < 1:
            raise ConfigError("mlp must be >= 1")
        if min(self.lat_l1, self.lat_l2, self.lat_l3, self.lat_tcm) < 1:
            raise ConfigError("latencies must be >= 1 cycle")
        # At 0 GHz DRAM costs what L3 does: every other price is checked.
        self.ticks(0.0)
        for name in ISSUE_WIDTHS:
            cycle_ticks(getattr(self, name), name)

    def ticks(self, freq_ghz: float) -> tuple[list, list]:
        """``(latency, exposed)`` per LEVEL_* in PMU ticks at ``freq_ghz``:
        the load-to-use latency, and what an independent load served at
        that level adds past its issue slot (``latency / mlp -
        load_issue`` below L1D, never negative)."""
        # In LEVEL_* order: TCM, L1D, L2, L3, MEM.
        cycles = (self.lat_tcm, self.lat_l1, self.lat_l2, self.lat_l3,
                  self.lat_l3 + self.dram_lat_ns * freq_ghz)
        latency = [0] * 5
        exposed = [0] * 5
        for level, x in enumerate(cycles):
            what = f"{LEVEL_NAMES[level]} latency at {freq_ghz} GHz"
            latency[level] = cycle_ticks(x, what)
            x = x / self.mlp - self.load_issue
            if level > LEVEL_L1D and x > 0:
                exposed[level] = cycle_ticks(x, "exposed " + what)
        return latency, exposed


class Cpu:
    """Executes the workload-facing micro-op stream against a hierarchy."""

    def __init__(
        self,
        timing: TimingConfig,
        hierarchy: MemoryHierarchy,
        counters: PmuCounters,
        freq_ghz: float,
    ):
        self.timing = timing
        self.hierarchy = hierarchy
        self.counters = counters
        self.set_frequency(freq_ghz)

    def set_counters(self, counters: PmuCounters) -> None:
        self.counters = counters

    def set_frequency(self, freq_ghz: float) -> None:
        """Recompute the tick prices for a new core frequency: per-level
        latency, the exposed latency of an independent load per level
        (see :meth:`TimingConfig.ticks`), and the issue widths, as
        ``_<width>`` attributes."""
        if freq_ghz <= 0:
            raise ConfigError("frequency must be positive")
        t = self.timing
        self._latency, self._exposed = t.ticks(freq_ghz)
        for name in ISSUE_WIDTHS:
            setattr(self, "_" + name, cycle_ticks(getattr(t, name), name))
        self.freq_ghz = freq_ghz

    # ------------------------------------------------------------ loads/stores

    def load(self, addr: int, dependent: bool = False) -> int:
        """One 8-byte (or smaller) load instruction; returns service level."""
        level = self.hierarchy.load(addr)
        c = self.counters
        c.n_load_inst += 1
        if dependent:
            latency = self._latency[level]
            c.cycle_ticks += latency
            c.stall_ticks += latency - TICKS_PER_CYCLE
        else:
            exposed = self._exposed[level]
            c.cycle_ticks += self._load_issue + exposed
            c.stall_ticks += exposed
        return level

    def load_bytes(self, addr: int, nbytes: int, dependent: bool = False) -> None:
        """A multi-word read: one load instruction per 8 bytes, first one
        dependent if requested, the rest independent.

        Only the first word of each touched cache line goes through the
        hierarchy; trailing same-line words are guaranteed L1D hits (the
        first access filled the line and made it MRU, and the words are
        consecutive) so they are accounted in bulk — ``scan_lines``'
        trick, applied to every multi-word access.
        """
        n_words = max(1, (nbytes + 7) // 8)
        last = addr + 8 * (n_words - 1)
        tcm = self.hierarchy.tcm_region
        if tcm is not None and addr < tcm.end and last >= tcm.base:
            if tcm.base <= addr and last < tcm.end:
                # Whole run inside the TCM region: bulk TCM accounting.
                c = self.counters
                c.n_tcm_load += n_words
                c.n_load_inst += n_words
                if dependent:
                    latency = self._latency[LEVEL_TCM]
                    c.cycle_ticks += latency + (n_words - 1) * self._load_issue
                    c.stall_ticks += latency - TICKS_PER_CYCLE
                else:
                    c.cycle_ticks += n_words * self._load_issue
                return
            # Run straddles the TCM boundary: rare — take the exact
            # per-word path.
            self.load(addr, dependent=dependent)
            for i in range(1, n_words):
                self.load(addr + 8 * i)
            return
        self.load(addr, dependent=dependent)
        if n_words == 1:
            return
        first_line = addr >> LINE_SHIFT
        extra_lines = (last >> LINE_SHIFT) - first_line
        word0 = addr & 7
        for i in range(1, extra_lines + 1):
            self.load(((first_line + i) << LINE_SHIFT) | word0)
        bulk = n_words - 1 - extra_lines
        if bulk > 0:
            c = self.counters
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycle_ticks += bulk * self._load_issue

    def scan_lines(self, base_addr: int, n_lines: int, loads_per_line: int = 1) -> None:
        """Sequentially read ``n_lines`` cache lines starting at ``base_addr``.

        The first load of each line goes through the hierarchy; the
        remaining ``loads_per_line - 1`` loads are same-line and therefore
        guaranteed L1D hits — they are accounted in bulk, which keeps
        table scans fast to simulate without changing any counter value.
        """
        if n_lines <= 0:
            return
        extra = loads_per_line - 1
        c = self.counters
        for i in range(n_lines):
            self.load(base_addr + i * LINE_SIZE)
        if extra > 0:
            bulk = n_lines * extra
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycle_ticks += bulk * self._load_issue

    def hot_loads(self, addr: int, n: int) -> None:
        """``n`` loads against a known-hot working set at ``addr``.

        Interpretive database engines issue hundreds of loads per tuple
        against their own state (tuple slots, operator nodes, the VDBE
        program).  That working set is touched continuously — hundreds of
        times between any two data accesses — so it is L1D-resident in
        steady state regardless of what the data scan evicts.  All ``n``
        loads are therefore accounted as L1D hits in bulk, which keeps
        the simulation O(rows) instead of O(instructions).

        If ``addr`` sits in a TCM region, all ``n`` loads are TCM loads
        (the §4.2 co-design moves exactly this state into DTCM).
        """
        if n <= 0:
            return
        c = self.counters
        if self.hierarchy.in_tcm(addr):
            c.n_tcm_load += n
            c.n_load_inst += n
            c.cycle_ticks += n * self._load_issue
            return
        c.n_load_inst += n
        c.n_l1d += n
        c.l1d_hits += n
        c.cycle_ticks += n * self._load_issue

    def hot_stores(self, addr: int, n: int) -> None:
        """``n`` stores against a known-hot working set (see hot_loads)."""
        if n <= 0:
            return
        c = self.counters
        if self.hierarchy.in_tcm(addr):
            c.n_tcm_store += n
            c.n_store_inst += n
            c.cycle_ticks += n * self._store_issue
            return
        c.n_store_inst += n
        c.n_store += n
        c.n_store_l1d_hit += n
        c.cycle_ticks += n * self._store_issue

    def store(self, addr: int) -> None:
        """One store instruction (write-back, 1-cycle via store buffer)."""
        self.hierarchy.store(addr)
        c = self.counters
        c.n_store_inst += 1
        c.cycle_ticks += self._store_issue

    def store_bytes(self, addr: int, nbytes: int) -> None:
        """A multi-word write; same bulk trailing-word treatment as
        :meth:`load_bytes` (the first store write-allocates and dirties
        the line, so trailing same-line stores are guaranteed L1D hits).
        """
        n_words = max(1, (nbytes + 7) // 8)
        last = addr + 8 * (n_words - 1)
        tcm = self.hierarchy.tcm_region
        if tcm is not None and addr < tcm.end and last >= tcm.base:
            if tcm.base <= addr and last < tcm.end:
                c = self.counters
                c.n_tcm_store += n_words
                c.n_store_inst += n_words
                c.cycle_ticks += n_words * self._store_issue
                return
            for i in range(n_words):
                self.store(addr + 8 * i)
            return
        self.store(addr)
        if n_words == 1:
            return
        first_line = addr >> LINE_SHIFT
        extra_lines = (last >> LINE_SHIFT) - first_line
        word0 = addr & 7
        for i in range(1, extra_lines + 1):
            self.store(((first_line + i) << LINE_SHIFT) | word0)
        bulk = n_words - 1 - extra_lines
        if bulk > 0:
            c = self.counters
            c.n_store_inst += bulk
            c.n_store += bulk
            c.n_store_l1d_hit += bulk
            c.cycle_ticks += bulk * self._store_issue

    # ------------------------------------------------------------ compute ops

    def add(self, n: int = 1) -> None:
        self.counters.n_add += n
        self.counters.cycle_ticks += n * self._alu_issue

    def nop(self, n: int = 1) -> None:
        self.counters.n_nop += n
        self.counters.cycle_ticks += n * self._nop_issue

    def mul(self, n: int = 1) -> None:
        self.counters.n_mul += n
        self.counters.cycle_ticks += n * self._mul_issue

    def cmp(self, n: int = 1) -> None:
        self.counters.n_cmp += n
        self.counters.cycle_ticks += n * self._cmp_issue

    def branch(self, n: int = 1) -> None:
        self.counters.n_branch += n
        self.counters.cycle_ticks += n * self._branch_issue

    def other(self, n: int = 1) -> None:
        self.counters.n_other += n
        self.counters.cycle_ticks += n * self._other_issue
