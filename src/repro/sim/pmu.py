"""Performance monitoring unit: the counters the methodology reads.

The paper's breakdown (§2.4) needs, per workload:

* ``N_m`` for ``m in {L1D, L2, L3}`` — loads that *access* that level,
  i.e. the sum of hits and misses there (step-by-step replication means a
  DRAM load also accesses L1D, L2 and L3 on the way);
* ``N_mem`` — L3 miss count;
* ``N_Reg2L1D`` — store hits in L1D;
* ``N_pf_l2`` / ``N_pf_l3`` — prefetches into L2 / into L3;
* ``N_stall`` — stall cycles due to memory access;
* instruction counts per class (for BLI and for ``E_other`` estimation).

This mirrors what Linux perf / ocperf read from the real PMU.  The PMU is
deliberately *count only*: it knows nothing about energy, so the
methodology cannot cheat by peeking at the simulator's hidden per-event
energy table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ConfigError

#: The cycle accumulators count ticks of ``1 / TICKS_PER_CYCLE`` cycle,
#: as Python ints: every timing price is a whole number of ticks (see
#: :func:`cycle_ticks`), so their sums are exact in any order.  This is
#: the one place that knows the scale; readers see float cycles through
#: :attr:`PmuCounters.cycles` and :attr:`PmuCounters.stall_cycles`.
TICKS_PER_CYCLE = 256


def cycle_ticks(cycles: float, what: str) -> int:
    """A price of ``cycles`` cycles as a whole number of ticks.

    Raises ConfigError when the price is off the tick grid, where it
    has no exact tick count."""
    ticks = cycles * TICKS_PER_CYCLE
    if not float(ticks).is_integer():
        raise ConfigError(f"{what} of {cycles!r} cycles is not a multiple "
                          f"of 1/{TICKS_PER_CYCLE} cycle")
    return int(ticks)


#: Instruction classes tracked by the PMU.  "other" covers instructions the
#: methodology does not model individually (address generation, moves, ...).
INSTRUCTION_CLASSES = ("load", "store", "add", "nop", "mul", "cmp", "branch", "other")


@dataclass
class PmuCounters:
    """A snapshot of every counter; plain integers, cheap to copy."""

    # Demand load accesses per level (hits + misses at that level).
    n_l1d: int = 0
    n_l2: int = 0
    n_l3: int = 0
    n_mem: int = 0
    # Hits per level (for hit-rate style metrics, Table 1).
    l1d_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    # Stores.
    n_store: int = 0
    n_store_l1d_hit: int = 0
    # Prefetches (into L2 from L3, into L3 from DRAM).
    n_pf_l2: int = 0
    n_pf_l3: int = 0
    # TCM accesses (loads+stores served by tightly coupled memory).
    n_tcm_load: int = 0
    n_tcm_store: int = 0
    # Write-backs of dirty lines out of a level.
    n_writeback: int = 0
    # Timing, in ticks (see TICKS_PER_CYCLE).
    cycle_ticks: int = 0
    stall_ticks: int = 0
    # Instruction counts per class.
    n_load_inst: int = 0
    n_store_inst: int = 0
    n_add: int = 0
    n_nop: int = 0
    n_mul: int = 0
    n_cmp: int = 0
    n_branch: int = 0
    n_other: int = 0

    # ------------------------------------------------------------ derived

    @property
    def cycles(self) -> float:
        return self.cycle_ticks / TICKS_PER_CYCLE

    @property
    def stall_cycles(self) -> float:
        return self.stall_ticks / TICKS_PER_CYCLE

    @property
    def instructions(self) -> int:
        return (
            self.n_load_inst + self.n_store_inst + self.n_add + self.n_nop
            + self.n_mul + self.n_cmp + self.n_branch + self.n_other
        )

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycle_ticks else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        return 1.0 - self.l1d_hits / self.n_l1d if self.n_l1d else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return 1.0 - self.l2_hits / self.n_l2 if self.n_l2 else 0.0

    @property
    def l3_miss_rate(self) -> float:
        return 1.0 - self.l3_hits / self.n_l3 if self.n_l3 else 0.0

    @property
    def store_l1d_hit_rate(self) -> float:
        return self.n_store_l1d_hit / self.n_store if self.n_store else 0.0

    def body_loop_instruction_pct(self, *classes: str) -> float:
        """BLI metric of Table 1: share of instructions in given classes."""
        total = self.instructions
        if not total:
            return 0.0
        per_class = {
            "load": self.n_load_inst,
            "store": self.n_store_inst,
            "add": self.n_add,
            "nop": self.n_nop,
            "mul": self.n_mul,
            "cmp": self.n_cmp,
            "branch": self.n_branch,
            "other": self.n_other,
        }
        return 100.0 * sum(per_class[c] for c in classes) / total

    # The snapshot/delta operations below run four times per serve
    # quantum (settle + span credit, enter and exit); they work on the
    # instance __dict__ with a precomputed field-name tuple instead of
    # calling dataclasses.fields() per invocation.

    def minus(self, other: "PmuCounters") -> "PmuCounters":
        """Counter delta ``self - other`` (for windowed measurements)."""
        delta = PmuCounters()
        dd = delta.__dict__
        sd = self.__dict__
        od = other.__dict__
        for name in _FIELD_NAMES:
            dd[name] = sd[name] - od[name]
        return delta

    def accumulate(self, delta: "PmuCounters") -> None:
        """In-place ``self += delta`` (spans/metrics aggregate windows)."""
        sd = self.__dict__
        dd = delta.__dict__
        for name in _FIELD_NAMES:
            sd[name] = sd[name] + dd[name]

    def copy(self) -> "PmuCounters":
        snap = PmuCounters()
        snap.__dict__.update(self.__dict__)
        return snap

    def as_dict(self, skip_zero: bool = False) -> dict:
        """Plain-dict rendering (for JSON trace export), with the tick
        fields rendered as float ``cycles`` and ``stall_cycles``."""
        sd = self.__dict__
        return {_KEYS.get(name, name): (sd[name] / TICKS_PER_CYCLE
                                        if name in _KEYS else sd[name])
                for name in _FIELD_NAMES if sd[name] or not skip_zero}


#: Field names of :class:`PmuCounters`, resolved once (hot-path ops
#: above iterate this instead of calling ``dataclasses.fields``).
_FIELD_NAMES = tuple(f.name for f in fields(PmuCounters))
#: The key :meth:`PmuCounters.as_dict` renders each tick field under.
_KEYS = {"cycle_ticks": "cycles", "stall_ticks": "stall_cycles"}


@dataclass
class Pmu:
    """Live counters plus snapshot support.

    The CPU and hierarchy mutate :attr:`counters` directly (it is the hot
    path); measurement code uses :meth:`snapshot`/:meth:`since`.
    """

    counters: PmuCounters = field(default_factory=PmuCounters)

    def reset(self) -> None:
        self.counters = PmuCounters()

    def snapshot(self) -> PmuCounters:
        return self.counters.copy()

    def since(self, snapshot: PmuCounters) -> PmuCounters:
        return self.counters.minus(snapshot)
