"""The simulated machine: CPU + caches + DVFS + RAPL + clock + disk.

This is the single object workloads run against.  It exposes

* the **workload-facing** micro-op API (``load``/``store``/``add``/...),
  delegated to :class:`repro.sim.cpu.Cpu`;
* the **runtime-configuration** knobs the paper tunes in §2.5.3 —
  P-state pinning, EIST on/off, hardware prefetcher on/off (the MSR
  analogue), C-states on/off;
* the **measurement** surface — PMU snapshots, RAPL domain reads,
  wall-clock time, P-state residency.

Energy settling: PMU counters are priced lazily.  Whenever the P-state
changes, the machine idles, or a measurement is read, :meth:`settle`
prices the counter delta since the previous settle at the P-state that
was active in between and advances the wall clock by
``delta_cycles / frequency``.  This is where integer cycle ticks become
float seconds and joules.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError, TransientDiskError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config -> sim)
    from repro.config import MachineConfig
from repro.sim.address_space import AddressSpace
from repro.sim.batch import EXEC_MODES, BatchExecutor, ReferenceExecutor
from repro.sim.cache import CacheLevel
from repro.sim.cpu import Cpu
from repro.sim.disk import DiskModel
from repro.sim.dvfs import EistGovernor, ResidencyRecorder
from repro.sim.energy import RaplCounters
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.pmu import Pmu, PmuCounters
from repro.sim.prefetcher import StreamPrefetcher
from repro.sim.tcm import TcmAllocator

#: How many micro-ops pass between EIST epoch checks (keeps the hot path
#: branch-cheap while bounding governor latency).
_EIST_CHECK_OPS = 256

logger = logging.getLogger(__name__)


@dataclass
class MachineStats:
    """A coherent snapshot of counters, energy, and time."""

    counters: PmuCounters
    energy_core_j: float
    energy_package_j: float
    energy_dram_j: float
    time_s: float
    busy_s: float
    idle_s: float


class Machine:
    """A complete simulated platform built from a :class:`MachineConfig`."""

    def __init__(self, config: "MachineConfig", pstate: Optional[int] = None,
                 seed: int = 0, exec_mode: str = "batched"):
        self.config = config
        self.address_space = AddressSpace()
        self.pmu = Pmu()
        self.rapl = RaplCounters(config.energy_table, config.background)
        self.disk = DiskModel()
        self.residency = ResidencyRecorder()
        self.rng = random.Random(seed)

        l1d = CacheLevel("L1D", config.l1d.size, config.l1d.assoc)
        l2 = (CacheLevel("L2", config.l2.size, config.l2.assoc)
              if config.l2 is not None else None)
        l3 = (CacheLevel("L3", config.l3.size, config.l3.assoc)
              if config.l3 is not None else None)
        self.prefetcher = StreamPrefetcher(
            n_streams=config.prefetcher_streams,
            degree=config.prefetcher_degree,
            l3_extra=config.prefetcher_l3_extra,
        )
        tcm_region = config.tcm.region() if config.tcm is not None else None
        self.tcm = TcmAllocator(tcm_region) if tcm_region is not None else None
        self.hierarchy = MemoryHierarchy(
            l1d=l1d, l2=l2, l3=l3,
            prefetcher=self.prefetcher,
            counters=self.pmu.counters,
            tcm_region=tcm_region,
        )
        initial = config.pstates.highest if pstate is None else pstate
        self.pstate = config.pstates.validate(initial)
        self._vf2 = config.pstates.vf2(self.pstate)
        # Price DRAM at every P-state now: a latency off the tick grid
        # fails here, never at a mid-run P-state switch.
        for state in config.pstates.states():
            config.timing.ticks(config.pstates.freq_ghz(state))
        self.cpu = Cpu(config.timing, self.hierarchy, self.pmu.counters,
                       config.pstates.freq_ghz(self.pstate))

        self.cstates_enabled = False
        self._eist: Optional[EistGovernor] = None
        self._epoch_start_time = 0.0
        self._epoch_busy = 0.0
        self._ops_since_check = 0

        self.time_s = 0.0
        self.busy_s = 0.0
        self.idle_s = 0.0
        self._settled = PmuCounters()
        #: The snapshot the last pricing settle() started from and the
        #: delta it took, for :meth:`settled_since`.
        self._settle_base: Optional[PmuCounters] = None
        self._settle_delta: Optional[PmuCounters] = None

        #: Observability: the active span tracer (a no-op by default so
        #: the micro-op path pays nothing) and the metrics registry fed
        #: by component collectors at snapshot time.
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(self._collect_metrics)
        #: Optional :class:`~repro.obs.timeline.TimelineRecorder` fed a
        #: window-accounting hook whenever simulated time advances.
        #: None (the default) keeps settle/idle at one extra branch.
        self.timeline = None
        #: Optional :class:`~repro.faults.FaultInjector` consulted by
        #: fault-aware components (buffer pools look it up here so
        #: lazily-created pools need no wiring).  None outside chaos runs.
        self.fault_injector = None

        # Re-export the hot-path micro-op methods: workloads call
        # machine.load(...) etc. without an extra attribute hop.
        # (load/store themselves are bound by set_exec_mode: in batched
        # mode they go through a thin wrapper that invalidates the
        # executor's scan-replay memo.)
        self.hot_loads = self.cpu.hot_loads
        self.hot_stores = self.cpu.hot_stores
        self.add = self.cpu.add
        self.nop = self.cpu.nop
        self.mul = self.cpu.mul
        self.cmp = self.cpu.cmp
        self.branch = self.cpu.branch
        self.other = self.cpu.other

        # Run-level execution engine: "batched" inlines whole runs of
        # line accesses (bit-identical counters/energy/clock, see
        # repro.sim.batch); "reference" keeps the per-op model path.
        # scan_lines/load_bytes/store_bytes/load_chain re-exports follow
        # the mode.
        self._executors = {
            "reference": ReferenceExecutor(self.cpu),
            "batched": BatchExecutor(self.cpu),
        }
        self.set_exec_mode(exec_mode)

    # ------------------------------------------------------------ exec engine

    def set_exec_mode(self, mode: str) -> None:
        """Select the execution engine: ``reference`` or ``batched``."""
        if mode not in EXEC_MODES:
            raise ConfigError(
                f"unknown exec mode {mode!r}; expected one of {EXEC_MODES}"
            )
        self.exec_mode = mode
        ex = self._executors[mode]
        self.exec = ex
        self.scan_lines = ex.scan_lines
        self.load_bytes = ex.load_bytes
        self.store_bytes = ex.store_bytes
        self.load_chain = ex.load_chain
        # Direct per-op load/store mutate cache state behind the batched
        # executor's back, so in batched mode they bump the hierarchy's
        # mutation epoch (which invalidates the scan-replay memo).  The
        # reference path stays raw — zero added overhead.
        # Reference-mode loads never bump the epoch, so a mode switch
        # drops both batched memos.
        self._executors["batched"]._scan_memo = None
        self._executors["batched"]._list_memo = None
        if mode == "batched":
            # Single-frame per-op paths: they bump the hierarchy's
            # mutation epoch themselves (which invalidates the
            # scan-replay memo) and inline the L1D-hit fast case.
            self.load = ex.load_one
            self.store = ex.store_one
        else:
            self.load = self.cpu.load
            self.store = self.cpu.store

    # ------------------------------------------------------------ knobs

    def set_pstate(self, pstate: int) -> None:
        """Pin the CPU to a P-state (disables nothing; EIST may move it)."""
        pstate = self.config.pstates.validate(pstate)
        if pstate == self.pstate:
            return
        self.settle()
        self.pstate = pstate
        self._vf2 = self.config.pstates.vf2(pstate)
        self.cpu.set_frequency(self.config.pstates.freq_ghz(pstate))
        if self.timeline is not None:
            self.timeline.note_pstate_switch()

    def enable_eist(self, governor: Optional[EistGovernor] = None) -> None:
        """Turn the DVFS governor on (paper default for real deployments)."""
        self._eist = governor or EistGovernor(table=self.config.pstates)
        self._epoch_start_time = self.time_s
        self._epoch_busy = 0.0
        self._ops_since_check = 0

    def disable_eist(self) -> None:
        self._eist = None

    @property
    def eist_enabled(self) -> bool:
        return self._eist is not None

    @property
    def governor(self) -> Optional[EistGovernor]:
        """The running EIST governor; None while EIST is off."""
        return self._eist

    def set_prefetcher(self, enabled: bool) -> None:
        """MSR-style hardware prefetcher switch (§2.5.3)."""
        self.prefetcher.enabled = enabled

    def set_cstates(self, enabled: bool) -> None:
        """C-states allow deep idle; the paper disables them to measure
        Background energy (§2.6)."""
        self.cstates_enabled = enabled

    # ------------------------------------------------------------ time/energy

    def settle(self) -> None:
        """Price all un-priced work at the current P-state.

        With nothing new to price, ``_settled`` already equals the live
        counters and is kept as it is: it is never mutated in place, so
        callers may hold on to it."""
        live = self.pmu.counters
        if live.__dict__ == self._settled.__dict__:
            return
        delta = live.minus(self._settled)
        if delta.cycle_ticks > 0 or delta.instructions > 0:
            freq_hz = self.cpu.freq_ghz * 1e9
            busy = delta.cycles / freq_hz
            self.rapl.settle_active(delta, self._vf2)
            self.rapl.settle_background(busy)
            self.time_s += busy
            self.busy_s += busy
            self._epoch_busy += busy
            self.residency.record(self.pstate, busy)
            if self.timeline is not None:
                self.timeline.on_advance()
        self._settle_base = self._settled
        self._settle_delta = delta
        self._settled = self.pmu.counters.copy()

    def settled_since(self, snapshot: PmuCounters) -> Optional[PmuCounters]:
        """Settle, then return the settled counters' delta from
        ``snapshot``, an earlier ``_settled``: None when nothing has
        been settled since (the delta would be all zeros, and adding
        zero ints changes no counter), the delta :meth:`settle` took
        when it started from ``snapshot`` (the same subtraction), a
        fresh subtraction otherwise.  Span credits call this once per
        transition; the returned delta is shared, so read it only."""
        self.settle()
        settled = self._settled
        if settled is snapshot:
            return None
        if self._settle_base is snapshot:
            return self._settle_delta
        return settled.minus(snapshot)

    def idle(self, seconds: float) -> None:
        """CPU-idle wall-clock time (disk waits, sleeps)."""
        if seconds < 0:
            raise ConfigError("idle seconds must be non-negative")
        self.settle()
        self.time_s += seconds
        self.idle_s += seconds
        self.rapl.settle_background(seconds, deep_idle=self.cstates_enabled)
        self.residency.record(self.pstate, seconds)
        if self.timeline is not None:
            self.timeline.on_advance()
        self._maybe_run_governor()

    def disk_read(self, block: int, nbytes: int) -> None:
        """A synchronous disk read: the CPU idles for the device time.

        An injected transient failure still burned device time; that
        time is charged (inside a ``fault`` span tagged as wasted) and
        the fault re-raised for the caller's retry policy.
        """
        try:
            seconds = self.disk.read_time(block, nbytes)
        except TransientDiskError as fault:
            with self.tracer.span("disk.fault", category="fault",
                                  fault="disk.error", wasted="disk_error"):
                self.idle(fault.elapsed_s)
            raise
        self.idle(seconds)

    def disk_write(self, block: int, nbytes: int) -> None:
        self.idle(self.disk.write_time(block, nbytes))

    def governor_tick(self) -> None:
        """Give the EIST governor a chance to act.  Workload loops call
        this every few thousand operations; it is a no-op when EIST is
        off or the current epoch has not elapsed."""
        self._ops_since_check += 1
        if self._ops_since_check < _EIST_CHECK_OPS:
            return
        self._ops_since_check = 0
        self._maybe_run_governor()

    def _maybe_run_governor(self) -> None:
        if self._eist is None:
            return
        self.settle()
        elapsed = self.time_s - self._epoch_start_time
        if elapsed < self._eist.epoch_seconds:
            return
        busy_fraction = self._epoch_busy / elapsed if elapsed > 0 else 1.0
        new_pstate = self._eist.next_pstate(self.pstate, busy_fraction)
        self._epoch_start_time = self.time_s
        self._epoch_busy = 0.0
        if new_pstate != self.pstate:
            direction = "up" if new_pstate > self.pstate else "down"
            self.metrics.counter(
                "dvfs.governor.transitions", {"direction": direction}
            ).inc()
            logger.debug(
                "EIST transition P%d -> P%d (busy %.0f%%)",
                self.pstate, new_pstate, 100.0 * busy_fraction,
            )
            self.set_pstate(new_pstate)

    # ------------------------------------------------------------ metrics

    def _collect_metrics(self) -> None:
        """Refresh the machine-level gauges from component stat fields.

        Runs only at :meth:`MetricsRegistry.snapshot` time, so the hot
        paths keep their plain-integer stats.
        """
        # Price any outstanding work so clock/RAPL gauges are current.
        self.settle()
        metrics = self.metrics
        hierarchy = self.hierarchy
        for level in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
            if level is None:
                continue
            labels = {"level": level.name}
            metrics.gauge("cache.hits", labels).set(level.hits)
            metrics.gauge("cache.misses", labels).set(level.misses)
            metrics.gauge("cache.evictions", labels).set(level.evictions)
            metrics.gauge("cache.dirty_evictions", labels).set(
                level.dirty_evictions
            )
            metrics.gauge("cache.hit_rate", labels).set(level.hit_rate())
            metrics.gauge("cache.occupancy_lines", labels).set(
                level.occupancy
            )
        pf = self.prefetcher
        metrics.gauge("prefetcher.streams_trained").set(pf.n_trained)
        metrics.gauge("prefetcher.l2_lines_issued").set(pf.n_pf_l2_issued)
        metrics.gauge("prefetcher.l3_lines_issued").set(pf.n_pf_l3_issued)
        metrics.gauge("dvfs.pstate").set(self.pstate)
        metrics.gauge("dvfs.eist_enabled").set(1.0 if self.eist_enabled else 0.0)
        for pstate, seconds in self.residency.seconds.items():
            metrics.gauge(
                "dvfs.residency_s", {"pstate": f"P{pstate}"}
            ).set(seconds)
        metrics.gauge("clock.time_s").set(self.time_s)
        metrics.gauge("clock.busy_s").set(self.busy_s)
        metrics.gauge("clock.idle_s").set(self.idle_s)
        metrics.gauge("rapl.core_j").set(self.rapl.energy_core())
        metrics.gauge("rapl.package_j").set(self.rapl.energy_package())
        metrics.gauge("rapl.dram_j").set(self.rapl.energy_dram())
        metrics.gauge("disk.reads").set(self.disk.reads)
        metrics.gauge("disk.writes").set(self.disk.writes)
        metrics.gauge("disk.bytes_read").set(self.disk.bytes_read)
        metrics.gauge("disk.bytes_written").set(self.disk.bytes_written)
        metrics.gauge("disk.fault_errors").set(self.disk.fault_errors)
        metrics.gauge("disk.fault_slowdowns").set(self.disk.fault_slowdowns)

    # ------------------------------------------------------------ measurement

    def stats(self) -> MachineStats:
        """Settle and return a coherent snapshot."""
        self.settle()
        return MachineStats(
            counters=self.pmu.snapshot(),
            energy_core_j=self.rapl.energy_core(),
            energy_package_j=self.rapl.energy_package(),
            energy_dram_j=self.rapl.energy_dram(),
            time_s=self.time_s,
            busy_s=self.busy_s,
            idle_s=self.idle_s,
        )

    def measurement_noise_factor(self) -> float:
        """One draw of the multiplicative measurement-noise factor."""
        sigma = self.config.measurement_noise
        if sigma <= 0:
            return 1.0
        return max(0.0, self.rng.gauss(1.0, sigma))

    def reset_measurements(self) -> None:
        """Zero counters, energy, clocks, and residency — keep cache
        contents (a warmed-up machine, the common measurement setup)."""
        self.settle()
        self.pmu.reset()
        self.hierarchy.set_counters(self.pmu.counters)
        self.cpu.set_counters(self.pmu.counters)
        self._settled = PmuCounters()
        self._settle_base = self._settle_delta = None
        self.rapl.reset()
        self.residency.reset()
        self.disk.reset_stats()
        self.time_s = 0.0
        self.busy_s = 0.0
        self.idle_s = 0.0
        self._epoch_start_time = 0.0
        self._epoch_busy = 0.0

    def cold_reset(self) -> None:
        """Like :meth:`reset_measurements` but also flushes every cache."""
        self.reset_measurements()
        self.hierarchy.flush()

    def frequency_ghz(self) -> float:
        return self.cpu.freq_ghz
