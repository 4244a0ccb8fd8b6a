"""Virtual cores: time-slicing one simulated machine N ways.

The :class:`~repro.sim.machine.Machine` is a single energy/time
authority — one package, one PMU, one RAPL meter — and every micro-op
is priced serially.  Serving many concurrent queries still needs a
notion of *parallel* progress: a :class:`CoreSet` layers N virtual
cores over one machine.  Work executes serially on the machine (the
energy accounting stays exact), while each core keeps its own virtual
wall clock, advanced by the machine-time delta of every quantum it
runs.  Queueing delay and latency are computed against the virtual
clocks, so N cores drain a queue N-ways even though their joules are
priced one quantum at a time.

Context switches are real work: installing a different query on a core
touches scheduler state (run queues, a TSS analogue) and repopulates
L1D lines the outgoing query owned.  :meth:`CoreSet.context_switch`
charges that as micro-ops on the machine — hot loads/stores against a
scheduler-state region plus a stride over a cold "kernel" region —
so multiprogramming has the energy cost the paper's L1D analysis
predicts it should.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim.address_space import LINE_SIZE
from repro.sim.machine import Machine


@dataclass(frozen=True)
class ContextSwitchCost:
    """Micro-op bill of one context switch (register save/restore,
    run-queue manipulation, cache repopulation)."""

    state_loads: int = 96
    state_stores: int = 64
    cold_lines: int = 32
    other_ops: int = 160
    branches: int = 24


@dataclass
class Core:
    """One virtual core: an index and a virtual wall clock."""

    index: int
    #: Virtual time up to which this core's work is accounted.
    clock_s: float = 0.0
    #: Opaque tag of the context last installed (None = fresh core).
    resident: Optional[object] = None
    #: Requests currently multiprogrammed on this core (owned by the
    #: serving layer; the core itself only time-stamps their work).
    run_list: list = field(default_factory=list)


class CoreSet:
    """N virtual cores over one machine (see module docstring)."""

    def __init__(self, machine: Machine, n_cores: int,
                 switch_cost: Optional[ContextSwitchCost] = None,
                 label: str = "cores"):
        if n_cores < 1:
            raise ConfigError(f"need at least one core, got {n_cores}")
        self.machine = machine
        self.cores = [Core(index=i) for i in range(n_cores)]
        self.switch_cost = switch_cost or ContextSwitchCost()
        self.context_switches = 0
        #: Optional :class:`~repro.faults.FaultInjector`; when set, a
        #: quantum may end in an injected core stall (charged as idle).
        self.injector = None
        self.stalls = 0
        #: Hot scheduler state (run queues, current-task pointers).
        self._state = machine.address_space.alloc(
            2048, label=f"{label}/sched-state"
        )
        #: Cold kernel working set walked on each switch — evicts the
        #: outgoing query's L1D lines, the real cost of multiprogramming.
        self._cold = machine.address_space.alloc(
            max(LINE_SIZE, self.switch_cost.cold_lines * 4 * LINE_SIZE),
            label=f"{label}/kernel",
        )
        self._cold_cursor = 0

    # ------------------------------------------------------------ switching

    def context_switch(self, core: Core, incoming: object) -> bool:
        """Install ``incoming`` on ``core``; charges the switch bill when
        the core's resident context differs.  Returns True if charged."""
        if core.resident is incoming:
            return False
        cost = self.switch_cost
        machine = self.machine
        machine.hot_loads(self._state.base, cost.state_loads)
        machine.hot_stores(self._state.base, cost.state_stores)
        # Coprime stride over the cold set; load_ring lets the batched
        # executor fold all-hit rotations into bulk accounting.
        self._cold_cursor = machine.exec.load_ring(
            self._cold.base, self._cold_cursor, 7,
            cost.cold_lines, self._cold.n_lines,
        )
        machine.other(cost.other_ops)
        machine.branch(cost.branches)
        core.resident = incoming
        self.context_switches += 1
        machine.metrics.counter("cores.context_switches").inc()
        return True

    # ------------------------------------------------------------ running

    def run_on(self, core: Core, work: Callable[[], None]) -> float:
        """Run one quantum of ``work`` on ``core``.

        The machine prices the work (energy, counters); the core's
        virtual clock advances by the machine-time delta (busy plus any
        in-quantum disk idle).  The clock is advanced even when ``work``
        raises — a faulted quantum's partial work happened and must stay
        on this core's timeline.  Returns the delta in seconds.
        """
        machine = self.machine
        machine.settle()
        start = machine.time_s
        try:
            work()
            if self.injector is not None and self.injector.core_stall():
                self.stalls += 1
                machine.metrics.counter("cores.stalls").inc()
                with machine.tracer.span("core.stall", category="fault",
                                         fault="core.stall", wasted="stall"):
                    machine.idle(self.injector.plan.core_stall_s)
        finally:
            machine.settle()
            delta = machine.time_s - start
            core.clock_s += delta
        return delta

    def quiesce_until(self, t_s: float) -> float:
        """All cores idle until virtual time ``t_s``.

        Charges package idle (background energy) for the gap past the
        last core to go quiet and advances every core's clock.  Returns
        the idle seconds charged.
        """
        quiet = max(core.clock_s for core in self.cores)
        gap = t_s - quiet
        if gap > 0:
            self.machine.idle(gap)
        for core in self.cores:
            core.clock_s = max(core.clock_s, t_s)
        return max(gap, 0.0)
