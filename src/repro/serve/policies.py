"""Scheduling policies and DVFS serving modes.

A policy answers one question: *given the dispatchable queue, which
request runs next?*  All policies are deterministic — ties break on
arrival order — so a serve run is a pure function of its seed.

* :class:`FifoPolicy` — arrival order.  The baseline.
* :class:`SjfPolicy` — smallest predicted joules first
  (shortest-job-first); minimises mean latency under load.
* :class:`LocalityPolicy` — energy-aware locality batching: prefer
  requests touching the tables that are currently *hot* (the tables of
  the requests just dispatched).  Same-table queries back-to-back reuse
  buffer-pool frames and the CPU lines under them; alternating tables
  recycles frames, and every recycled frame's lines are invalidated
  (the DMA model), so the re-read pays L2/L3/DRAM energy.  A starvation
  guard caps how many times the head waiter can be bypassed.

DVFS serving modes (:func:`apply_dvfs`) set the machine's frequency
strategy for the whole run: ``race`` pins the top P-state and sprints
to idle, ``pace`` pins a middle P-state, ``eist`` enables the demand
governor.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError
from repro.serve.request import Request
from repro.sim.dvfs import EistGovernor
from repro.sim.machine import Machine

POLICIES = ("fifo", "sjf", "locality")
DVFS_MODES = ("race", "pace", "eist")

#: How many dispatches may bypass the head-of-queue waiter before the
#: locality policy is forced to serve it (starvation guard).
DEFAULT_MAX_BYPASS = 8


class SchedulingPolicy:
    """Pick the next request to dispatch from the queue."""

    name = "base"

    def select(self, queue: "Iterable[Request]",
               hot_tables: frozenset[str]) -> Request:
        """``queue`` is the admission deque: indexable at ``[0]`` and
        iterable in arrival order.  Called only on a non-empty queue."""
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Arrival order, no reordering."""

    name = "fifo"

    def select(self, queue, hot_tables):
        return queue[0]


class SjfPolicy(SchedulingPolicy):
    """Shortest job first, keyed on :attr:`JobTemplate.cost` (predicted
    joules for SQL jobs)."""

    name = "sjf"

    def select(self, queue, hot_tables):
        return min(queue, key=lambda r: (r.job.cost, r.arrival_s,
                                         r.request_id))


class LocalityPolicy(SchedulingPolicy):
    """Batch same-table requests to keep the buffer pool hot."""

    name = "locality"

    def __init__(self, max_bypass: int = DEFAULT_MAX_BYPASS):
        if max_bypass < 0:
            raise ConfigError(f"max_bypass must be >= 0, got {max_bypass}")
        self.max_bypass = max_bypass
        self._head_bypassed = 0

    def select(self, queue, hot_tables):
        head = queue[0]
        if self._head_bypassed >= self.max_bypass:
            self._head_bypassed = 0
            return head
        best = None
        best_overlap = 0
        for request in queue:
            overlap = len(hot_tables.intersection(request.job.tables))
            if overlap > best_overlap:
                best, best_overlap = request, overlap
        if best is None or best is head:
            self._head_bypassed = 0
            return head
        self._head_bypassed += 1
        return best


def make_policy(name: str) -> SchedulingPolicy:
    if name == "fifo":
        return FifoPolicy()
    if name == "sjf":
        return SjfPolicy()
    if name == "locality":
        return LocalityPolicy()
    raise ConfigError(f"unknown policy {name!r}; known: {POLICIES}")


def apply_dvfs(machine: Machine, mode: str, injector=None) -> None:
    """Configure the machine's frequency strategy for a serve run.

    ``injector`` (a :class:`~repro.faults.FaultInjector`, chaos runs
    only) lets the ``eist`` governor suffer stuck-DVFS episodes; the
    pinned modes have no governor to get stuck.
    """
    table = machine.config.pstates
    if mode == "race":
        machine.disable_eist()
        machine.set_pstate(table.highest)
    elif mode == "pace":
        machine.disable_eist()
        states = list(table.states())
        machine.set_pstate(states[len(states) // 2])
    elif mode == "eist":
        machine.enable_eist(EistGovernor(table=table, injector=injector))
    else:
        raise ConfigError(f"unknown dvfs mode {mode!r}; known: {DVFS_MODES}")
