"""Helpers shared by several test modules."""

from __future__ import annotations


def machine_state(machine) -> tuple:
    """PMU counters plus every cache level's statistics: what two runs
    must agree on beyond the figures they print."""
    hier = machine.hierarchy
    levels = [lv for lv in (hier.l1d, hier.l2, hier.l3) if lv is not None]
    return (repr(machine.cpu.counters.as_dict()),
            [(lv.hits, lv.misses, lv.fills, lv.evictions,
              lv.dirty_evictions) for lv in levels])
