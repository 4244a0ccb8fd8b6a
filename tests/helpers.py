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


def exact_state(machine) -> dict:
    """Everything the batched executor must reproduce exactly: PMU
    counters, RAPL joules, clocks, P-state, every cache level's
    statistics with each set's LRU order and dirty bits, and the
    prefetcher's trackers."""
    rapl = machine.rapl
    state = {
        "counters": machine.cpu.counters.as_dict(),
        "core_j": rapl.energy_core(),
        "package_j": rapl.energy_package(),
        "dram_j": rapl.energy_dram(),
        "time_s": machine.time_s,
        "busy_s": machine.busy_s,
        "pstate": machine.pstate,
    }
    for level in (machine.hierarchy.l1d, machine.hierarchy.l2,
                  machine.hierarchy.l3):
        if level is None:
            continue
        state[level.name] = (
            level.hits, level.misses, level.fills, level.evictions,
            level.dirty_evictions, level.occupancy,
            tuple(tuple(s.items()) for s in level._sets),
        )
    pf = machine.hierarchy.prefetcher
    state["prefetcher"] = (
        pf.n_trained, pf.n_pf_l2_issued, pf.n_pf_l3_issued, pf._victim,
        tuple(zip(pf._last, pf._run, pf._l2up, pf._l3up)),
    )
    return state
