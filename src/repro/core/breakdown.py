"""Applying Eq. (1): pricing a workload's counters with calibrated dE_m.

Given a workload's PMU counters and its measured Active energy, each MS
term is ``N_m * dE_m``; whatever the terms do not explain is
``E_other`` — the unisolated cost of calculation, L1I, TLB, etc.
(Eq. 1's residual).  On machines without L2/L3, those terms are zero.
"""

from __future__ import annotations

from repro.core.model import DeltaE, EnergyBreakdown
from repro.sim.pmu import PmuCounters


def price_counters(
    counters: PmuCounters,
    delta_e: DeltaE,
    active_energy_j: float,
    background_energy_j: float = 0.0,
) -> EnergyBreakdown:
    """Break ``active_energy_j`` down along the MS terms of Eq. (1)."""
    e_l1d = counters.n_l1d * delta_e.l1d
    e_reg2l1d = counters.n_store_l1d_hit * delta_e.reg2l1d
    e_l2 = counters.n_l2 * delta_e.l2 if delta_e.l2 is not None else 0.0
    e_l3 = counters.n_l3 * delta_e.l3 if delta_e.l3 is not None else 0.0
    e_mem = counters.n_mem * delta_e.mem
    e_pf = 0.0
    if delta_e.pf_l2 is not None:
        e_pf += counters.n_pf_l2 * delta_e.pf_l2
    if delta_e.pf_l3 is not None:
        e_pf += counters.n_pf_l3 * delta_e.pf_l3
    e_stall = counters.stall_cycles * delta_e.stall
    isolated = e_l1d + e_reg2l1d + e_l2 + e_l3 + e_mem + e_pf + e_stall
    e_other = max(0.0, active_energy_j - isolated)
    return EnergyBreakdown(
        e_l1d=e_l1d,
        e_reg2l1d=e_reg2l1d,
        e_l2=e_l2,
        e_l3=e_l3,
        e_mem=e_mem,
        e_pf=e_pf,
        e_stall=e_stall,
        e_other=e_other,
        active_energy_j=active_energy_j,
        background_energy_j=background_energy_j,
    )


def estimate_active_energy(
    counters: PmuCounters, delta_e: DeltaE
) -> float:
    """The §2.5.5 estimator: MS terms + (dE_add*N_add + dE_nop*N_nop).

    This is what the verification benchmarks are priced with — the
    paper sets ``E_other = dE_add*N_add + dE_nop*N_nop`` for VMBS.
    """
    priced = price_counters(counters, delta_e, active_energy_j=0.0)
    movement = priced.total - priced.e_other
    return movement + delta_e.add * counters.n_add + delta_e.nop * counters.n_nop
