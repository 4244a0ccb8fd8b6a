"""One-call profiling of arbitrary workloads (§3's procedure).

``profile_workload`` runs a workload callable on a machine under the
paper's §3 conditions — prefetchers *on*, pinned P-state (or EIST),
C-states off — measures its Active energy, and prices it into an
:class:`repro.core.model.EnergyBreakdown` with a calibrated dE table.

Workloads are plain callables taking the machine; the database engines
and the synthetic CPU2006 kernels all fit this signature.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.breakdown import price_counters
from repro.core.model import DeltaE, WorkloadProfile
from repro.micro.measurement import BackgroundRates, run_measured
from repro.sim.machine import Machine

Workload = Callable[[], None]


def profile_workload(
    machine: Machine,
    name: str,
    workload: Workload,
    delta_e: DeltaE,
    *,
    background: BackgroundRates,
    pstate: Optional[int] = None,
    prefetcher: bool = True,
    warmup: Optional[Workload] = None,
    apply_noise: bool = True,
) -> WorkloadProfile:
    """Run ``workload`` once (after an optional warm-up run) and break
    its Active energy down.

    Unlike micro-benchmarking, profiling keeps the hardware prefetcher
    on — §3 turns it back on because real deployments run that way.
    ``background`` is the calibration's idle-power measurement
    (``CalibrationResult.background``).
    """
    if pstate is not None:
        machine.set_pstate(pstate)
    machine.set_prefetcher(prefetcher)
    machine.set_cstates(False)
    if warmup is not None:
        warmup()
    measurement = run_measured(machine, workload, background, apply_noise)
    breakdown = price_counters(
        measurement.counters,
        delta_e,
        measurement.active_energy_j,
        measurement.background_energy_j,
    )
    return WorkloadProfile(
        name=name,
        breakdown=breakdown,
        counters=measurement.counters,
        busy_s=measurement.busy_s,
        idle_s=measurement.idle_s,
        time_s=measurement.time_s,
        domain=measurement.domain,
    )
