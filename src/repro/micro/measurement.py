"""Active-energy measurement (§2.6).

The paper measures RAPL domain energies and subtracts the Background
energy (measured with an only-blocked program while C-states are off).
The domain read depends on how deep the workload reaches:

* no L3 / DRAM traffic          → core domain,
* L3 but no DRAM traffic        → package domain,
* DRAM traffic                  → package + dram domains.

This module implements that procedure against a simulated machine, plus
the multiplicative measurement noise the machine is configured with —
RAPL and power meters are not exact on hardware either, and a noiseless
measurement would make the Table 3 verification trivially perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.machine import Machine
from repro.sim.pmu import PmuCounters

DOMAIN_CORE = "core"
DOMAIN_PACKAGE = "package"
DOMAIN_PACKAGE_DRAM = "package+dram"


@dataclass(frozen=True)
class BackgroundRates:
    """Background power per RAPL domain, in watts, as *measured*."""

    core_w: float
    package_w: float
    dram_w: float

    def rate(self, domain: str) -> float:
        if domain == DOMAIN_CORE:
            return self.core_w
        if domain == DOMAIN_PACKAGE:
            return self.package_w
        if domain == DOMAIN_PACKAGE_DRAM:
            return self.package_w + self.dram_w
        raise ValueError(f"unknown domain {domain!r}")


@dataclass(frozen=True)
class Measurement:
    """One measured window of workload execution."""

    counters: PmuCounters
    domain: str
    total_energy_j: float       # domain energy over the window
    background_energy_j: float  # background rate x elapsed
    active_energy_j: float      # total - background (noise applied)
    busy_s: float
    idle_s: float
    time_s: float

    @property
    def busy_cpu_energy_j(self) -> float:
        """Busy-CPU energy = Active + Background accrued while busy."""
        if self.time_s <= 0:
            return 0.0
        busy_fraction = self.busy_s / self.time_s
        return self.active_energy_j + self.background_energy_j * busy_fraction


def measure_background(machine: Machine, seconds: float = 0.05) -> BackgroundRates:
    """The paper's ``sleep 1`` calibration: idle with C-states disabled
    and read each domain's power."""
    cstates = machine.cstates_enabled
    machine.set_cstates(False)
    machine.settle()
    core0 = machine.rapl.energy_core()
    pkg0 = machine.rapl.energy_package()
    dram0 = machine.rapl.energy_dram()
    machine.idle(seconds)
    rates = BackgroundRates(
        core_w=(machine.rapl.energy_core() - core0) / seconds,
        package_w=(machine.rapl.energy_package() - pkg0) / seconds,
        dram_w=(machine.rapl.energy_dram() - dram0) / seconds,
    )
    machine.set_cstates(cstates)
    return rates


def select_domain(counters: PmuCounters) -> str:
    """§2.6's domain-selection rule, from observable counters."""
    touches_dram = counters.n_mem > 0 or counters.n_pf_l3 > 0
    if touches_dram:
        return DOMAIN_PACKAGE_DRAM
    touches_uncore = counters.n_l3 > 0 or counters.n_pf_l2 > 0
    if touches_uncore:
        return DOMAIN_PACKAGE
    return DOMAIN_CORE


def run_measured(
    machine: Machine,
    workload: Callable[[], None],
    background: BackgroundRates,
    apply_noise: bool = True,
) -> Measurement:
    """Run ``workload`` and return its measured window.

    The domain is selected *after* the run from the observed counters —
    operationally equivalent to the paper's per-workload choice, but
    automatic.
    """
    machine.settle()
    pmu_before = machine.pmu.snapshot()
    core0 = machine.rapl.energy_core()
    pkg0 = machine.rapl.energy_package()
    dram0 = machine.rapl.energy_dram()
    time0 = machine.time_s
    busy0 = machine.busy_s
    idle0 = machine.idle_s

    workload()
    machine.settle()

    counters = machine.pmu.since(pmu_before)
    domain = select_domain(counters)
    if domain == DOMAIN_CORE:
        total = machine.rapl.energy_core() - core0
    elif domain == DOMAIN_PACKAGE:
        total = machine.rapl.energy_package() - pkg0
    else:
        total = (machine.rapl.energy_package() - pkg0) + (
            machine.rapl.energy_dram() - dram0
        )
    elapsed = machine.time_s - time0
    background_energy = background.rate(domain) * elapsed
    active = total - background_energy
    if apply_noise:
        active *= machine.measurement_noise_factor()
    return Measurement(
        counters=counters,
        domain=domain,
        total_energy_j=total,
        background_energy_j=background_energy,
        active_energy_j=active,
        busy_s=machine.busy_s - busy0,
        idle_s=machine.idle_s - idle0,
        time_s=elapsed,
    )
