"""Verification of dE_m accuracy (§2.5.5, Table 3).

Each VMBS benchmark is run and measured; Eq. (1) with the calibrated
dE_m estimates its Active energy; the accuracy is

    acc(v) = 1 - |E_est(v) - E_meas(v)| / E_meas(v)      (clamped at 0)

The paper reports an average accuracy of 93.47% on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.breakdown import estimate_active_energy
from repro.core.model import DeltaE
from repro.micro.measurement import BackgroundRates
from repro.micro.runner import MicroResult, RuntimeConfig, run_prepared
from repro.micro.verification import prepare_verification, vmbs_for
from repro.sim.machine import Machine


@dataclass(frozen=True)
class VerificationRow:
    """One Table 3 row: measured vs estimated Active energy."""

    name: str
    measured_j: float
    estimated_j: float

    @property
    def accuracy_pct(self) -> float:
        if self.measured_j <= 0:
            return 0.0
        acc = 1.0 - abs(self.estimated_j - self.measured_j) / self.measured_j
        return 100.0 * max(0.0, acc)


@dataclass
class VerificationReport:
    """All Table 3 rows plus the average accuracy."""

    rows: list[VerificationRow]

    @property
    def average_accuracy_pct(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.accuracy_pct for r in self.rows) / len(self.rows)

    def row(self, name: str) -> VerificationRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def verify(
    machine: Machine,
    delta_e: DeltaE,
    *,
    background: BackgroundRates,
    runtime: Optional[RuntimeConfig] = None,
    seed: int = 4321,
) -> VerificationReport:
    """Run VMBS and score the calibrated dE table against measurements
    (``background``: the calibration's idle-power measurement)."""
    if runtime is None:
        runtime = RuntimeConfig()
    rows: list[VerificationRow] = []
    for name in vmbs_for(machine):
        prepared = prepare_verification(name, machine, seed=seed)
        result: MicroResult = run_prepared(
            machine, prepared, background, runtime
        )
        estimated = estimate_active_energy(result.measurement.counters, delta_e)
        rows.append(
            VerificationRow(
                name=name,
                measured_j=result.measurement.active_energy_j,
                estimated_j=estimated,
            )
        )
    return VerificationReport(rows=rows)
