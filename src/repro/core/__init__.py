"""The paper's contribution: micro-analysis of Busy-CPU energy.

Calibrate once per machine/P-state, then break any workload down::

    from repro import Machine, tiny_intel
    from repro.core import calibrate, profile_workload

    machine = Machine(tiny_intel())
    cal = calibrate(machine)
    profile = profile_workload(machine, "my workload", fn, cal.delta_e,
                               background=cal.background)
    print(profile.breakdown.shares_pct())
"""

from repro.core.accuracy import VerificationReport, VerificationRow, verify
from repro.core.breakdown import estimate_active_energy, price_counters
from repro.core.calibration import (
    CalibrationResult,
    calibrate,
    calibrate_pstates,
)
from repro.core.coefficients import (
    PRICE_COMPONENTS,
    MicroOpPricing,
    nominal_delta_e,
)
from repro.core.model import (
    BREAKDOWN_COMPONENTS,
    MS,
    DeltaE,
    EnergyBreakdown,
    WorkloadProfile,
    sum_breakdowns,
)
from repro.core.profiler import profile_workload
from repro.core.report import (
    render_breakdown_bar,
    render_breakdown_rows,
    render_delta_e,
    render_microbench_behaviour,
    render_table,
    render_verification,
)

__all__ = [
    "VerificationReport",
    "VerificationRow",
    "verify",
    "estimate_active_energy",
    "price_counters",
    "CalibrationResult",
    "calibrate",
    "calibrate_pstates",
    "PRICE_COMPONENTS",
    "MicroOpPricing",
    "nominal_delta_e",
    "BREAKDOWN_COMPONENTS",
    "MS",
    "DeltaE",
    "EnergyBreakdown",
    "WorkloadProfile",
    "sum_breakdowns",
    "profile_workload",
    "render_breakdown_bar",
    "render_breakdown_rows",
    "render_delta_e",
    "render_microbench_behaviour",
    "render_table",
    "render_verification",
]
