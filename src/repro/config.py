"""Machine configurations and the two paper presets.

* :func:`intel_i7_4790` — the paper's measurement platform (§2.6):
  L1D 32 KB / L2 256 KB / L3 8 MB, dual-issue, L2 hardware prefetcher,
  P-states 8–36 with EIST.
* :func:`arm1176jzf_s` — the proof-of-concept platform (§4.1):
  16 KB L1D, 32 KB DTCM, no L2/L3, in-order single-issue core.

Both accept a ``scale`` divisor that shrinks every cache (and the DTCM)
by the same factor.  Workload data in this repository is scaled down from
the paper's 100 MB–1 GB to keep pure-Python simulation fast; scaling the
caches with the data preserves the hit-rate regimes the paper's findings
depend on (documented in DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError
from repro.sim.cpu import TimingConfig
from repro.sim.dvfs import PstateTable, VoltageLaw
from repro.sim.energy import BackgroundPower, EventCost, EventEnergyTable
from repro.sim.tcm import TcmConfig


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size: int
    assoc: int

    def scaled(self, scale: int) -> "CacheConfig":
        size = max(self.assoc * 64 * 2, self.size // scale)
        return CacheConfig(size=size, assoc=self.assoc)


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a :class:`repro.sim.machine.Machine`."""

    name: str
    l1d: CacheConfig
    l2: Optional[CacheConfig]
    l3: Optional[CacheConfig]
    timing: TimingConfig
    pstates: PstateTable
    energy_table: EventEnergyTable
    background: BackgroundPower
    tcm: Optional[TcmConfig] = None
    prefetcher_streams: int = 8
    prefetcher_degree: int = 4
    prefetcher_l3_extra: int = 8
    #: Relative std-dev of the multiplicative noise the measurement layer
    #: applies to energy readings (models RAPL/powermeter noise).
    measurement_noise: float = 0.025

    def __post_init__(self) -> None:
        if (self.l2 is None) != (self.l3 is None):
            raise ConfigError("a machine has L1D only, or L1D, L2 and L3")

    def with_pstate_range(self, lowest: int, highest: int) -> "MachineConfig":
        table = PstateTable(lowest=lowest, highest=highest, law=self.pstates.law)
        return replace(self, pstates=table)


def _scale_tcm(tcm: Optional[TcmConfig], scale: int) -> Optional[TcmConfig]:
    if tcm is None or scale == 1:
        return tcm
    return TcmConfig(size=max(1024, tcm.size // scale))


def intel_i7_4790(scale: int = 1) -> MachineConfig:
    """The paper's Intel platform, optionally with caches shrunk by ``scale``."""
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    config = MachineConfig(
        name=f"intel-i7-4790{'' if scale == 1 else f'/s{scale}'}",
        l1d=CacheConfig(size=32 * 1024, assoc=8).scaled(scale),
        l2=CacheConfig(size=256 * 1024, assoc=8).scaled(scale),
        l3=CacheConfig(size=8 * 1024 * 1024, assoc=16).scaled(scale),
        timing=TimingConfig(
            lat_l1=4,
            lat_l2=12,
            lat_l3=34,
            dram_lat_ns=60.0,
            lat_tcm=4,
            mlp=8,
            load_issue=0.5,
            store_issue=1.0,
            alu_issue=0.5,
            nop_issue=0.25,
            mul_issue=1.0,
            cmp_issue=0.5,
            branch_issue=1.0,
            other_issue=1.0,
        ),
        pstates=PstateTable(lowest=8, highest=36, law=VoltageLaw(0.6, 1.0 / 6.0)),
        energy_table=EventEnergyTable(),
        background=BackgroundPower(core=4.0, package_total=7.0, dram=1.5),
        tcm=None,
    )
    return config


#: Per-event prices for the ARM core: a ~0.7 GHz embedded in-order part,
#: everything cheaper in absolute terms, DTCM ~10% cheaper than L1D so
#: that B_DTCM_array reproduces the paper's 10% peak saving (§4.3).
_ARM_ENERGY = EventEnergyTable(
    load_l1d=EventCost(0.0, 0.50),
    store_l1d=EventCost(0.0, 0.80),
    xfer_l2=EventCost(0.0, 0.0),      # no L2 on this platform
    stall_cycle=EventCost(0.02, 0.28),
    add=EventCost(0.0, 0.30),
    nop=EventCost(0.0, 0.18),
    mul=EventCost(0.0, 0.55),
    cmp=EventCost(0.0, 0.26),
    branch=EventCost(0.0, 0.34),
    other=EventCost(0.0, 0.30),
    tcm_load=EventCost(0.0, 0.45),    # 10% below load_l1d
    tcm_store=EventCost(0.0, 0.72),   # 10% below store_l1d
    xfer_l3=EventCost(0.0, 0.0),
    pf_l2=EventCost(0.0, 0.0),
    mem_ctl=EventCost(3.0, 1.0),
    writeback=EventCost(0.5, 0.3),
    dram_access=EventCost(28.0, 1.0),
    pf_l3_dram=EventCost(26.0, 1.0),
)


def arm1176jzf_s(scale: int = 1) -> MachineConfig:
    """The proof-of-concept ARM platform with 32 KB DTCM (§4.1)."""
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    return MachineConfig(
        name=f"arm1176jzf-s{'' if scale == 1 else f'/s{scale}'}",
        l1d=CacheConfig(size=16 * 1024, assoc=4).scaled(scale),
        l2=None,
        l3=None,
        timing=TimingConfig(
            lat_l1=3,
            lat_l2=3,      # unused (no L2) but must be >= 1
            lat_l3=3,      # unused
            dram_lat_ns=120.0,
            lat_tcm=3,     # DTCM is as fast as L1 (§4.1)
            mlp=1,         # in-order: no miss overlap
            load_issue=1.0,
            store_issue=1.0,
            alu_issue=1.0,
            nop_issue=1.0,
            mul_issue=2.0,
            cmp_issue=1.0,
            branch_issue=1.5,
            other_issue=1.0,
        ),
        # Single operating point at 0.7 GHz: the board has no EIST.
        pstates=PstateTable(lowest=7, highest=7, law=VoltageLaw(1.0, 0.3)),
        energy_table=_ARM_ENERGY,
        background=BackgroundPower(core=0.35, package_total=0.55, dram=0.20),
        tcm=_scale_tcm(TcmConfig(size=32 * 1024), scale),
        prefetcher_streams=0,  # ARM1176 has no L2 stream prefetcher
        prefetcher_degree=0,
        prefetcher_l3_extra=0,
    )


#: Scaled-down presets for fast unit tests (tiny caches, same behaviour).
def tiny_intel() -> MachineConfig:
    """i7-4790 with caches shrunk 16x — for tests and quick examples."""
    return intel_i7_4790(scale=16)


def tiny_arm() -> MachineConfig:
    """ARM1176JZF-S with caches shrunk 4x — for tests."""
    return arm1176jzf_s(scale=4)
