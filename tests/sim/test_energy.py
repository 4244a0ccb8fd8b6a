"""Unit tests for the hidden energy model and RAPL counters."""

import pytest

from repro.sim.energy import (
    BackgroundPower,
    EventCost,
    EventEnergyTable,
    RaplCounters,
    active_energy_joules,
)
from repro.sim.pmu import TICKS_PER_CYCLE, PmuCounters


def flat_table(value_nj: float = 1.0) -> EventEnergyTable:
    cost = EventCost(0.0, value_nj)
    return EventEnergyTable(
        load_l1d=cost, store_l1d=cost, xfer_l2=cost, stall_cycle=cost,
        add=cost, nop=cost, mul=cost, cmp=cost, branch=cost, other=cost,
        tcm_load=cost, tcm_store=cost, xfer_l3=cost, pf_l2=cost,
        mem_ctl=cost, writeback=cost, dram_access=cost, pf_l3_dram=cost,
    )


class TestEventCost:
    def test_reference_point(self):
        assert EventCost(2.0, 3.0).at(1.0) == pytest.approx(5.0)

    def test_scaling(self):
        cost = EventCost(2.0, 3.0)
        assert cost.at(0.5) == pytest.approx(3.5)

    def test_fixed_part_immune_to_scaling(self):
        cost = EventCost(10.0, 0.0)
        assert cost.at(0.1) == cost.at(1.0)


class TestActivePricing:
    def test_domains_are_separate(self):
        counters = PmuCounters(n_l1d=1, n_l3=1, n_mem=1)
        account = active_energy_joules(counters, flat_table(), 1.0)
        assert account.core_active > 0
        assert account.uncore_active > 0
        assert account.dram_active > 0

    def test_zero_counters_zero_energy(self):
        account = active_energy_joules(PmuCounters(), flat_table(), 1.0)
        assert account.core_active == 0
        assert account.uncore_active == 0
        assert account.dram_active == 0

    def test_linearity_in_counts(self):
        a = active_energy_joules(PmuCounters(n_l1d=10), flat_table(), 1.0)
        b = active_energy_joules(PmuCounters(n_l1d=30), flat_table(), 1.0)
        assert b.core_active == pytest.approx(3 * a.core_active)

    def test_nanojoule_unit(self):
        account = active_energy_joules(
            PmuCounters(n_add=1), flat_table(2.0), 1.0
        )
        assert account.core_active == pytest.approx(2e-9)

    def test_stall_cycles_priced(self):
        account = active_energy_joules(
            PmuCounters(stall_ticks=100 * TICKS_PER_CYCLE), flat_table(1.0), 1.0
        )
        assert account.core_active == pytest.approx(100e-9)

    def test_prefetch_priced_in_uncore_and_dram(self):
        account = active_energy_joules(
            PmuCounters(n_pf_l3=5), flat_table(1.0), 1.0
        )
        assert account.uncore_active > 0   # memory-controller part
        assert account.dram_active > 0     # DRAM part


class TestRapl:
    def test_monotone_counters(self):
        rapl = RaplCounters(flat_table(), BackgroundPower())
        readings = [rapl.energy_package()]
        for _ in range(5):
            rapl.settle_active(PmuCounters(n_l1d=100), 1.0)
            rapl.settle_background(0.01)
            readings.append(rapl.energy_package())
        assert readings == sorted(readings)

    def test_core_within_package(self):
        rapl = RaplCounters(flat_table(), BackgroundPower())
        rapl.settle_active(PmuCounters(n_l1d=10, n_l3=10, n_mem=10), 1.0)
        rapl.settle_background(0.5)
        assert rapl.energy_core() <= rapl.energy_package()

    def test_background_rates(self):
        bg = BackgroundPower(core=2.0, package_total=5.0, dram=1.0)
        rapl = RaplCounters(flat_table(), bg)
        rapl.settle_background(2.0)
        assert rapl.energy_core() == pytest.approx(4.0)
        assert rapl.energy_package() == pytest.approx(10.0)
        assert rapl.energy_dram() == pytest.approx(2.0)

    def test_deep_idle_reduces_background(self):
        bg = BackgroundPower(core=2.0, package_total=5.0, dram=1.0,
                             idle_fraction=0.25)
        rapl = RaplCounters(flat_table(), bg)
        rapl.settle_background(1.0, deep_idle=True)
        assert rapl.energy_core() == pytest.approx(0.5)

    def test_reset(self):
        rapl = RaplCounters(flat_table(), BackgroundPower())
        rapl.settle_active(PmuCounters(n_l1d=10), 1.0)
        rapl.reset()
        assert rapl.energy_package() == 0.0

    def test_vf2_scales_variable_part(self):
        rapl_hi = RaplCounters(flat_table(), BackgroundPower())
        rapl_lo = RaplCounters(flat_table(), BackgroundPower())
        counters = PmuCounters(n_add=1000)
        rapl_hi.settle_active(counters, 1.0)
        rapl_lo.settle_active(counters, 0.5)
        assert rapl_lo.energy_core() == pytest.approx(
            0.5 * rapl_hi.energy_core()
        )

    def test_default_table_matches_paper_magnitudes(self):
        """The hidden ground truth sits near Table 2's values."""
        table = EventEnergyTable()
        assert table.load_l1d.at(1.0) == pytest.approx(1.30, abs=0.2)
        assert table.store_l1d.at(1.0) == pytest.approx(2.42, abs=0.3)
        mem_total = table.mem_ctl.at(1.0) + table.dram_access.at(1.0)
        assert mem_total == pytest.approx(103.1, rel=0.1)
