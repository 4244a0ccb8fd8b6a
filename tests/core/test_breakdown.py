"""Unit tests for Eq. (1) pricing."""

import pytest

from repro.core.breakdown import estimate_active_energy, price_counters
from repro.core.model import DeltaE
from repro.sim.pmu import TICKS_PER_CYCLE, PmuCounters


def de() -> DeltaE:
    return DeltaE(l1d=1e-9, reg2l1d=2e-9, stall=0.5e-9, mem=100e-9,
                  add=1e-9, nop=0.5e-9, l2=4e-9, l3=6e-9,
                  pf_l2=6e-9, pf_l3=100e-9)


class TestPriceCounters:
    def test_each_term(self):
        counters = PmuCounters(n_l1d=10, n_store_l1d_hit=5, n_l2=2, n_l3=1,
                               n_mem=1, n_pf_l2=3, n_pf_l3=1,
                               stall_ticks=100 * TICKS_PER_CYCLE)
        b = price_counters(counters, de(), active_energy_j=1.0)
        assert b.e_l1d == pytest.approx(10e-9)
        assert b.e_reg2l1d == pytest.approx(10e-9)
        assert b.e_l2 == pytest.approx(8e-9)
        assert b.e_l3 == pytest.approx(6e-9)
        assert b.e_mem == pytest.approx(100e-9)
        assert b.e_pf == pytest.approx(3 * 6e-9 + 100e-9)
        assert b.e_stall == pytest.approx(50e-9)

    def test_other_is_residual(self):
        counters = PmuCounters(n_l1d=10)
        b = price_counters(counters, de(), active_energy_j=50e-9)
        assert b.e_other == pytest.approx(40e-9)

    def test_other_clamped_at_zero(self):
        counters = PmuCounters(n_l1d=10)
        b = price_counters(counters, de(), active_energy_j=1e-9)
        assert b.e_other == 0.0

    def test_missing_levels_priced_zero(self):
        small = DeltaE(l1d=1e-9, reg2l1d=2e-9, stall=1e-9, mem=50e-9,
                       add=1e-9, nop=1e-9)
        counters = PmuCounters(n_l1d=5, n_l2=100, n_l3=100, n_pf_l2=5)
        b = price_counters(counters, small, active_energy_j=1.0)
        assert b.e_l2 == 0.0 and b.e_l3 == 0.0 and b.e_pf == 0.0


class TestEstimator:
    def test_includes_compute_terms(self):
        counters = PmuCounters(n_l1d=10, n_add=100, n_nop=200)
        est = estimate_active_energy(counters, de())
        assert est == pytest.approx(10e-9 + 100e-9 + 100e-9)

    def test_excludes_residual(self):
        """The estimator models E_other as add+nop only (2.5.5)."""
        counters = PmuCounters(n_l1d=10, n_other=1000)
        est = estimate_active_energy(counters, de())
        assert est == pytest.approx(10e-9)
