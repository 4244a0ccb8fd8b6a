"""Unit tests for PMU counters and derived metrics."""

import pytest

from repro.sim.pmu import TICKS_PER_CYCLE, Pmu, PmuCounters


class TestDerivedMetrics:
    def test_instructions_sum(self):
        c = PmuCounters(n_load_inst=2, n_store_inst=3, n_add=4, n_nop=1,
                        n_mul=1, n_cmp=1, n_branch=1, n_other=2)
        assert c.instructions == 15

    def test_ipc(self):
        c = PmuCounters(n_add=100, cycle_ticks=50 * TICKS_PER_CYCLE)
        assert c.ipc == pytest.approx(2.0)

    def test_ipc_zero_cycles(self):
        assert PmuCounters(n_add=5).ipc == 0.0

    def test_miss_rates(self):
        c = PmuCounters(n_l1d=100, l1d_hits=90, n_l2=10, l2_hits=5,
                        n_l3=5, l3_hits=5)
        assert c.l1d_miss_rate == pytest.approx(0.10)
        assert c.l2_miss_rate == pytest.approx(0.50)
        assert c.l3_miss_rate == pytest.approx(0.0)

    def test_miss_rate_no_accesses(self):
        assert PmuCounters().l1d_miss_rate == 0.0

    def test_store_hit_rate(self):
        c = PmuCounters(n_store=100, n_store_l1d_hit=99)
        assert c.store_l1d_hit_rate == pytest.approx(0.99)

    def test_bli(self):
        c = PmuCounters(n_load_inst=98, n_branch=1, n_cmp=1)
        assert c.body_loop_instruction_pct("load") == pytest.approx(98.0)

    def test_bli_multiple_classes(self):
        c = PmuCounters(n_add=50, n_nop=30, n_other=20)
        assert c.body_loop_instruction_pct("add", "nop") == pytest.approx(80.0)


class TestSnapshots:
    def test_minus(self):
        a = PmuCounters(n_l1d=10, cycle_ticks=100 * TICKS_PER_CYCLE)
        b = PmuCounters(n_l1d=3, cycle_ticks=40 * TICKS_PER_CYCLE)
        delta = a.minus(b)
        assert delta.n_l1d == 7
        assert delta.cycles == pytest.approx(60.0)

    def test_copy_is_independent(self):
        a = PmuCounters(n_l1d=5)
        b = a.copy()
        b.n_l1d = 99
        assert a.n_l1d == 5

    def test_pmu_since(self):
        pmu = Pmu()
        pmu.counters.n_add = 10
        snap = pmu.snapshot()
        pmu.counters.n_add = 25
        assert pmu.since(snap).n_add == 15

    def test_reset_detaches_old_counters(self):
        pmu = Pmu()
        old = pmu.counters
        pmu.reset()
        old.n_add = 50
        assert pmu.counters.n_add == 0
