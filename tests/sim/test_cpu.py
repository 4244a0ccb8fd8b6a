"""Unit tests for the CPU timing model (Table 1's behaviours)."""

import pytest

from repro.errors import ConfigError
from repro.sim.cpu import TimingConfig
from repro.sim.hierarchy import LEVEL_MEM
from repro.sim.pmu import TICKS_PER_CYCLE


@pytest.fixture
def warm(machine):
    """A machine with 8 warm lines and counters reset."""
    region = machine.address_space.alloc_lines(8, "warm")
    for i in range(8):
        machine.load(region.line(i))
    machine.reset_measurements()
    return machine, region


class TestTimingConfig:
    def test_rejects_zero_mlp(self):
        with pytest.raises(ConfigError):
            TimingConfig(mlp=0)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            TimingConfig(lat_l1=0)


class TestLoadTiming:
    def test_independent_l1_hit_dual_issue(self, warm):
        machine, region = warm
        for _ in range(100):
            machine.load(region.line(0))
        counters = machine.pmu.counters
        assert counters.cycles == pytest.approx(100 * 0.5)
        assert counters.stall_cycles == 0

    def test_dependent_l1_hit_full_latency(self, warm):
        machine, region = warm
        machine.load(region.line(0), dependent=True)
        counters = machine.pmu.counters
        assert counters.cycles == pytest.approx(4.0)
        assert counters.stall_cycles == pytest.approx(3.0)

    def test_dependent_memory_load_dominated_by_dram(self, machine):
        region = machine.address_space.alloc_lines(1, "cold")
        machine.reset_measurements()
        level = machine.load(region.base, dependent=True)
        assert level == LEVEL_MEM
        lat = machine.config.timing
        expected = lat.lat_l3 + lat.dram_lat_ns * machine.frequency_ghz()
        assert machine.pmu.counters.cycles == pytest.approx(expected)

    def test_independent_miss_overlapped_by_mlp(self, machine):
        region = machine.address_space.alloc_lines(64, "cold")
        machine.set_prefetcher(False)
        machine.reset_measurements()
        for i in range(64):
            machine.load(region.line(i))
        dependent_cost = 64 * (
            machine.config.timing.lat_l3
            + machine.config.timing.dram_lat_ns * machine.frequency_ghz()
        )
        assert machine.pmu.counters.cycles < dependent_cost / 4

    def test_dram_latency_in_cycles_scales_with_frequency(self, machine):
        timing = machine.config.timing
        machine.set_pstate(36)
        lat_hi = machine.cpu._latency[LEVEL_MEM] / TICKS_PER_CYCLE
        machine.set_pstate(12)
        lat_lo = machine.cpu._latency[LEVEL_MEM] / TICKS_PER_CYCLE
        assert lat_hi - timing.lat_l3 == pytest.approx(
            3 * (lat_lo - timing.lat_l3)
        )


class TestComputeTiming:
    def test_add_dual_issue(self, machine):
        machine.add(100)
        assert machine.pmu.counters.cycles == pytest.approx(50.0)

    def test_nop_quad_issue(self, machine):
        machine.nop(100)
        assert machine.pmu.counters.cycles == pytest.approx(25.0)

    def test_store_single_issue(self, warm):
        machine, region = warm
        for _ in range(10):
            machine.store(region.line(0))
        assert machine.pmu.counters.cycles == pytest.approx(10.0)

    def test_instruction_counts(self, machine):
        machine.add(3)
        machine.mul(2)
        machine.cmp(1)
        machine.branch(4)
        machine.other(5)
        machine.nop(6)
        counters = machine.pmu.counters
        assert counters.instructions == 21


class TestBulkHelpers:
    def test_load_bytes_issues_one_load_per_word(self, warm):
        machine, region = warm
        machine.load_bytes(region.base, 24)
        assert machine.pmu.counters.n_load_inst == 3

    def test_store_bytes(self, warm):
        machine, region = warm
        machine.store_bytes(region.base, 17)
        assert machine.pmu.counters.n_store_inst == 3

    def test_scan_lines_counts_all_loads(self, machine):
        region = machine.address_space.alloc_lines(16, "scan")
        machine.reset_measurements()
        machine.scan_lines(region.base, 16, loads_per_line=4)
        counters = machine.pmu.counters
        assert counters.n_load_inst == 64
        assert counters.n_l1d == 64

    def test_scan_lines_extra_loads_always_hit(self, machine):
        region = machine.address_space.alloc_lines(16, "scan")
        machine.reset_measurements()
        machine.scan_lines(region.base, 16, loads_per_line=8)
        counters = machine.pmu.counters
        # 7 of 8 loads per line are same-line hits.
        assert counters.l1d_hits >= 16 * 7

    def test_hot_loads_bulk_hits(self, machine):
        region = machine.address_space.alloc_lines(4, "hot")
        machine.reset_measurements()
        machine.hot_loads(region.base, 500)
        counters = machine.pmu.counters
        assert counters.n_load_inst == 500
        assert counters.l1d_hits == 500
        assert counters.stall_cycles == 0

    def test_hot_stores_bulk_hits(self, machine):
        region = machine.address_space.alloc_lines(4, "hot")
        machine.reset_measurements()
        machine.hot_stores(region.base, 300)
        counters = machine.pmu.counters
        assert counters.n_store_l1d_hit == 300

    def test_hot_loads_to_tcm_count_as_tcm(self, arm_machine):
        region = arm_machine.tcm.alloc(512, "hot")
        arm_machine.reset_measurements()
        arm_machine.hot_loads(region.base, 100)
        counters = arm_machine.pmu.counters
        assert counters.n_tcm_load == 100
        assert counters.n_l1d == 0

    def test_hot_loads_zero_is_noop(self, machine):
        machine.reset_measurements()
        machine.hot_loads(12345, 0)
        assert machine.pmu.counters.instructions == 0
