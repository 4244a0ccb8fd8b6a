"""Property-based invariants across the whole stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, tiny_intel
from repro.core.breakdown import price_counters
from repro.core.model import DeltaE
from repro.sim.pmu import TICKS_PER_CYCLE, PmuCounters


def quiet():
    import dataclasses

    return Machine(dataclasses.replace(tiny_intel(), measurement_noise=0.0))


#: A random but valid op program: (kind, argument) pairs.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "dep_load", "store", "add", "nop", "mul",
                         "cmp", "branch", "other"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1, max_size=200,
)


def _run_program(machine, program, region):
    for kind, arg in program:
        if kind == "load":
            machine.load(region.line(arg))
        elif kind == "dep_load":
            machine.load(region.line(arg), dependent=True)
        elif kind == "store":
            machine.store(region.line(arg))
        else:
            getattr(machine, kind)(arg % 7 + 1)


class TestCounterInvariants:
    @settings(max_examples=40, deadline=None)
    @given(_OPS)
    def test_cache_level_counts_chain(self, program):
        """Demand traffic is conserved level to level.

        L2 sees every L1D load miss plus every store miss (the RFO
        fetch); L3 sees every L2 miss; DRAM every L3 miss."""
        machine = quiet()
        region = machine.address_space.alloc_lines(64, "p")
        _run_program(machine, program, region)
        c = machine.pmu.counters
        store_misses = c.n_store - c.n_store_l1d_hit
        assert c.n_l2 == (c.n_l1d - c.l1d_hits) + store_misses
        assert c.l2_hits + c.n_l3 == c.n_l2
        assert c.l3_hits + c.n_mem == c.n_l3
        assert c.n_l2 >= c.n_l3 >= c.n_mem

    @settings(max_examples=40, deadline=None)
    @given(_OPS)
    def test_cycles_bound_below_by_stalls(self, program):
        machine = quiet()
        region = machine.address_space.alloc_lines(64, "p")
        _run_program(machine, program, region)
        c = machine.pmu.counters
        assert c.cycles >= c.stall_cycles >= 0

    @settings(max_examples=40, deadline=None)
    @given(_OPS)
    def test_energy_monotone_in_work(self, program):
        """Doing the program twice costs strictly more than once."""
        once = quiet()
        region1 = once.address_space.alloc_lines(64, "p")
        _run_program(once, program, region1)
        once.settle()

        twice = quiet()
        region2 = twice.address_space.alloc_lines(64, "p")
        _run_program(twice, program, region2)
        _run_program(twice, program, region2)
        twice.settle()
        assert (twice.rapl.energy_package()
                > once.rapl.energy_package())

    @settings(max_examples=40, deadline=None)
    @given(_OPS)
    def test_time_energy_positive(self, program):
        machine = quiet()
        region = machine.address_space.alloc_lines(64, "p")
        _run_program(machine, program, region)
        stats = machine.stats()
        assert stats.time_s > 0
        assert stats.energy_package_j > 0
        assert stats.energy_core_j <= stats.energy_package_j


class TestBreakdownInvariants:
    DELTA = DeltaE(l1d=1.3e-9, reg2l1d=2.4e-9, stall=1.7e-9, mem=1e-7,
                   add=1e-9, nop=6e-10, l2=4e-9, l3=7e-9, pf_l2=7e-9,
                   pf_l3=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            PmuCounters,
            n_l1d=st.integers(0, 10_000),
            n_store_l1d_hit=st.integers(0, 10_000),
            n_l2=st.integers(0, 1_000),
            n_l3=st.integers(0, 1_000),
            n_mem=st.integers(0, 1_000),
            n_pf_l2=st.integers(0, 1_000),
            n_pf_l3=st.integers(0, 1_000),
            stall_ticks=st.integers(0, 10 ** 6 * TICKS_PER_CYCLE),
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_breakdown_totals_and_shares(self, counters, active_j):
        b = price_counters(counters, self.DELTA, active_j)
        components = b.components()
        assert all(v >= 0 for v in components.values())
        assert b.total == pytest.approx(sum(components.values()))
        shares = b.shares_pct()
        if b.total > 0:
            assert sum(shares.values()) == pytest.approx(100.0)
        tolerance = 1e-9
        assert -tolerance <= b.l1d_share_pct <= 100.0 + tolerance
        assert -tolerance <= b.data_movement_share_pct <= 100.0 + tolerance

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10_000))
    def test_breakdown_linear_in_counts(self, n):
        a = price_counters(PmuCounters(n_l1d=n), self.DELTA, 0.0)
        b = price_counters(PmuCounters(n_l1d=2 * n), self.DELTA, 0.0)
        assert b.e_l1d == pytest.approx(2 * a.e_l1d)
