"""Tests of the dE_m solving procedure."""

import pytest

from repro import Machine, tiny_intel
from repro.core.calibration import calibrate, calibrate_pstates
from repro.errors import CalibrationError
from repro.micro.benchmarks import mbs_for, prepare
from repro.micro.measurement import measure_background
from repro.micro.runner import RuntimeConfig, run_prepared


class TestCalibrate:
    def test_recovers_ground_truth(self, session_calibration):
        """Calibrated dE_m land near the hidden energy table."""
        machine, cal = session_calibration
        table = machine.config.energy_table
        nj = cal.delta_e.nanojoules()
        assert nj["dE_L1D"] == pytest.approx(table.load_l1d.at(1.0), rel=0.15)
        assert nj["dE_Reg2L1D"] == pytest.approx(table.store_l1d.at(1.0), rel=0.15)
        assert nj["dE_stall"] == pytest.approx(table.stall_cycle.at(1.0), rel=0.15)
        mem_truth = table.mem_ctl.at(1.0) + table.dram_access.at(1.0)
        assert nj["dE_mem"] == pytest.approx(mem_truth, rel=0.15)

    def test_ordering(self, session_calibration):
        _, cal = session_calibration
        de = cal.delta_e
        assert de.l1d < de.reg2l1d < de.l2 < de.l3 < de.mem

    def test_prefetch_assumption(self, session_calibration):
        _, cal = session_calibration
        assert cal.delta_e.pf_l2 == cal.delta_e.l3
        assert cal.delta_e.pf_l3 == cal.delta_e.mem

    def test_results_contain_all_benchmarks(self, session_calibration):
        _, cal = session_calibration
        for name in ("B_L1D_array", "B_L1D_list", "B_L2", "B_L3", "B_mem",
                     "B_Reg2L1D", "B_add", "B_nop"):
            assert cal.result(name).name == name

    def test_unknown_result_rejected(self, session_calibration):
        _, cal = session_calibration
        with pytest.raises(CalibrationError):
            cal.result("B_bogus")

    def test_conflicting_pstate_args_rejected(self, machine):
        from repro.micro.runner import RuntimeConfig
        with pytest.raises(CalibrationError):
            calibrate(machine, pstate=24, runtime=RuntimeConfig(pstate=12))


class TestArmCalibration:
    def test_works_without_l2_l3(self, arm_machine):
        cal = calibrate(arm_machine)
        assert cal.delta_e.l2 is None
        assert cal.delta_e.l3 is None
        assert cal.delta_e.mem > cal.delta_e.l1d


class TestPstateSweep:
    def test_voltage_scaling_pattern(self, machine):
        results = calibrate_pstates(machine, [36, 12])
        hi = results[36].delta_e
        lo = results[12].delta_e
        # Core-located ops drop hard; DRAM barely (Table 2's pattern).
        assert lo.l1d < 0.6 * hi.l1d
        assert lo.mem > 0.85 * hi.mem


class TestExecModes:
    def test_reference_and_batched_calibrations_identical(self):
        """Counters, energies and the dE table agree exactly across
        executors, with the round replay engaged."""
        runtime = RuntimeConfig(target_ops=3000)
        cals = {}
        for mode in ("reference", "batched"):
            machine = Machine(tiny_intel(), seed=7, exec_mode=mode)
            cals[mode] = calibrate(machine, runtime=runtime)
        assert cals["reference"] == cals["batched"]
        assert machine.exec.list_replays > 0

    def test_round_replay_engages_on_chain_benchmarks(self):
        """The pointer-chase benchmarks walk only until a round is
        verified as a fixed point; every later round is replayed."""
        machine = Machine(tiny_intel(), seed=7)
        background = measure_background(machine)
        ex = machine.exec
        walks = {}
        for name in mbs_for(machine):
            before = ex.list_walks
            run_prepared(machine, prepare(name, machine), background)
            walks[name] = ex.list_walks - before
        assert walks["B_L2"] <= 3
        assert walks["B_L3"] <= 3
        assert walks["B_mem"] <= 2
        assert ex.list_verify_failed == {}

    def test_scan_memo_serves_the_array_benchmark(self):
        """B_L1D_array rescans one L1D-resident array: all but the
        first scans of a run replay the memo.  The memo is the only
        scan fast path, so it must not disengage silently."""
        machine = Machine(tiny_intel(), seed=7)
        background = measure_background(machine)
        ex = machine.exec
        run_prepared(machine, prepare("B_L1D_array", machine), background)
        calls = ex.scan_replays + ex.scan_walks
        assert calls > 100
        assert ex.scan_replays >= 0.99 * calls
