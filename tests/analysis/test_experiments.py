"""Tests of the experiment layer (cheap experiments run fully; shape
checks are asserted — the slow sweeps are exercised by benchmarks/)."""

import pytest

from repro.analysis import EXPERIMENTS, Lab, LabConfig, tab01, tab02, tab03
from repro.analysis.experiments import (
    ExperimentResult,
    ext_nosql,
    fig05,
    fig10,
    fig13,
    tab05,
)
from repro.sim.batch import EXEC_MODES
from repro.sim.dvfs import EistGovernor
from tests.helpers import machine_state


@pytest.fixture(scope="module")
def lab():
    return Lab(LabConfig(scale=16))


class TestLab:
    def test_machine_memoised(self, lab):
        assert lab.machine is lab.machine

    def test_calibration_memoised(self, lab):
        assert lab.calibration() is lab.calibration()

    def test_calibration_per_pstate(self, lab):
        assert lab.calibration(36) is not lab.calibration(24)

    def test_database_memoised(self, lab):
        assert lab.database("sqlite") is lab.database("sqlite")

    def test_database_per_engine(self, lab):
        assert lab.database("sqlite") is not lab.database("mysql")


class TestRegistry:
    def test_all_fifteen_experiments(self):
        assert set(EXPERIMENTS) == {
            "tab01", "tab02", "tab03", "tab05",
            "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig13", "sec5", "ext_nosql", "ext_writes",
        }

    def test_result_type(self, lab):
        result = tab01(lab)
        assert isinstance(result, ExperimentResult)
        assert result.text
        assert result.data


class TestCheapExperiments:
    def test_tab01_checks_pass(self, lab):
        result = tab01(lab)
        assert result.all_checks_pass, result.failed_checks()

    def test_tab02_checks_pass(self, lab):
        result = tab02(lab)
        assert result.all_checks_pass, result.failed_checks()

    def test_tab03_checks_pass(self, lab):
        result = tab03(lab)
        assert result.all_checks_pass, result.failed_checks()

    def test_tab05_checks_pass(self, lab):
        result = tab05(lab)
        assert result.all_checks_pass, result.failed_checks()

    def test_fig13_subset_checks_pass(self, lab):
        result = fig13(lab, queries=(1, 3, 6, 12))
        assert result.all_checks_pass, result.failed_checks()

    def test_failed_checks_listing(self):
        result = ExperimentResult("x", "t", "text", {}, {"a": True, "b": False})
        assert not result.all_checks_pass
        assert result.failed_checks() == ["b"]


@pytest.fixture(scope="module")
def mode_labs():
    return {mode: Lab(LabConfig(scale=16, tier="10MB", exec_mode=mode))
            for mode in EXEC_MODES}


class TestExecModes:
    """Experiments regenerate bit-identical ``data`` and ``text`` in both
    exec modes (EXPERIMENTS.md).  These three reach the batched
    executor's rarest shapes: write-allocate stores served from L2
    (fig10 and ext_nosql, whose default ``n_keys`` is the smallest that
    flushes a memtable) and row reads in the ARM preset's DTCM window
    (fig13)."""

    @pytest.mark.parametrize("run", [
        pytest.param(lambda lab: fig10(lab, ops=5000), id="fig10"),
        pytest.param(lambda lab: fig13(lab, queries=(1, 3, 6, 12)),
                     id="fig13"),
        pytest.param(ext_nosql, id="ext_nosql"),
    ])
    def test_identical_in_both_modes(self, mode_labs, run):
        results = {mode: run(lab) for mode, lab in mode_labs.items()}
        assert repr(results["reference"].data) == repr(results["batched"].data)
        assert results["reference"].text == results["batched"].text
        # Counters the breakdowns never read must agree too.
        states = {mode: machine_state(lab.machine)
                  for mode, lab in mode_labs.items()}
        assert states["reference"] == states["batched"]


class TestSweepQueries:
    def test_subset_of_all(self):
        from repro.analysis import SWEEP_QUERIES
        from repro.workloads.tpch import ALL_QUERY_NUMBERS

        assert set(SWEEP_QUERIES) <= set(ALL_QUERY_NUMBERS)
        assert len(SWEEP_QUERIES) >= 6

    def test_every_experiment_takes_a_lab(self):
        import inspect

        for name, fn in EXPERIMENTS.items():
            params = list(inspect.signature(fn).parameters)
            assert params[0] == "lab", name


@pytest.fixture(scope="module")
def small_lab():
    return Lab(LabConfig(scale=16, tier="10MB"))


class TestMachineStateKept:
    """An experiment that drives DVFS hands the lab's machine back at the
    P-state and EIST setting it was given, so the next experiment run on
    the same lab does not depend on the order they ran in."""

    @pytest.mark.parametrize("eist", [False, True], ids=["eist_off",
                                                          "eist_on"])
    def test_fig05_restores_pstate_and_eist(self, small_lab, eist):
        machine = small_lab.machine
        governor = (EistGovernor(table=machine.config.pstates)
                    if eist else None)
        if governor is not None:
            machine.enable_eist(governor)
        entry = machine.pstate
        try:
            fig05(small_lab, queries=(1, 6), runs_per_query=1)
            assert machine.pstate == entry
            assert machine.eist_enabled == eist
            assert machine.governor is governor
        finally:
            machine.disable_eist()
