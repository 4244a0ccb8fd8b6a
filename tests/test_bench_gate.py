"""Unit tests for the ``repro bench`` regression gate."""

import copy
import json

from repro.bench import check_regression, write_report
from repro.cli import main


def _report(batched=10.0, speedup=6.0, identical=True):
    return {
        "scan_path": {
            "fig07_tpch_scan": {
                "reference_mops": 1.0,
                "batched_mops": 500.0,
                "speedup": 500.0,
                "counters_identical": True,
            },
            "cold_stream_scan": {
                "reference_mops": batched / speedup,
                "batched_mops": batched,
                "speedup": speedup,
                "counters_identical": identical,
            },
        },
        "row_load_run": {"batched_mops": 50.0},
    }


class TestColdScanGate:
    def test_identical_reports_pass(self):
        base = _report()
        assert check_regression(copy.deepcopy(base), base) == []

    def test_throughput_drop_fails(self):
        failures = check_regression(_report(batched=5.0), _report())
        assert any("cold_stream_scan" in f and "Mops/s" in f
                   for f in failures)

    def test_speedup_rot_fails_even_when_absolute_holds(self):
        # A faster CI runner can mask a fast-path rot in absolute Mops/s;
        # the batched/reference ratio must be gated independently.
        failures = check_regression(
            _report(batched=12.0, speedup=1.5), _report(speedup=6.0))
        assert any("speedup" in f for f in failures)

    def test_counter_drift_fails(self):
        failures = check_regression(_report(identical=False), _report())
        assert any("counters_identical" in f for f in failures)

    def test_small_wobble_within_threshold_passes(self):
        failures = check_regression(
            _report(batched=9.0, speedup=5.4), _report())
        assert failures == []

    def test_missing_baseline_entries_are_not_gated(self):
        failures = check_regression(_report(), {"scan_path": {}})
        assert all("below baseline" not in f for f in failures)


def _cli_report(**kw):
    """A full report shaped like run_bench()'s output."""
    report = _report(**kw)
    report["tpch"] = {
        "Q6": {"reference_s": 0.06, "batched_s": 0.04, "speedup": 1.5},
    }
    report["serve"] = {
        "tpch": {
            "reference": {"requests_per_s": 28.0},
            "batched": {"requests_per_s": 50.0},
            "speedup": 1.8,
            "reports_identical": True,
            "run_rows_vs_next_identical": True,
        },
        "engine": {
            "reference": {"requests_per_s": 250.0},
            "batched": {"requests_per_s": 5000.0},
            "speedup": 20.0,
            "reports_identical": True,
        },
    }
    report["serve_scale"] = {
        "completed": 50_000,
        "tenants": 200,
        "wall_s": 13.0,
        "requests_per_s": 3800.0,
        "quanta_per_s": 3800.0,
    }
    report["cluster"] = {
        "cells": {
            "n2_f0": {"energy_per_query_j": 5e-4, "p99_s": 0.01,
                      "conservation_ok": True},
            "n2_f0.05": {"energy_per_query_j": 6e-4, "p99_s": 0.05,
                         "conservation_ok": True},
        },
        "reports_identical": True,
    }
    report["serve_memory"] = {
        "queries": [2000, 8000],
        "clients": 40,
        "retained_b_per_request": 53.3,
        "peak_b_per_request": 259.0,
    }
    return report


class TestServeGates:
    def test_identical_reports_pass(self):
        base = _cli_report()
        assert check_regression(copy.deepcopy(base), base) == []

    def test_engine_speedup_rot_fails(self):
        current = _cli_report()
        current["serve"]["engine"]["speedup"] = 8.0
        failures = check_regression(current, _cli_report())
        assert any("serve.engine" in f and "speedup" in f for f in failures)

    def test_engine_report_drift_fails(self):
        current = _cli_report()
        current["serve"]["engine"]["reports_identical"] = False
        failures = check_regression(current, _cli_report())
        assert any("reports_identical" in f for f in failures)

    def test_tpch_mode_ratio_rot_fails(self):
        current = _cli_report()
        current["tpch"]["Q6"]["speedup"] = 0.9
        failures = check_regression(current, _cli_report())
        assert any("tpch.Q6" in f for f in failures)

    def test_serve_scale_throughput_drop_fails(self):
        current = _cli_report()
        current["serve_scale"]["requests_per_s"] = 1000.0
        failures = check_regression(current, _cli_report())
        assert any("serve_scale" in f for f in failures)

    def test_missing_serve_scale_fails(self):
        current = _cli_report()
        del current["serve_scale"]
        failures = check_regression(current, _cli_report())
        assert any("serve_scale" in f and "missing" in f for f in failures)

    def test_serve_tpch_speedup_rot_fails(self):
        current = _cli_report()
        current["serve"]["tpch"]["speedup"] = 1.1
        failures = check_regression(current, _cli_report())
        assert any("serve.tpch" in f and "speedup" in f for f in failures)

    def test_serve_tpch_absolute_floor(self):
        # Even a baseline that itself regressed cannot excuse dropping
        # below the seed revision's 1.22x.
        current = _cli_report()
        current["serve"]["tpch"]["speedup"] = 1.15
        baseline = _cli_report()
        baseline["serve"]["tpch"]["speedup"] = 1.15
        failures = check_regression(current, baseline)
        assert any("serve.tpch" in f and "floor" in f for f in failures)

    def test_serve_tpch_report_drift_fails(self):
        current = _cli_report()
        current["serve"]["tpch"]["reports_identical"] = False
        failures = check_regression(current, _cli_report())
        assert any("serve.tpch: reports_identical" in f for f in failures)

    def test_serve_tpch_protocol_drift_fails(self):
        current = _cli_report()
        current["serve"]["tpch"]["run_rows_vs_next_identical"] = False
        failures = check_regression(current, _cli_report())
        assert any("run_rows_vs_next" in f for f in failures)

    def test_missing_serve_tpch_fails(self):
        current = _cli_report()
        del current["serve"]["tpch"]
        failures = check_regression(current, _cli_report())
        assert any("serve.tpch: section missing" in f for f in failures)


class TestClusterGate:
    def test_identical_reports_pass(self):
        base = _cli_report()
        assert check_regression(copy.deepcopy(base), base) == []

    def test_energy_per_query_regression_fails(self):
        current = _cli_report()
        current["cluster"]["cells"]["n2_f0.05"]["energy_per_query_j"] = 9e-4
        failures = check_regression(current, _cli_report())
        assert any("cluster.n2_f0.05" in f and "energy_per_query_j" in f
                   for f in failures)

    def test_p99_regression_fails(self):
        current = _cli_report()
        current["cluster"]["cells"]["n2_f0"]["p99_s"] = 0.1
        failures = check_regression(current, _cli_report())
        assert any("cluster.n2_f0" in f and "p99_s" in f for f in failures)

    def test_broken_conservation_fails(self):
        current = _cli_report()
        current["cluster"]["cells"]["n2_f0"]["conservation_ok"] = False
        failures = check_regression(current, _cli_report())
        assert any("conservation" in f for f in failures)

    def test_cross_mode_drift_fails(self):
        current = _cli_report()
        current["cluster"]["reports_identical"] = False
        failures = check_regression(current, _cli_report())
        assert any("cluster: reports_identical" in f for f in failures)

    def test_missing_cell_fails(self):
        current = _cli_report()
        del current["cluster"]["cells"]["n2_f0.05"]
        failures = check_regression(current, _cli_report())
        assert any("missing" in f and "n2_f0.05" in f for f in failures)

    def test_missing_section_fails(self):
        current = _cli_report()
        del current["cluster"]
        failures = check_regression(current, _cli_report())
        assert any("cluster: section missing" in f for f in failures)

    def test_improvement_passes(self):
        current = _cli_report()
        current["cluster"]["cells"]["n2_f0"]["energy_per_query_j"] = 1e-4
        assert check_regression(current, _cli_report()) == []


class TestServeMemoryGate:
    def test_identical_reports_pass(self):
        base = _cli_report()
        assert check_regression(copy.deepcopy(base), base) == []

    def test_retained_growth_fails(self):
        current = _cli_report()
        current["serve_memory"]["retained_b_per_request"] = 700.0
        failures = check_regression(current, _cli_report())
        assert any("serve_memory" in f and "retained_b_per_request" in f
                   for f in failures)

    def test_peak_growth_fails(self):
        current = _cli_report()
        current["serve_memory"]["peak_b_per_request"] = 400.0
        failures = check_regression(current, _cli_report())
        assert any("serve_memory" in f and "peak_b_per_request" in f
                   for f in failures)

    def test_small_wobble_and_improvement_pass(self):
        current = _cli_report()
        current["serve_memory"]["retained_b_per_request"] = 60.0
        current["serve_memory"]["peak_b_per_request"] = 120.0
        assert check_regression(current, _cli_report()) == []

    def test_missing_section_fails(self):
        current = _cli_report()
        del current["serve_memory"]
        failures = check_regression(current, _cli_report())
        assert any("serve_memory: section missing" in f for f in failures)


class TestRunShareGate:
    @staticmethod
    def _with_regimes(l1=9_944, straggler=56, generic=0):
        report = _cli_report()
        report["row_load_run"]["load_run_regimes"] = {
            "run_l1_calls": l1, "run_straggler_calls": straggler,
            "run_generic_calls": generic}
        return report

    def test_identical_reports_pass(self):
        base = self._with_regimes()
        assert check_regression(copy.deepcopy(base), base) == []

    def test_l1_share_collapse_fails_by_name(self):
        current = self._with_regimes(l1=56, generic=9_944)
        failures = check_regression(current, self._with_regimes())
        assert any("row_load_run" in f and "run_l1_calls" in f
                   and "share gate" in f for f in failures)

    def test_share_just_under_99pct_fails(self):
        current = self._with_regimes(l1=9_899, straggler=101)
        assert check_regression(current, self._with_regimes()) != []

    def test_optional_on_both_sides(self):
        assert check_regression(self._with_regimes(), _cli_report()) == []
        assert check_regression(_cli_report(), _cli_report()) == []

    def test_missing_regimes_fail_when_baseline_has_them(self):
        failures = check_regression(_cli_report(), self._with_regimes())
        assert any("load_run_regimes missing" in f for f in failures)


class TestBenchCli:
    def test_check_gates_against_pre_run_baseline(self, tmp_path,
                                                  monkeypatch):
        # --check with the default --out points both at the same file;
        # the gate must compare against the baseline as committed, not
        # the report this run just wrote over it (which always passes).
        import repro.bench

        path = tmp_path / "BENCH_simperf.json"
        path.write_text(json.dumps(_cli_report()))
        degraded = _cli_report(batched=1.0, speedup=1.0)
        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda quick=False: copy.deepcopy(degraded))
        rc = main(["bench", "--quick", "--out", str(path),
                   "--check", str(path)])
        assert rc == 1
        # The degraded report was still written for inspection.
        assert json.loads(path.read_text()) == degraded

    def test_missing_baseline_fails_before_running(self, tmp_path,
                                                   monkeypatch):
        import repro.bench

        def boom(quick=False):
            raise AssertionError("bench ran despite missing baseline")

        monkeypatch.setattr(repro.bench, "run_bench", boom)
        rc = main(["bench", "--quick",
                   "--out", str(tmp_path / "out.json"),
                   "--check", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_write_report_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "bench-smoke" / "BENCH_simperf.json"
        write_report({"version": 1}, str(path))
        assert json.loads(path.read_text()) == {"version": 1}
