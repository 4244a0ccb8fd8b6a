"""Tests of the end-to-end benchmark itself, at --smoke sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layertrace import Boundary, LayerTrace
from workloads import SIZES

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^(?P<workload>[a-z_]+)\.(?P<metric>\S+) (?P<value>\S+) (?P<unit>\S+)$")


def run_smoke(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out),
         "--trace-dir", str(tmp_path / "trace"), *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
    )
    summaries = json.loads(out.read_text()) if out.exists() else {}
    return proc, summaries


@pytest.fixture(scope="module")
def traced_seed7(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("seed7")
    proc, summaries = run_smoke(tmp_path, "--trace", "1")
    return tmp_path, proc, summaries


def test_printed_metric_names_match_benchmark_json(traced_seed7):
    tmp_path, proc, _ = traced_seed7
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    printed: dict = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match and match["workload"] in SIZES:
            printed.setdefault(match["workload"], set()).add(match["metric"])
    expected = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert set(printed) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload, names in printed.items():
        assert names == expected, workload
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert (tmp_path / "trace" / "spans.jsonl").stat().st_size > 0
    layers = json.loads((tmp_path / "trace" / "layers.json").read_text())
    assert set(layers) == set(SIZES)


def test_self_time_on_synthetic_nested_spans():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    trace = LayerTrace(boundaries=(Boundary("t.outer", []), Boundary("t.inner", [])),
                       clock=clock)

    def work(seconds):
        clock.now += seconds

    def inner_fn():
        work(2.0)

    inner = trace.wrap(trace.boundaries[1], inner_fn)

    def outer_fn():
        work(1.0)
        inner()
        work(3.0)
        inner()

    outer = trace.wrap(trace.boundaries[0], outer_fn)
    work(0.5)
    trace.start_timed()
    work(0.25)  # unattributed: between wrapped calls
    outer()
    inner()
    phases = trace.finish()

    timed = phases["timed"]
    assert timed["layers"]["t.outer"] == {"calls": 1, "inclusive_s": 8.0, "self_s": 4.0,
                                          "units": 0}
    assert timed["layers"]["t.inner"] == {"calls": 3, "inclusive_s": 6.0, "self_s": 6.0,
                                          "units": 0}
    assert timed["wall_s"] == 10.25
    assert timed["unattributed_s"] == 0.25
    assert timed["self_total_s"] + timed["unattributed_s"] == timed["wall_s"]
    assert phases["setup"]["wall_s"] == 0.5 and phases["setup"]["layers"] == {}


def test_corrupted_digest_fails(tmp_path, monkeypatch, capsys):
    digests = json.loads(run.DIGESTS.read_text())
    digests["serve_points@smoke"] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", corrupted)
    out = tmp_path / "out.json"
    status = run.main(["--smoke", "--workload", "serve_points", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert status != 0
    assert "FAILED checks: digest" in stdout
    assert json.loads(out.read_text())["serve_points"]["failed_share"] > 0
    assert json.loads(stdout.splitlines()[-1])["correct"] is False


def test_other_seed_changes_digests_and_passes_invariants(traced_seed7, tmp_path):
    _, _, seed7 = traced_seed7
    proc, seed11 = run_smoke(tmp_path, "--seed", "11")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for workload, summary in seed11.items():
        assert "digest" not in summary["checks"]  # digests are recorded at seed 7 only
        assert all(summary["checks"].values()), (workload, summary["checks"])
        assert summary["digest"] != seed7[workload]["digest"], workload
