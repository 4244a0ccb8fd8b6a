"""Tests of differential energy attribution (``repro.obs.diff``)."""

import copy
import json
import pathlib

import pytest

from repro.errors import DiffError
from repro.obs.diff import (
    bench_top_regressor,
    diff_snapshots,
    load_snapshot,
    render_diff,
    top_regressor,
)
from repro.obs.export import TRACE_SCHEMA_VERSION

ROOT = pathlib.Path(__file__).resolve().parents[2]

BENCH_DOC = {
    "schema_version": 2,
    "scan_path": {
        "fig07_tpch_scan": {"batched_mops": 10.0},
        "fig08_datasize_scan": {"100MB": {"batched_mops": 9.0}},
        "cold_stream_scan": {"batched_mops": 5.0},
    },
    "row_load_run": {"batched_mops": 3.0},
    "tpch": {"Q1": {"batched_s": 1.0}},
    "serve": {"batched": {"wall_s": 2.0}},
    "sections_wall_s": {"scan_path.fig07_tpch_scan": 6.0},
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


@pytest.fixture(scope="module")
def serve_pair(tmp_path_factory):
    from repro.serve import ServeConfig, run_serve

    out = tmp_path_factory.mktemp("diff")
    paths = []
    for name, queries, seed in (("a.json", 8, 2), ("b.json", 12, 3)):
        report = run_serve(ServeConfig(
            tier="10MB", queries=queries, clients=2, seed=seed, scale=64,
            telemetry="sampler",
        ))
        path = out / name
        path.write_text(json.dumps(report, sort_keys=True))
        paths.append(str(path))
    return paths


class TestLoad:
    def test_bench_kind(self, tmp_path):
        snap = load_snapshot(_write(tmp_path, "b.json", BENCH_DOC))
        assert snap.kind == "bench"
        assert snap.schema_version == 2
        assert snap.sections["scan_path.cold_stream_scan"]["mops"] == 5.0
        assert snap.sections["scan_path.fig07_tpch_scan"]["wall_s"] == 6.0

    def test_serve_kind(self, serve_pair):
        snap = load_snapshot(serve_pair[0])
        assert snap.kind == "serve"
        assert snap.total_energy_j > 0
        assert snap.operators
        # Count-weighted shares partition each group's energy exactly.
        assert sum(v["energy_j"] for v in snap.microops.values()) == \
            pytest.approx(
                sum(v["energy_j"] for v in snap.operators.values()),
                rel=1e-9)
        assert set(snap.cache_levels) <= {"L1D", "L2", "L3", "mem"}

    def test_unrecognised_doc_refused(self, tmp_path):
        with pytest.raises(DiffError):
            load_snapshot(_write(tmp_path, "x.json", {"hello": 1}))

    def test_timeline_refused_with_pointer(self, tmp_path):
        doc = json.dumps({"record": "timeline", "fields": []}) + "\n"
        with pytest.raises(DiffError, match="time series"):
            load_snapshot(_write(tmp_path, "t.jsonl", doc))

    def test_empty_file_refused(self, tmp_path):
        with pytest.raises(DiffError):
            load_snapshot(_write(tmp_path, "e.json", ""))


class TestDiff:
    def test_kind_mismatch_refused(self, tmp_path, serve_pair):
        bench = load_snapshot(_write(tmp_path, "b.json", BENCH_DOC))
        serve = load_snapshot(serve_pair[0])
        with pytest.raises(DiffError, match="cannot diff"):
            diff_snapshots(bench, serve)

    def test_schema_mismatch_refused(self, tmp_path):
        old = copy.deepcopy(BENCH_DOC)
        del old["schema_version"]
        a = load_snapshot(_write(tmp_path, "old.json", old))
        b = load_snapshot(_write(tmp_path, "new.json", BENCH_DOC))
        with pytest.raises(DiffError, match="schema version mismatch"):
            diff_snapshots(a, b)

    def test_serve_diff_ranked_by_energy(self, serve_pair):
        diff = diff_snapshots(load_snapshot(serve_pair[0]),
                              load_snapshot(serve_pair[1]))
        operators = diff["dims"]["operator"]
        assert operators
        magnitudes = [abs(row["delta_energy_j"] or 0.0)
                      for row in operators]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert diff["totals"]["delta_energy_j"] is not None
        text = render_diff(diff)
        assert "Δ energy by operator" in text
        assert "Δ energy by cache level" in text

    def test_self_diff_is_zero(self, serve_pair):
        diff = diff_snapshots(load_snapshot(serve_pair[0]),
                              load_snapshot(serve_pair[0]))
        assert diff["totals"]["delta_energy_j"] == 0.0
        for row in diff["dims"]["operator"]:
            assert row["delta_energy_j"] == 0.0


class TestTopRegressor:
    def test_bench_names_worst_section(self):
        worse = copy.deepcopy(BENCH_DOC)
        worse["scan_path"]["cold_stream_scan"]["batched_mops"] = 2.5
        worse["row_load_run"]["batched_mops"] = 2.7
        worst = bench_top_regressor(worse, BENCH_DOC)
        assert worst["name"] == "scan_path.cold_stream_scan"
        assert worst["mops_ratio"] == pytest.approx(0.5)

    def test_no_regression_names_nothing(self):
        assert bench_top_regressor(BENCH_DOC, BENCH_DOC) is None

    def test_serve_names_worst_operator(self, serve_pair):
        diff = diff_snapshots(load_snapshot(serve_pair[0]),
                              load_snapshot(serve_pair[1]))
        worst = top_regressor(diff)
        assert worst is None or worst["delta_energy_j"] > 0


class TestArtifactLoaders:
    """The trace-JSONL, bench and optimizer loaders, each fed a real
    artifact and checked against the file it came from."""

    def test_trace_jsonl_operators_match_spans(self, tmp_path, sqlite_db):
        from repro.obs import Tracer, write_jsonl

        tracer = Tracer(sqlite_db.machine, name="query")
        with tracer:
            sqlite_db.sql("SELECT r_name, COUNT(*) FROM region "
                          "GROUP BY r_name ORDER BY r_name")
        trace = tracer.trace
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(trace, path)
        snap = load_snapshot(path)
        assert snap.kind == "trace"
        assert snap.schema_version == TRACE_SCHEMA_VERSION
        assert snap.total_energy_j == trace.total_active_j
        assert snap.total_time_s == trace.root.inclusive_time_s
        expected: dict = {}
        for span in trace.spans():
            name = span.meta.get("op") or span.meta.get("job") or span.name
            expected[name] = (expected.get(name, 0.0)
                              + trace.active_energy_j(span))
        assert {name: op["energy_j"]
                for name, op in snap.operators.items()} == expected
        assert any(span.category == "operator" for span in trace.spans())
        # Count-weighted shares partition the operators' energy.
        for dim in (snap.microops, snap.cache_levels):
            assert sum(v["energy_j"] for v in dim.values()) == \
                pytest.approx(trace.total_active_j, rel=1e-9)
        text = render_diff(diff_snapshots(snap, load_snapshot(path)))
        assert "Δ energy by micro-op class" in text

    def test_committed_bench_sections(self, tmp_path):
        path = ROOT / "BENCH_simperf.json"
        doc = json.loads(path.read_text())
        snap = load_snapshot(str(path))
        assert snap.kind == "bench"
        assert snap.schema_version == doc["schema_version"]
        sections = snap.sections
        walls = doc["sections_wall_s"]
        fig07 = "scan_path.fig07_tpch_scan"
        assert sections[fig07] == {
            "mops": doc["scan_path"]["fig07_tpch_scan"]["batched_mops"],
            "wall_s": walls[fig07],
        }
        for tier, entry in doc["scan_path"]["fig08_datasize_scan"].items():
            assert (sections[f"scan_path.fig08.{tier}"]["mops"]
                    == entry["batched_mops"])
        assert (sections["row_load_run"]["mops"]
                == doc["row_load_run"]["batched_mops"])
        for query, entry in doc["tpch"].items():
            assert sections[f"tpch.{query}"] == {
                "mops": None, "wall_s": entry["batched_s"]}
        for key, entry in doc["serve"].items():
            assert (sections[f"serve.{key}"]["wall_s"]
                    == entry["batched"]["wall_s"])
        assert sections["serve_scale"]["wall_s"] == doc["serve_scale"]["wall_s"]
        assert sections["cluster"] == {"mops": None,
                                       "wall_s": walls["cluster"]}

        worse = copy.deepcopy(doc)
        worse["scan_path"]["fig07_tpch_scan"]["batched_mops"] /= 2
        worse["tpch"]["Q1"]["batched_s"] += 1.0
        diff = diff_snapshots(snap, load_snapshot(
            _write(tmp_path, "worse.json", worse)))
        rows = {row["name"]: row for row in diff["dims"]["section"]}
        assert rows["tpch.Q1"]["delta_wall_s"] == pytest.approx(1.0)
        text = render_diff(diff, top=len(rows))
        assert "-- bench sections (worst ratio first) --" in text
        assert f"  {fig07:<28} throughput B/A 0.500x" in text
        assert f"  {'tpch.Q1':<28} throughput B/A  n/a " in text
        assert "Δwall +1 s" in text
        assert text.endswith(
            f"top regressor: {fig07} (0.500x baseline throughput)")

    def test_optimizer_artifact_joules(self, tmp_path):
        from repro.workloads.tpch.optimize import run_optimizer_bench

        doc = run_optimizer_bench(quick=True, engines=("sqlite", "mysql"),
                                  queries=(6,))
        snap = load_snapshot(_write(tmp_path, "opt.json", doc))
        assert snap.kind == "optimizer"
        assert snap.schema_version == doc["schema_version"]
        joules = [doc["engines"][engine]["Q6"]["optimized_j"]
                  for engine in ("sqlite", "mysql")]
        assert snap.operators == {
            f"{engine}.Q6": {"energy_j": j, "time_s": None}
            for engine, j in zip(("sqlite", "mysql"), joules)}
        assert snap.total_energy_j == 0.0 + joules[0] + joules[1]

        # An entry without a measurement is skipped, not counted as 0 J.
        partial = copy.deepcopy(doc)
        del partial["engines"]["mysql"]["Q6"]["optimized_j"]
        other = load_snapshot(_write(tmp_path, "partial.json", partial))
        assert list(other.operators) == ["sqlite.Q6"]
        diff = diff_snapshots(other, snap)
        # mysql.Q6, measured in B only, stays out of the totals.
        assert diff["totals"]["a_energy_j"] == 0 + joules[0]
        assert diff["totals"]["b_energy_j"] == 0 + joules[0]
        assert diff["totals"]["delta_energy_j"] == 0.0
        assert (diff["totals"]["only_a"], diff["totals"]["only_b"]) == (0, 1)
        assert "mysql.Q6" in render_diff(diff)
