"""Tests of the simulated-time timeline recorder (``repro.obs.timeline``).

The timeline's field list is a *contract*: the future online controller
reads these windows, so the golden-schema test pins the exact field
tuple and the JSONL header shape.  Renaming or dropping a field must be
a deliberate, versioned act.
"""

import csv
import io
import json

import pytest

from repro.obs.timeline import (
    TIMELINE_CSV_FIELDS,
    TIMELINE_FIELDS,
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    timeline_to_csv,
    timeline_to_jsonl,
    write_timeline,
)

#: The golden copy of the window schema.  If this test fails, you have
#: changed the controller contract: bump TIMELINE_SCHEMA_VERSION and
#: update docs/observability.md alongside this tuple.
GOLDEN_FIELDS = (
    "window", "t_start_s", "t_end_s", "duration_s",
    "power_w", "core_w", "dram_w", "busy_s", "idle_s",
    "l1d_miss_rate", "l2_miss_rate", "l3_miss_rate",
    "pf_l2_lines", "pf_l3_lines", "pf_hit_rate",
    "pstate_switches", "residency_s",
    "queue_depth_last", "queue_depth_max",
    "admitted", "completed", "failed", "deadline_exceeded",
    "rejected", "shed",
    "active_j", "useful_j", "wasted_j", "wasted_by_reason_j",
)


@pytest.fixture
def rows(quiet_machine):
    recorder = TimelineRecorder(quiet_machine, window_s=0.001)
    region = quiet_machine.address_space.alloc(1 << 14, "d")
    with recorder:
        for i in range(region.n_lines):
            quiet_machine.load(region.base + i * 64)
        quiet_machine.idle(0.0035)
        for i in range(region.n_lines):
            quiet_machine.load(region.base + i * 64)
    return recorder.finish()


class TestSchema:
    def test_golden_field_tuple(self):
        assert TIMELINE_FIELDS == GOLDEN_FIELDS
        assert TIMELINE_SCHEMA_VERSION == 1

    def test_every_row_has_every_field(self, rows):
        for row in rows:
            assert tuple(row.keys()) == TIMELINE_FIELDS

    def test_csv_fields_are_flat_subset(self):
        flat = set(TIMELINE_FIELDS) - {"residency_s", "wasted_by_reason_j"}
        assert set(TIMELINE_CSV_FIELDS) == flat | {"pstate_mode"}


class TestWindows:
    def test_contiguous_and_indexed(self, rows):
        assert rows, "run must span at least one window"
        for i, row in enumerate(rows):
            assert row["window"] == i
        for prev, cur in zip(rows, rows[1:]):
            assert cur["t_start_s"] == pytest.approx(prev["t_end_s"])

    def test_time_prorated_exactly(self, rows, quiet_machine):
        total = sum(r["busy_s"] + r["idle_s"] for r in rows)
        span = rows[-1]["t_end_s"] - rows[0]["t_start_s"]
        assert total == pytest.approx(span, rel=1e-9)
        assert sum(r["idle_s"] for r in rows) == pytest.approx(
            0.0035, rel=1e-9)

    def test_idle_window_has_zero_miss_rates(self, rows):
        # The idle(0.0035) stretch covers whole windows with no memory
        # accesses: their miss rates must be None, not 0/0 noise.
        all_idle = [r for r in rows
                    if r["idle_s"] > 0 and r["busy_s"] == 0.0]
        assert all_idle
        for row in all_idle:
            assert row["l1d_miss_rate"] is None
            assert row["power_w"] >= 0.0

    def test_energy_sums_to_machine(self, rows, quiet_machine):
        total_j = sum(r["power_w"] * r["duration_s"] for r in rows)
        assert total_j == pytest.approx(
            quiet_machine.rapl.energy_package(), rel=1e-6)


class TestWriters:
    def test_jsonl_header_contract(self, rows):
        lines = timeline_to_jsonl(rows, window_s=0.001).splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "timeline"
        assert header["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert header["n_windows"] == len(rows) == len(lines) - 1
        assert tuple(header["fields"]) == TIMELINE_FIELDS
        for line in lines[1:]:
            record = json.loads(line)
            assert record["record"] == "window"

    def test_csv_round_trips(self, rows):
        text = timeline_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert list(parsed[0].keys()) == list(TIMELINE_CSV_FIELDS)
        for raw, row in zip(parsed, rows):
            assert int(raw["window"]) == row["window"]
            assert float(raw["active_j"]) == pytest.approx(
                row["active_j"], abs=1e-15)

    def test_write_timeline_picks_format(self, rows, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        csv_path = tmp_path / "t.csv"
        write_timeline(rows, str(jsonl), window_s=0.001)
        write_timeline(rows, str(csv_path), window_s=0.001)
        assert jsonl.read_text().startswith('{"fields"') or \
            json.loads(jsonl.read_text().splitlines()[0])["record"] == \
            "timeline"
        assert csv_path.read_text().splitlines()[0].startswith("window,")


class TestServeIntegration:
    def test_serve_emits_timeline(self, tmp_path):
        from repro.serve import ServeConfig, run_serve

        out = tmp_path / "timeline.jsonl"
        report = run_serve(ServeConfig(
            tier="10MB", queries=8, clients=2, seed=2, scale=64,
            telemetry="sampler", timeline_out=str(out),
            timeline_window_s=0.02,
        ))
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "timeline"
        rows = [json.loads(line) for line in lines[1:]]
        assert rows
        # Window energy is package-domain (the controller contract);
        # the report's Active total may also count DRAM, so the window
        # sum is a lower bound that tracks the total closely.
        active = sum(r["active_j"] for r in rows)
        total = report["energy"]["total_active_j"]
        assert 0 < active <= total + 1e-12
        assert active == pytest.approx(total, rel=0.15)
        assert sum(r["completed"] for r in rows) == \
            report["counts"]["completed"]

    def test_waste_lane_same_under_full_and_sampler(self, tmp_path):
        """Both telemetry modes feed the timeline's waste lane from their
        wasted-tagged spans, so a chaos run writes the same file under
        either one."""
        from repro.cli import CHAOS_SCENARIOS
        from repro.faults import FaultPlan
        from repro.serve import ServeConfig, run_serve

        texts = {}
        for telemetry in ("full", "sampler"):
            out = tmp_path / f"{telemetry}.jsonl"
            run_serve(ServeConfig(
                workload="basic", tier="10MB", clients=2, queries=24,
                faults=FaultPlan(**CHAOS_SCENARIOS["mixed"]), retries=2,
                seed=7, telemetry=telemetry, timeline_out=str(out),
            ))
            texts[telemetry] = out.read_text()
        assert texts["full"] == texts["sampler"]
        rows = [json.loads(line) for line in texts["full"].splitlines()[1:]]
        reasons = set()
        for row in rows:
            by_reason = row["wasted_by_reason_j"]
            reasons.update(by_reason)
            assert sum(by_reason.values()) == pytest.approx(
                row["wasted_j"], rel=1e-12, abs=1e-18)
        assert {"stall", "page_repair"} <= reasons
        assert sum(row["wasted_j"] for row in rows) > 0
