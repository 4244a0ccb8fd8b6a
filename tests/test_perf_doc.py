"""The headline figures in docs/performance.md match BENCH_simperf.json.

The prose quotes the committed bench baseline; this test parses each
quoted figure and compares it with the baseline at the precision the
prose uses, so regenerating the baseline without updating the doc (or
the other way round) fails by name.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def doc() -> str:
    return (ROOT / "docs" / "performance.md").read_text()


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCH_simperf.json").read_text())


def _find(pattern: str, text: str) -> re.Match:
    match = re.search(pattern, text)
    assert match is not None, f"figure not found in docs/performance.md: {pattern}"
    return match


def test_serve_engine_speedup(doc, bench):
    engine = bench["serve"]["engine"]
    quoted = _find(r"that is a \*\*(\d+)×\*\* end-to-end speedup", doc)
    assert int(quoted.group(1)) == round(engine["speedup"])


def test_serve_engine_table_row(doc, bench):
    engine = bench["serve"]["engine"]
    row = _find(r"\| serve requests/sec, points mix \(`serve\.engine`[^|]*"
                r"\| (\d+) req/s \| (\d+) req/s \| \*\*(\d+)×\*\* \|", doc)
    assert int(row.group(1)) == round(engine["reference"]["requests_per_s"])
    assert int(row.group(2)) == round(engine["batched"]["requests_per_s"])
    assert int(row.group(3)) == round(engine["speedup"])


def test_serve_scale_run(doc, bench):
    scale = bench["serve_scale"]
    quoted = _find(r"The full run completes in ([\d.]+) s \(~(\d+)\s+"
                   r"requests/s", doc)
    assert float(quoted.group(1)) == round(scale["wall_s"], 1)
    assert int(quoted.group(2)) == round(scale["requests_per_s"], -1)


def test_serve_tpch_speedup(doc, bench):
    quoted = _find(r"committed\s+baseline: ([\d.]+)×", doc)
    assert float(quoted.group(1)) == bench["serve"]["tpch"]["speedup"]


def _agrees(quoted: str, value: float) -> bool:
    """A quoted figure matches ``value`` at the decimals it shows."""
    return float(quoted) == round(value, len(quoted.partition(".")[2]))


_RANGE = r"([\d.]+)(?:–([\d.]+))?"

#: §4 scan-path table rows -> the bench entries each row quotes; a row
#: over several entries quotes each figure as a ``low–high`` range.
_SCAN_ROWS = {
    "warm L1-resident rescan":
        lambda b: [b["scan_path"]["fig07_tpch_scan"]],
    "fig08 tiers":
        lambda b: list(b["scan_path"]["fig08_datasize_scan"].values()),
    "cold DRAM-streaming scan":
        lambda b: [b["scan_path"]["cold_stream_scan"]],
    "`repro.db` row shape": lambda b: [b["row_load_run"]],
}


@pytest.mark.parametrize("label", _SCAN_ROWS)
def test_scan_table_row(doc, bench, label):
    entries = _SCAN_ROWS[label](bench)
    row = _find(rf"\| {re.escape(label)}[^|]*\| ~?{_RANGE} Mops/s \| "
                rf"~?{_RANGE} Mops/s[^|]*\| (?:\*\*)?~?{_RANGE}×", doc)
    for group, key in ((1, "reference_mops"), (3, "batched_mops"),
                       (5, "speedup")):
        low = row.group(group)
        high = row.group(group + 1) or low
        values = [entry[key] for entry in entries]
        assert _agrees(low, min(values)), key
        assert _agrees(high, max(values)), key


def test_serve_memory_row(doc, bench):
    memory = bench["serve_memory"]
    row = _find(r"\| retired at the terminal state \| ([\d.]+) \| "
                r"([\d.]+) \|", doc)
    assert _agrees(row.group(1), memory["retained_b_per_request"])
    assert _agrees(row.group(2), memory["peak_b_per_request"])
