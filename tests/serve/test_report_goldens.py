"""Golden digests of whole serve and cluster reports.

Each case is a tiny seeded run.  Its full report, ``config`` section
included, is serialised with sorted keys and hashed; the digest must
match the recorded one exactly.  Refactors of the report assembly or of
the run setup must leave every byte of every report unchanged, so these
digests only change when a report is meant to change.

The digests are keyed by Python ``major.minor``: 3.12 switched float
``sum()`` to Neumaier summation, which moves the last bits of the
energy totals, so other versions skip rather than compare.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.faults import FaultPlan
from repro.serve import ServeConfig, run_serve

CASES = {
    # Plain TPC-H serve under the full span tracer.
    "serve_tpch": lambda: run_serve(ServeConfig(
        workload="tpch", clients=2, queries=4, tenants=2, cores=2,
        seed=3, tier="10MB")),
    "serve_kv": lambda: run_serve(ServeConfig(
        workload="kv", clients=3, queries=12, tenants=2, cores=2, seed=5)),
    # Retries, failures, deadline misses and breaker sheds, all under
    # the sampling aggregator.
    "serve_basic_chaos": lambda: run_serve(ServeConfig(
        workload="basic", clients=3, queries=16, tenants=2, cores=2,
        quantum_rows=8, seed=7, tier="10MB", telemetry="sampler",
        faults=FaultPlan(request_error_p=0.05, core_stall_p=0.05,
                         disk_error_p=0.05, page_corrupt_p=0.02),
        retries=2, deadline_s=0.02, breaker_threshold=0.5,
        breaker_window=4)),
    "serve_points_off": lambda: run_serve(ServeConfig(
        workload="points", clients=8, queries=60, tenants=4, cores=2,
        seed=9, telemetry="off")),
    # Crashes, drops, hedges, failovers and breaker sheds.
    "cluster_chaos": lambda: run_cluster(ClusterConfig(
        nodes=3, replication=2, clients=3, queries=24, tenants=2,
        tier="10MB", seed=11, hedge_quantile=0.5, hedge_min_samples=4,
        faults=FaultPlan(node_crash_p=0.05, net_drop_p=0.03),
        subreq_timeout_s=0.05, breaker_threshold=0.5, breaker_window=8)),
}

#: sha256 of ``json.dumps(report, sort_keys=True)`` per case, keyed by
#: the Python version the digests were recorded on.
GOLDENS = {
    "3.11": {
        "serve_tpch": "d2b703b69a69138b1dae2a5764dbd746"
                      "4839a5289a27d3d11a65455fdf9f07a0",
        "serve_kv": "9731c2b5bb194d01fb6917d451167b5e"
                    "c91d86a8250911f8e73a09eb99a8dd56",
        "serve_basic_chaos": "9599f877e1b694c3fc9cc121fa6f546f"
                             "100a9e5cca5d67b720b6a1789fae4894",
        "serve_points_off": "e9e291eb94912ac524eec19c38cb39da"
                            "78bba922c753a7c4ca73e600344e4a69",
        "cluster_chaos": "5a4ba6c030590d1d8eb29a30b9cdb872"
                         "2d566ec414f22f73c0bb346ee4cec869",
    },
}

PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


@pytest.mark.skipif(
    PYTHON not in GOLDENS,
    reason="digests recorded on 3.11; 3.12 changed float sum() to "
           "Neumaier summation",
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case):
    text = json.dumps(CASES[case](), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDENS[PYTHON][case]
