"""Generated serve and cluster runs under random fault plans.

Hypothesis draws small serve and cluster configs (closed and open loop,
the circuit breaker, retries, deadlines, partial results, hedging) and
a random :class:`~repro.faults.FaultPlan`, runs each config twice, and
checks the invariants every report promises:

* exact conservation: ``useful + wasted == active`` (per machine too on
  a cluster) and ``check_sum_j`` is ``total_active_j``;
* the terminal counts partition ``issued``, overall and per tenant;
* delivered rows come only from completed requests;
* the same seed gives byte-identical JSON.

``derandomize=True`` keeps the examples fixed from run to run, so a
failure here reproduces.  A shrunk counterexample becomes a named
regression test in this module.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, run_cluster
from repro.cluster.report import CLUSTER_STATES, DELIVERED_STATES
from repro.faults import FaultPlan
from repro.serve import ServeConfig, run_serve
from repro.serve.report import PLAIN_STATES
from repro.serve.request import TERMINAL_STATES
from repro.serve.workload import KV_OPS_PER_JOB, POINT_ROWS_PER_JOB

#: Units one completed request delivers, for the fixed-shape mixes.
ROWS_PER_JOB = {"points": POINT_ROWS_PER_JOB, "kv": KV_OPS_PER_JOB}

def _plans(sites, probabilities):
    """Fault plans arming any subset of ``sites`` (None: no plan)."""
    def build(ps):
        plan = FaultPlan(**dict(zip(sites, ps)))
        return plan if plan.any_enabled else None
    p = st.sampled_from(probabilities)
    return st.tuples(*(p for _ in sites)).map(build)


SERVE_PLANS = _plans(("request_error_p", "disk_error_p", "core_stall_p",
                      "page_corrupt_p"), (0.0, 0.0, 0.05, 0.2, 0.5))
#: A cluster request touches every shard, so lower rates still fire.
CLUSTER_PLANS = _plans(("node_crash_p", "node_slow_p", "net_drop_p",
                        "net_partition_p"), (0.0, 0.0, 0.0, 0.05, 0.2))


@st.composite
def serve_configs(draw):
    return ServeConfig(
        workload=draw(st.sampled_from(("points", "kv", "basic"))),
        mode=draw(st.sampled_from(("closed", "open"))),
        clients=draw(st.integers(1, 4)),
        queries=draw(st.integers(1, 14)),
        tenants=draw(st.integers(1, 3)),
        rate_qps=draw(st.sampled_from((50.0, 2000.0))),
        cores=draw(st.integers(1, 2)),
        mpl=draw(st.integers(1, 2)),
        quantum_rows=draw(st.sampled_from((4, 16, 64))),
        policy=draw(st.sampled_from(("fifo", "sjf", "locality"))),
        max_queue=draw(st.sampled_from((2, 64))),
        tenant_quota=draw(st.sampled_from((None, None, 1, 2))),
        queue_timeout_s=draw(st.sampled_from((None, None, 0.001))),
        faults=draw(SERVE_PLANS),
        retries=draw(st.integers(0, 2)),
        deadline_s=draw(st.sampled_from((None, None, 0.002, 0.05))),
        breaker_threshold=draw(st.sampled_from((None, 0.5))),
        breaker_window=draw(st.sampled_from((2, 4))),
        telemetry=draw(st.sampled_from(("full", "sampler", "off"))),
        seed=draw(st.integers(0, 50)),
        tier="10MB",
    )


@st.composite
def cluster_configs(draw):
    nodes = draw(st.integers(1, 3))
    return ClusterConfig(
        nodes=nodes,
        replication=draw(st.integers(1, nodes)),
        mode=draw(st.sampled_from(("closed", "open"))),
        clients=draw(st.integers(1, 3)),
        queries=draw(st.integers(1, 12)),
        tenants=draw(st.integers(1, 2)),
        faults=draw(CLUSTER_PLANS),
        subreq_timeout_s=draw(st.sampled_from((1.0, 0.05, 0.005))),
        failover_attempts=draw(st.integers(1, 3)),
        hedge_quantile=draw(st.sampled_from((None, 0.5))),
        hedge_min_samples=draw(st.integers(1, 4)),
        allow_partial=draw(st.booleans()),
        breaker_threshold=draw(st.sampled_from((None, 0.5))),
        breaker_window=draw(st.sampled_from((2, 4))),
        seed=draw(st.integers(0, 50)),
        tier="10MB",
    )


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def _assert_partition(counts: dict, states) -> None:
    assert set(counts) == {"issued", *states}
    assert sum(counts[state] for state in states) == counts["issued"]


def check_serve(config: ServeConfig) -> dict:
    report = run_serve(config)
    assert _canonical(run_serve(config)) == _canonical(report)

    states = TERMINAL_STATES if config.resilient else PLAIN_STATES
    counts = report["counts"]
    _assert_partition(counts, states)
    assert counts["issued"] == config.queries
    for state in states:
        assert counts[state] == sum(
            tenant["counts"][state] for tenant in report["tenants"].values())
    for tenant in report["tenants"].values():
        _assert_partition(tenant["counts"], states)
        completed = tenant["counts"]["completed"]
        assert tenant["latency_s"]["n"] == completed
        if completed == 0:
            assert tenant["rows"] == 0
        if config.workload in ROWS_PER_JOB:
            assert tenant["rows"] == completed * ROWS_PER_JOB[config.workload]
    assert report["latency_s"]["n"] == counts["completed"]

    energy = report["energy"]
    assert energy["check_sum_j"] == pytest.approx(
        energy["total_active_j"], rel=1e-12, abs=1e-15)
    if config.resilient:
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])
        assert energy["active_energy_j"] == pytest.approx(
            energy["total_active_j"], rel=1e-12, abs=1e-15)
    return report


def check_cluster(config: ClusterConfig) -> dict:
    report = run_cluster(config)
    assert _canonical(run_cluster(config)) == _canonical(report)

    counts = report["counts"]
    _assert_partition(counts, CLUSTER_STATES)
    assert counts["issued"] == config.queries
    delivered = sum(counts[state] for state in DELIVERED_STATES)
    assert report["latency_s"]["n"] == delivered
    if not config.allow_partial:
        assert counts["degraded_partial"] == 0
    assert report["resilience"]["shed_degraded"] == counts["shed_degraded"]

    energy = report["energy"]
    assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
            == energy["active_energy_j"])
    assert energy["active_energy_j"] == pytest.approx(
        energy["node_active_sum_j"], rel=1e-9, abs=1e-15)
    for section in [report["coordinator"], *report["nodes"].values()]:
        assert section["useful_j"] + section["wasted_j"] == section["active_j"]
    if config.faults is None and counts["completed"] == counts["issued"]:
        assert energy["wasted_by_reason_j"].keys() <= {
            "failover_reexec", "hedge_loser", "timeout"}
    return report


@settings(max_examples=40, deadline=None, derandomize=True)
@given(serve_configs())
def test_generated_serve_runs_keep_their_invariants(config):
    check_serve(config)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cluster_configs())
def test_generated_cluster_runs_keep_their_invariants(config):
    check_cluster(config)
