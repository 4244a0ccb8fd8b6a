"""End-to-end cluster tests: determinism, conservation, equivalence,
failover, hedging, and partial-result degradation."""

import gc
import json

import pytest

from repro import Machine, intel_i7_4790
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ShardMap,
    cluster_jobs,
    load_sharded,
    run_cluster,
)
from repro.cluster.coordinator import ClusterRequest, SubAttempt, SubRequest
from repro.cluster.topology import CLUSTER_TABLES, ClusterNode
from repro.db import Database, engine_profile
from repro.faults import FaultPlan
from repro.micro.measurement import measure_background
from repro.obs import Tracer
from repro.seeding import derive_seed
from repro.workloads.tpch import TpchData
from repro.workloads.tpch import schema as S


def report_bytes(report: dict) -> str:
    """Canonical JSON with the execution mode dropped, so reference and
    batched reports can be compared byte for byte."""
    config = dict(report["config"])
    config.pop("exec_mode")
    return json.dumps({**report, "config": config}, sort_keys=True)


CHAOS_PLAN = FaultPlan(node_crash_p=0.05, node_slow_p=0.1,
                       net_drop_p=0.05, net_partition_p=0.02)


def chaos_config(**overrides):
    base = dict(nodes=3, replication=2, clients=3, queries=12,
                tier="10MB", seed=11, faults=CHAOS_PLAN)
    base.update(overrides)
    return ClusterConfig(**base)


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        a = run_cluster(chaos_config())
        b = run_cluster(chaos_config())
        assert report_bytes(a) == report_bytes(b)

    def test_reference_and_batched_reports_identical(self):
        batched = run_cluster(chaos_config(exec_mode="batched"))
        reference = run_cluster(chaos_config(exec_mode="reference"))
        assert report_bytes(batched) == report_bytes(reference)

    def test_seed_changes_the_run(self):
        a = run_cluster(chaos_config())
        b = run_cluster(chaos_config(seed=12))
        assert report_bytes(a) != report_bytes(b)


class TestEnergyConservation:
    def test_useful_plus_wasted_is_active_exactly(self):
        report = run_cluster(chaos_config())
        energy = report["energy"]
        # The constructive identity: active := useful + wasted.
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])
        # And it agrees with the independently measured machine totals.
        assert energy["active_energy_j"] == pytest.approx(
            energy["node_active_sum_j"], rel=1e-9)
        # Per-machine splits are exact too and fold to the cluster split.
        per_machine = ([report["coordinator"]]
                       + list(report["nodes"].values()))
        for section in per_machine:
            assert (section["useful_j"] + section["wasted_j"]
                    == section["active_j"])

    def test_wasted_reasons_are_itemised(self):
        report = run_cluster(chaos_config())
        reasons = report["energy"]["wasted_by_reason_j"]
        injected = report["resilience"]["faults_injected"]
        # This seed fires every cluster fault site (pinning that makes
        # the reason assertions meaningful).
        assert injected["node.crash"] >= 1
        assert injected["net.drop"] >= 1
        assert injected["net.partition"] >= 1
        assert injected["node.slow"] >= 1
        assert "node_crash" in reasons
        assert "net_drop" in reasons
        assert "net_partition" in reasons
        assert all(joules >= 0.0 for joules in reasons.values())

    def test_zero_fault_run_wastes_nothing(self):
        report = run_cluster(ClusterConfig(
            nodes=2, replication=2, clients=2, queries=6, tier="10MB",
            seed=3, subreq_timeout_s=10.0))
        assert report["energy"]["wasted_energy_j"] == 0.0
        assert report["energy"]["wasted_by_reason_j"] == {}
        assert report["counts"]["completed"] == report["counts"]["issued"]


class TestSingleNodeEquivalence:
    def test_rf1_zero_fault_cluster_matches_standalone_energy(self):
        """A 1-node, replication-1, zero-fault, free-NIC, zero-latency
        cluster must charge the node machine exactly what a standalone
        machine replaying the same plans charges — per request, to the
        last bit."""
        config = ClusterConfig(
            nodes=1, replication=1, clients=1, queries=6, tier="10MB",
            seed=13, net_payload_factor=0.0, net_latency_s=0.0,
            net_bytes_per_s=1e30, hedge_quantile=None,
            subreq_timeout_s=10.0)
        out: dict = {}
        report = run_cluster(config, out)
        assert report["counts"]["completed"] == config.queries
        assert report["subrequests"]["failovers"] == 0
        cluster_by_request = (
            out["traces"]["node0"].active_energy_by_meta("request"))
        cluster_by_request.pop(None, None)

        machine = Machine(
            intel_i7_4790(scale=config.scale),
            seed=derive_seed(config.seed, "cluster", "node0",
                             "machine-noise"),
            exec_mode=config.exec_mode,
        )
        db = Database(machine,
                      engine_profile(config.engine, config.setting),
                      name="node0")
        node = ClusterNode(name="node0", machine=machine, db=db)
        shard_map = ShardMap(1, 1, 1)
        data = TpchData(config.tier,
                        seed=derive_seed(config.seed, "cluster",
                                         "tpch-datagen"))
        load_sharded([node], shard_map, data)
        specs = cluster_jobs(shard_map)
        names = sorted(specs)
        tracer = Tracer(machine, background=measure_background(machine),
                        name="baseline")
        with tracer:
            for i in range(config.queries):
                spec = specs[names[i % len(names)]]
                with machine.tracer.span(f"q{i}", request=i):
                    list(db.execute_iter(spec.shard_plans[0], slot=0))
        standalone = tracer.finish().active_energy_by_meta("request")
        standalone.pop(None, None)

        assert sorted(cluster_by_request) == sorted(standalone)
        for request_id in standalone:
            assert (cluster_by_request[request_id]
                    == standalone[request_id])


class TestResultCorrectness:
    def test_scatter_gather_answers_match_unsharded_aggregates(
            self, monkeypatch):
        # Requests retire onto the ledger and are dropped, so each one is
        # captured, with its merged result, as it finalizes.
        finalized = []
        finalize = ClusterCoordinator._finalize

        def capture(coordinator, request, t):
            finalize(coordinator, request, t)
            finalized.append(request)

        monkeypatch.setattr(ClusterCoordinator, "_finalize", capture)
        config = ClusterConfig(
            nodes=3, replication=2, clients=3, queries=6, tier="10MB",
            seed=5, subreq_timeout_s=10.0)
        report = run_cluster(config)
        assert report["counts"]["completed"] == config.queries
        assert len(finalized) == config.queries
        data = TpchData(config.tier,
                        seed=derive_seed(config.seed, "cluster",
                                         "tpch-datagen"))
        tables = data.tables()
        expected = {}
        for table, column in CLUSTER_TABLES:
            index = S.SCHEMAS[table].index_of(column)
            rows = tables[table]
            expected[f"agg_{table}"] = (
                len(rows), sum(row[index] for row in rows))
        for request in finalized:
            n, total = request.result
            want_n, want_total = expected[request.job.name]
            assert n == want_n
            assert total == pytest.approx(want_total, rel=1e-12)


class TestRetention:
    def test_no_request_outlives_the_run(self):
        """Requests retire onto the ledger: once ``run_cluster`` returns,
        no request, sub-request or attempt is alive, though the run's
        coordinator still is.  The cycle collector is off for the run,
        so reference counting alone must free them: no request object
        sits in a reference cycle."""
        out: dict = {}
        gc.collect()
        gc.disable()
        try:
            report = run_cluster(chaos_config(), out)
            alive = [obj for obj in gc.get_objects()
                     if isinstance(obj, (ClusterRequest, SubRequest,
                                         SubAttempt))]
        finally:
            gc.enable()
        assert report["subrequests"]["failovers"] > 0
        assert len(alive) == 0
        assert len(out["coordinator"].ledger) == report["counts"]["issued"]


class TestFailoverAndDegradation:
    def test_crash_heavy_run_fails_over_and_accounts_waste(self):
        report = run_cluster(ClusterConfig(
            nodes=3, replication=2, clients=2, queries=10, tier="10MB",
            seed=17, faults=FaultPlan(node_crash_p=0.4),
            subreq_timeout_s=0.02, failover_attempts=3))
        counts = report["counts"]
        assert counts["issued"] == 10
        assert report["subrequests"]["failovers"] > 0
        assert report["resilience"]["faults_injected"]["node.crash"] > 0
        reasons = report["energy"]["wasted_by_reason_j"]
        assert reasons.get("node_crash", 0.0) > 0.0
        # Crashed partial work plus failover re-reads are wasted but
        # conserved.
        energy = report["energy"]
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])
        crashes = sum(node["crashes"]
                      for node in report["nodes"].values())
        assert crashes == (
            report["resilience"]["faults_injected"]["node.crash"])

    def test_allow_partial_degrades_instead_of_failing(self):
        base = dict(nodes=2, replication=1, clients=2, queries=8,
                    tier="10MB", seed=23,
                    faults=FaultPlan(net_drop_p=0.6),
                    subreq_timeout_s=0.01, failover_attempts=2)
        degraded = run_cluster(ClusterConfig(allow_partial=True, **base))
        strict = run_cluster(ClusterConfig(allow_partial=False, **base))
        assert degraded["counts"]["degraded_partial"] > 0
        assert strict["counts"]["degraded_partial"] == 0
        # Same fault draws, opposite policy: what degrades there fails
        # here.
        assert strict["counts"]["failed"] >= (
            degraded["counts"]["degraded_partial"])

    def test_hedging_fires_and_wins_are_counted(self):
        report = run_cluster(ClusterConfig(
            nodes=3, replication=3, clients=3, queries=24, tier="10MB",
            seed=29, faults=FaultPlan(node_slow_p=0.5,
                                      node_slow_factor=20.0),
            hedge_quantile=0.5, hedge_min_samples=4,
            subreq_timeout_s=10.0))
        subreqs = report["subrequests"]
        assert subreqs["hedges"] > 0
        assert report["resilience"]["faults_injected"]["node.slow"] > 0
        if subreqs["hedge_wins"] > 0:
            assert "hedge_loser" in report["energy"]["wasted_by_reason_j"]

    def test_breaker_sheds_when_cluster_burns(self):
        report = run_cluster(ClusterConfig(
            nodes=2, replication=1, clients=4, queries=24, tier="10MB",
            seed=31, faults=FaultPlan(net_drop_p=0.8),
            subreq_timeout_s=0.005, failover_attempts=2,
            breaker_threshold=0.5, breaker_window=4,
            breaker_cooloff_s=0.5, tenants=2))
        assert report["resilience"]["breaker_trips"] > 0
        assert report["counts"]["shed_degraded"] > 0
        assert report["resilience"]["shed_degraded"] == (
            report["counts"]["shed_degraded"])


class TestConfigValidation:
    def test_replication_bounded_by_nodes(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(nodes=2, replication=3).validate()

    def test_bad_hedge_quantile_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(hedge_quantile=1.5).validate()

    def test_fault_plan_validated_through_cluster_config(self):
        from repro.errors import ConfigError
        plan = FaultPlan()
        # The plan is frozen and validated at construction; corrupt it
        # behind the dataclass's back to prove ClusterConfig re-checks.
        object.__setattr__(plan, "net_drop_p", 2.0)
        with pytest.raises(ConfigError):
            ClusterConfig(faults=plan).validate()
