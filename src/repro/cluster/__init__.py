"""``repro.cluster`` — fault-tolerant sharded scatter-gather serving.

N independent simulated machines, each running its own database over a
hash-sharded slice of TPC-H, behind a seeded network model (per-link
latency, per-byte NIC energy) and a coordinator that scatter-gathers
mergeable aggregates with replica failover, hedged requests, and
partial-result degradation.  Every joule on every machine is
attributed — the useful/wasted Active-energy split of
:mod:`repro.serve` extends cluster-wide, with hedge losers, crashed
nodes' lost partial work, and failover re-reads itemised by cause.

:func:`run_cluster` is the one-call entry point the CLI, the chaos
scenarios, and the benchmarks use.
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.report import (
    CLUSTER_SCHEMA_VERSION,
    build_cluster_report,
    render_cluster_summary,
)
from repro.cluster.topology import (
    CLUSTER_TABLES,
    ClusterNode,
    ShardMap,
    build_nodes,
    cluster_jobs,
    cluster_mix,
    load_sharded,
)
from repro.db.sharding import (
    merge_partials,
    partition_rows,
    shard_aggregate,
    shard_of,
    shard_scan,
    shard_table_name,
)
from repro.micro.measurement import measure_background
from repro.obs import Tracer
from repro.seeding import derive_seed, require_seed
from repro.serve.request import DEGRADED_PARTIAL
from repro.sim.network import NetworkModel
from repro.workloads.tpch import TpchData

__all__ = [
    "CLUSTER_SCHEMA_VERSION",
    "CLUSTER_TABLES",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterNode",
    "DEGRADED_PARTIAL",
    "NetworkModel",
    "ShardMap",
    "build_cluster_report",
    "build_nodes",
    "cluster_jobs",
    "cluster_mix",
    "load_sharded",
    "merge_partials",
    "partition_rows",
    "render_cluster_summary",
    "run_cluster",
    "shard_aggregate",
    "shard_of",
    "shard_scan",
    "shard_table_name",
]


def run_cluster(config: ClusterConfig, out: dict | None = None) -> dict:
    """Run one complete cluster simulation and return its JSON report.

    Builds coordinator + N node machines, shards and loads the data,
    measures background power per machine, runs the scatter-gather
    event loop under one span tracer per machine, and assembles the
    report.  Fully deterministic: the same config (seed included)
    produces the same report, byte for byte once serialised with
    sorted keys — across ``exec_mode`` reference/batched too.

    ``out``, if given, receives the run's internals (``coordinator``,
    ``traces``, ``network``, ``shard_map``) for white-box tests; the
    report itself never depends on it.
    """
    config.validate()
    seed = require_seed(config.seed, "cluster")
    coord, nodes = build_nodes(config, seed)
    shard_map = ShardMap(
        n_shards=config.nodes,
        replication=config.replication,
        n_nodes=config.nodes,
    )
    data = TpchData(config.tier,
                    seed=derive_seed(seed, "cluster", "tpch-datagen"))
    load_sharded(nodes, shard_map, data)
    injector = config.make_injector(seed, coord.metrics)
    machines = {"coord": coord}
    for node in nodes:
        machines[node.name] = node.machine
    network = NetworkModel(
        machines, seed,
        base_latency_s=config.net_latency_s,
        bytes_per_s=config.net_bytes_per_s,
        payload_factor=config.net_payload_factor,
        injector=injector,
    )
    specs = cluster_jobs(shard_map)
    driver = config.make_driver(
        cluster_mix(specs, shard_map, config.clients), seed)
    backgrounds = {name: measure_background(machines[name])
                   for name in sorted(machines)}
    if injector is not None:
        # Arm the single-machine fault sites on every node only now,
        # after the load and the background measurement: faults hit the
        # serving window, not setup, and disk/page sites fire
        # cluster-wide through the same plan that drives the new
        # node/net sites.
        for node in nodes:
            node.machine.fault_injector = injector
            node.machine.disk.injector = injector
    breaker = config.make_breaker(coord.metrics)
    coordinator = ClusterCoordinator(
        config, coord, nodes, network, shard_map, specs, driver, seed,
        injector=injector, breaker=breaker,
    )
    tracers = {name: Tracer(machines[name],
                            background=backgrounds[name],
                            name=f"cluster/{name}")
               for name in sorted(machines)}
    with ExitStack() as stack:
        for name in sorted(tracers):
            stack.enter_context(tracers[name])
        coordinator.run()
    traces = {name: tracers[name].finish() for name in sorted(tracers)}
    if out is not None:
        out.update(coordinator=coordinator, traces=traces,
                   network=network, shard_map=shard_map)
    return build_cluster_report(config, coordinator, traces, network,
                                injector=injector)
