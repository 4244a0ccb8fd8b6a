"""Cluster topology: nodes, shard placement, and the sharded loader.

A cluster is N data nodes (each a full :class:`~repro.sim.machine.
Machine` + :class:`~repro.db.engine.Database`) plus one coordinator
machine that runs no database — it routes, merges, and pays the
scatter-gather overhead in its own joules.

Shard ``s`` of every table lives on nodes ``(s + r) % N`` for
``r < replication`` (chained placement), so replication factor 1
degenerates to one owner per shard and factor N to full replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import Machine
from repro.db import Database, engine_profile
from repro.db.operators import AggSpec
from repro.db.exprs import Col
from repro.db.sharding import partition_rows, shard_aggregate, shard_table_name
from repro.serve.request import JobTemplate
from repro.serve.workload import QueryMix
from repro.workloads.tpch import TpchData
from repro.workloads.tpch import schema as S

#: Tables the cluster shards and queries (scan-heavy fact tables; the
#: per-client job cycle below rotates over them).
CLUSTER_TABLES = (
    ("lineitem", "l_extendedprice"),
    ("orders", "o_totalprice"),
    ("partsupp", "ps_supplycost"),
)


@dataclass
class ClusterNode:
    """One data node: its machine, database, and runtime state."""

    name: str
    machine: Machine
    db: Database
    #: Sim time until which the node is rebooting after a crash.
    crashed_until: float = 0.0
    subreqs_served: int = 0
    crashes: int = 0
    slowdowns: int = 0


class ShardMap:
    """Shard count, replica placement, and per-shard row counts."""

    def __init__(self, n_shards: int, replication: int, n_nodes: int):
        self.n_shards = n_shards
        self.replication = replication
        self.n_nodes = n_nodes
        #: rows[table][shard] — filled by the loader (the coordinator's
        #: partial-work model reads them; cluster jobs carry their
        #: table's total as ``cost``).
        self.rows: dict[str, list[int]] = {}

    def replicas(self, shard: int) -> tuple[int, ...]:
        """Node indices holding ``shard``, in preference order."""
        return tuple((shard + r) % self.n_nodes
                     for r in range(self.replication))


def build_nodes(config, seed: int) -> tuple[Machine, list[ClusterNode]]:
    """Coordinator machine plus N data nodes, deterministically seeded.

    Node ``i``'s machine noise stream is derived from the path
    ``("cluster", "node{i}", "machine-noise")`` so adding or removing
    nodes never perturbs another node's machine.
    """
    coord = config.make_machine(seed, "cluster", "coord")
    nodes = []
    for i in range(config.nodes):
        name = f"node{i}"
        machine = config.make_machine(seed, "cluster", name)
        db = Database(machine, engine_profile(config.engine, config.setting),
                      name=name)
        nodes.append(ClusterNode(name=name, machine=machine, db=db))
    return coord, nodes


def load_sharded(nodes: list[ClusterNode], shard_map: ShardMap,
                 data: TpchData) -> None:
    """Hash-partition the cluster tables and load replicas.

    Each shard becomes its own catalog table ``{table}@s{shard}`` on
    every replica node (clustered on the original primary key); the
    engine stays shard-oblivious.  Node-major load order (node, table,
    shard) keeps each machine's charge sequence independent of the
    other nodes.
    """
    tables = data.tables()
    partitioned = {}
    for table, _column in CLUSTER_TABLES:
        parts = partition_rows(tables[table], shard_map.n_shards)
        partitioned[table] = parts
        shard_map.rows[table] = [len(rows) for rows in parts]
    for index, node in enumerate(nodes):
        for table, _column in CLUSTER_TABLES:
            for shard in range(shard_map.n_shards):
                if index not in shard_map.replicas(shard):
                    continue
                node.db.create_table(
                    shard_table_name(table, shard),
                    S.SCHEMAS[table],
                    partitioned[table][shard],
                    primary_key=S.PRIMARY_KEYS[table],
                )


@dataclass(frozen=True)
class ClusterJobSpec:
    """Scatter-gather shape of one cluster job: the sharded table, the
    mergeable aggregates, and the per-shard sub-plans (one per shard,
    built once so plan identity is stable across the run)."""

    table: str
    aggs: tuple[AggSpec, ...]
    shard_plans: tuple = field(default=())


def cluster_jobs(shard_map: ShardMap) -> dict[str, ClusterJobSpec]:
    """The cluster job catalog: one count+sum full-table aggregate per
    sharded table (exactly mergeable across shards)."""
    specs = {}
    for table, column in CLUSTER_TABLES:
        aggs = (AggSpec("n", "count"),
                AggSpec("total", "sum", Col(column)))
        plans = tuple(shard_aggregate(table, shard, aggs)
                      for shard in range(shard_map.n_shards))
        specs[f"agg_{table}"] = ClusterJobSpec(
            table=table, aggs=aggs, shard_plans=plans)
    return specs


def cluster_mix(specs: dict[str, ClusterJobSpec], shard_map: ShardMap,
                n_clients: int) -> QueryMix:
    """Per-client job cycles over the cluster job catalog.

    The driver layer treats jobs as opaque payloads, so the cluster
    reuses :class:`~repro.serve.request.JobTemplate` with ``make=None``
    (the coordinator scatter-gathers by job *name*; nothing ever calls
    ``make``).  Cycles are phase-shifted per client, same as the serve
    mixes.
    """
    jobs = tuple(
        JobTemplate(
            name=name,
            tables=(spec.table,),
            cost=float(sum(shard_map.rows.get(spec.table, ()))),
            make=None,
        )
        for name, spec in specs.items()
    )
    cycles = [jobs[i % len(jobs):] + jobs[: i % len(jobs)]
              for i in range(max(1, n_clients))]
    return QueryMix("cluster", cycles)
