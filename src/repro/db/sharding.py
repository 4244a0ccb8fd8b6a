"""Hash sharding and shard-aware scan planning.

The cluster layer (:mod:`repro.cluster`) splits each table into
``n_shards`` hash partitions and stores every partition as its *own*
catalog table named ``{table}@s{shard}`` on each replica node.  That
naming trick keeps the whole database engine shard-oblivious: a
per-shard scan is a plain :class:`~repro.db.planner.Scan` of the shard
table, planned, cached, and charged exactly like any other table.

Rows are routed by :func:`repro.seeding.stable_hash` of their first
column (every TPC-H table here leads with a scalar primary key), so

* the same rows land on the same shards in every process — reports
  stay byte-identical across runs (builtin ``hash`` is randomised per
  process and would not) — and
* partitioning preserves the original row order inside each shard, so
  a 1-shard partition is the identity and a replication-factor-1,
  zero-fault cluster reproduces single-node energies exactly.

Scatter-gather decomposition is restricted to algebraically mergeable
scalar aggregates (count / sum / min / max): every shard computes the
same aggregate over its partition and :func:`merge_partials` folds the
partial rows into the global answer.
"""

from __future__ import annotations

from typing import Sequence

from repro.db.operators import AggSpec
from repro.db.planner import Aggregate, Logical, Scan
from repro.errors import PlanError
from repro.fold import left_sum
from repro.seeding import stable_hash

#: Aggregate kinds whose per-shard partials merge exactly.
MERGEABLE_KINDS = ("count", "sum", "min", "max")


def shard_table_name(table: str, shard: int) -> str:
    """Catalog name of one hash partition (``lineitem@s2``)."""
    return f"{table}@s{shard}"


def shard_of(key, n_shards: int) -> int:
    """Shard index of a row keyed by ``key`` (stable across processes)."""
    return stable_hash(key) % n_shards


def partition_rows(rows: Sequence[tuple], n_shards: int,
                   key_index: int = 0) -> list[list[tuple]]:
    """Split ``rows`` into ``n_shards`` hash partitions by one column.

    Row order within each partition follows the input order, so the
    1-shard partition is the identity.
    """
    parts: list[list[tuple]] = [[] for _ in range(n_shards)]
    for row in rows:
        parts[shard_of(row[key_index], n_shards)].append(row)
    return parts


def shard_scan(table: str, shard: int) -> Scan:
    """Sequential scan of one shard of ``table``."""
    return Scan(shard_table_name(table, shard), access="seq")


def shard_aggregate(table: str, shard: int,
                    aggs: Sequence[AggSpec]) -> Logical:
    """The per-shard sub-plan of a scatter-gather scalar aggregate.

    Every agg must be mergeable (count/sum/min/max, no grouping): the
    shard computes the same aggregate shape over its partition and the
    coordinator folds the partial rows with :func:`merge_partials`.
    """
    for spec in aggs:
        if spec.kind not in MERGEABLE_KINDS:
            raise PlanError(
                f"aggregate kind {spec.kind!r} does not decompose over "
                f"shards; mergeable kinds: {MERGEABLE_KINDS}"
            )
    return Aggregate(shard_scan(table, shard), (), tuple(aggs))


def merge_partials(aggs: Sequence[AggSpec],
                   partial_rows: Sequence[tuple]) -> tuple:
    """Fold per-shard partial rows into the global aggregate row.

    ``partial_rows[i][j]`` is shard ``i``'s value of aggregate ``j``.
    count and sum partials add; min/max partials take the extremum
    (None partials — an empty shard — are skipped).
    """
    if not partial_rows:
        raise PlanError("merge_partials needs at least one partial row")
    merged = []
    for j, spec in enumerate(aggs):
        values = [row[j] for row in partial_rows if row[j] is not None]
        if not values:
            merged.append(0 if spec.kind == "count" else None)
        elif spec.kind in ("count", "sum"):
            merged.append(left_sum(values))
        elif spec.kind == "min":
            merged.append(min(values))
        elif spec.kind == "max":
            merged.append(max(values))
        else:
            raise PlanError(f"unmergeable aggregate kind {spec.kind!r}")
    return tuple(merged)
