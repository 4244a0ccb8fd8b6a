"""Hash sharding and mergeable-aggregate unit tests."""

import math

import pytest

from repro.db.exprs import Col
from repro.db.operators import AggSpec
from repro.db.planner import Aggregate, Scan
from repro.db.sharding import (
    merge_partials,
    partition_rows,
    shard_aggregate,
    shard_of,
    shard_scan,
    shard_table_name,
)
from repro.errors import PlanError
from repro.seeding import stable_hash

ROWS = [(i, f"name{i}", i * 10.0) for i in range(50)]


class TestPartitioning:
    def test_single_shard_partition_is_identity(self):
        parts = partition_rows(ROWS, 1)
        assert parts == [ROWS]

    def test_partition_covers_and_preserves_order(self):
        parts = partition_rows(ROWS, 4)
        assert sum(len(p) for p in parts) == len(ROWS)
        for part in parts:
            keys = [row[0] for row in part]
            # Input order preserved inside each shard.
            assert keys == sorted(keys)
        merged = sorted(row for part in parts for row in part)
        assert merged == ROWS

    def test_routing_is_stable_hash_of_key(self):
        parts = partition_rows(ROWS, 4)
        for shard, part in enumerate(parts):
            for row in part:
                assert shard_of(row[0], 4) == shard
                assert stable_hash(row[0]) % 4 == shard

    def test_shard_table_name(self):
        assert shard_table_name("lineitem", 2) == "lineitem@s2"


class TestShardPlans:
    def test_shard_scan_targets_shard_table(self):
        plan = shard_scan("orders", 1)
        assert isinstance(plan, Scan)
        assert plan.table == "orders@s1"

    def test_shard_aggregate_shape(self):
        aggs = (AggSpec("n", "count"),)
        plan = shard_aggregate("orders", 0, aggs)
        assert isinstance(plan, Aggregate)
        assert plan.aggs == aggs

    def test_unmergeable_kind_rejected(self):
        with pytest.raises(PlanError):
            shard_aggregate("orders", 0, (AggSpec("a", "avg", Col("c")),))


class TestMergePartials:
    AGGS = (AggSpec("n", "count"), AggSpec("s", "sum", Col("c")),
            AggSpec("lo", "min", Col("c")), AggSpec("hi", "max", Col("c")))

    def test_merge_folds_each_kind(self):
        partials = [(3, 30.0, 1.0, 9.0), (2, 12.0, -1.0, 5.0)]
        assert merge_partials(self.AGGS, partials) == (5, 42.0, -1.0, 9.0)

    def test_merge_skips_empty_shard_partials(self):
        partials = [(3, 30.0, 1.0, 9.0), (0, None, None, None)]
        assert merge_partials(self.AGGS, partials) == (3, 30.0, 1.0, 9.0)

    def test_merge_of_all_empty_partials(self):
        partials = [(0, None, None, None)]
        merged = merge_partials(self.AGGS, partials)
        assert merged == (0, None, None, None)

    def test_merge_requires_a_partial(self):
        with pytest.raises(PlanError):
            merge_partials(self.AGGS, [])

    def test_merge_sums_partials_left_to_right(self):
        # A compensated sum (3.12's builtin) gives 1.0 here; the plain
        # left fold every Python version computes gives 0.0.
        sums = [1e16, 1.0, -1e16]
        assert math.fsum(sums) == 1.0
        partials = [(1, s, s, s) for s in sums]
        merged = merge_partials(self.AGGS, partials)
        assert merged == (3, 0.0, -1e16, 1e16)

    def test_merge_matches_unsharded_aggregate(self):
        values = [row[2] for row in ROWS]
        parts = partition_rows(ROWS, 4)
        partials = [
            (len(p), sum(r[2] for r in p) if p else None,
             min((r[2] for r in p), default=None),
             max((r[2] for r in p), default=None))
            for p in parts
        ]
        merged = merge_partials(self.AGGS, partials)
        assert merged == (len(ROWS), sum(values), min(values), max(values))
