"""Unit tests of the serve query mixes."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.serve.workload import (
    MIXES,
    THRASH_TABLES,
    TPCH_SERVE_QUERIES,
    build_mix,
)
from repro.workloads.tpch.queries import QUERIES


class TestBuildMix:
    def test_unknown_mix(self, postgres_db):
        with pytest.raises(ConfigError):
            build_mix("olap", postgres_db, 2, seed=1)

    def test_basic_jobs_have_costs_and_tables(self, postgres_db):
        mix = build_mix("basic", postgres_db, 2, seed=1)
        for job in mix.jobs_for_client(0):
            assert job.cost > 0
            assert job.tables

    def test_clients_phase_shifted(self, postgres_db):
        mix = build_mix("basic", postgres_db, 3, seed=1)
        first = [mix.jobs_for_client(i)[0].name for i in range(3)]
        assert len(set(first)) == 3

    def test_tpch_subset_is_plan_backed(self):
        for number in TPCH_SERVE_QUERIES:
            assert QUERIES[number].plan is not None

    def test_tpch_mix_runs_a_job(self, postgres_db):
        mix = build_mix("tpch", postgres_db, 1, seed=1)
        job = mix.jobs_for_client(0)[0]
        rows = list(job.make(0))
        assert rows

    def test_thrash_clients_rotate_tables(self, postgres_db):
        mix = build_mix("thrash", postgres_db, 6, seed=1)
        tables = [mix.jobs_for_client(i)[0].tables for i in range(6)]
        assert tables[0] != tables[1] != tables[2]
        assert tables[0] == tables[3]  # cycle repeats
        names = {t for (name, _col) in THRASH_TABLES for t in [name]}
        assert {t for tup in tables for t in tup} <= names

    def test_kv_mix_is_seeded_and_deterministic(self, machine):
        from repro.db import Database, postgres_like

        db_a = Database(machine, postgres_like(), name="a")
        mix_a = build_mix("kv", db_a, 2, seed=9)
        job = mix_a.jobs_for_client(0)[0]
        assert job.tables == ("kv",)
        ops = list(job.make(0))
        assert len(ops) == 64

    def test_mix_names(self):
        assert set(MIXES) == {"basic", "tpch", "thrash", "kv", "points"}


def _warm_seconds(machine, job) -> float:
    """Simulated seconds of one warm execution (after a warm-up run)."""
    for _ in job.make(0):
        pass
    machine.settle()
    start = machine.time_s
    for _ in job.make(0):
        pass
    machine.settle()
    return machine.time_s - start


class TestSjfCost:
    def test_basic_costs_order_like_measured_seconds(self, tpch_small):
        # SJF's key is the energy model's predicted joules; its order
        # must match measured simulated time on all but a few pairs.
        from repro import Machine, tiny_intel
        from repro.db import Database, postgres_like
        from repro.workloads.tpch import load_into

        db = Database(Machine(tiny_intel()), postgres_like(), name="sjf")
        load_into(db, tpch_small)
        jobs = build_mix("basic", db, 1, seed=1).jobs_for_client(0)
        seconds = [_warm_seconds(db.machine, job) for job in jobs]
        pairs = list(itertools.combinations(range(len(jobs)), 2))
        discordant = sum(
            1 for a, b in pairs
            if (jobs[a].cost - jobs[b].cost) * (seconds[a] - seconds[b]) < 0
        )
        assert len(pairs) == 21
        assert discordant <= 2
