"""Tests of the LSM key-value store (section-7 extension)."""

import pytest

from repro.errors import ConfigError
from repro.workloads.kvstore import (
    BloomFilter,
    LsmStore,
    SSTable,
    build_store,
    run_ycsb,
)


class TestBloomFilter:
    def test_no_false_negatives(self, machine):
        bloom = BloomFilter(machine, 100)
        for key in range(0, 200, 2):
            bloom.add(key)
        assert all(bloom.probe(k, []) for k in range(0, 200, 2))

    def test_mostly_rejects_absent(self, machine):
        bloom = BloomFilter(machine, 1000)
        for key in range(1000):
            bloom.add(key)
        false_positives = sum(
            1 for k in range(10_000, 11_000) if bloom.probe(k, [])
        )
        assert false_positives < 100  # <10% at 10 bits/key

    def test_probe_charges_nothing(self, machine):
        """The probe only lists its loads; the lookup charges them."""
        bloom = BloomFilter(machine, 10)
        machine.reset_measurements()
        addrs = []
        bloom.probe(5, addrs)
        assert len(addrs) >= 1
        assert machine.pmu.counters.instructions == 0


class TestSSTable:
    def test_probe(self, machine):
        table = SSTable(machine, [(k, f"v{k}") for k in range(0, 100, 2)], 64)
        index, hashes = table.probe(42, [])
        assert hashes == 2
        assert table.read_value(index) == "v42"
        assert table.probe(43, [])[0] == -1

    def test_scan(self, machine):
        table = SSTable(machine, [(k, k) for k in range(50)], 64)
        assert [k for k, _ in table.scan(10, 14)] == [10, 11, 12, 13, 14]

    def test_unsorted_rejected(self, machine):
        with pytest.raises(ConfigError):
            SSTable(machine, [(2, "a"), (1, "b")], 64)

    def test_min_max(self, machine):
        table = SSTable(machine, [(5, "a"), (9, "b")], 64)
        assert table.min_key == 5 and table.max_key == 9


class TestLsmStore:
    def test_put_get_roundtrip(self, machine):
        store = LsmStore(machine, memtable_entries=64)
        for key in range(300):
            store.put(key, key * 2)
        for key in (0, 150, 299):
            assert store.get(key) == key * 2
        assert store.get(999) is None

    def test_flush_happens(self, machine):
        store = LsmStore(machine, memtable_entries=32)
        for key in range(100):
            store.put(key, key)
        assert store.stats.flushes >= 2

    def test_compaction_bounds_run_count(self, machine):
        store = LsmStore(machine, memtable_entries=16, l0_fanout=3)
        for key in range(400):
            store.put(key, key)
        assert len(store.sstables) <= 4
        assert store.stats.compactions >= 1

    def test_newest_value_wins(self, machine):
        store = LsmStore(machine, memtable_entries=16)
        for key in range(64):
            store.put(key, "old")
        for key in range(64):
            store.put(key, "new")
        store.flush()
        store.compact()
        assert store.get(10) == "new"

    def test_scan_merges_layers(self, machine):
        store = LsmStore(machine, memtable_entries=32)
        for key in range(0, 100, 2):
            store.put(key, "s")      # mostly flushed
        for key in range(1, 100, 2):
            store.put(key, "m")      # mostly memtable
        got = store.scan(10, 20)
        assert [k for k, _ in got] == list(range(10, 21))

    def test_scan_limit(self, machine):
        store = LsmStore(machine, memtable_entries=512)
        for key in range(100):
            store.put(key, key)
        assert len(store.scan(0, 99, limit=7)) == 7

    def test_resident_count(self, machine):
        store = build_store(machine, n_keys=200)
        assert store.n_entries_resident >= 200


class TestYcsb:
    def test_mixes(self, machine):
        store = build_store(machine, n_keys=300)
        counts = run_ycsb(machine, store, "a", ops=100, n_keys=300)
        assert counts["read"] + counts["update"] == 100
        assert counts["read"] > 20 and counts["update"] > 20

    def test_read_only(self, machine):
        store = build_store(machine, n_keys=300)
        counts = run_ycsb(machine, store, "c", ops=50, n_keys=300)
        assert counts == {"read": 50, "update": 0, "scan": 0, "insert": 0}

    def test_unknown_workload(self, machine):
        store = build_store(machine, n_keys=200)
        with pytest.raises(ConfigError):
            run_ycsb(machine, store, "z")

    def test_point_reads_stall_heavier_than_scans(self, machine):
        store = build_store(machine, n_keys=1000)
        machine.reset_measurements()
        run_ycsb(machine, store, "c", ops=200, n_keys=1000)
        c_read = machine.pmu.counters
        stall_read = c_read.stall_cycles / c_read.cycles
        machine.reset_measurements()
        run_ycsb(machine, store, "e", ops=200, n_keys=1000)
        c_scan = machine.pmu.counters
        stall_scan = c_scan.stall_cycles / c_scan.cycles
        assert stall_read > stall_scan


class TestLsmProperties:
    """The LSM store behaves exactly like a dict, under any op sequence."""

    def test_random_ops_match_dict(self):


        from hypothesis import given, settings, strategies as st
        from repro import Machine, tiny_intel

        @settings(max_examples=25, deadline=None)
        @given(st.lists(
            st.tuples(st.sampled_from(["put", "get", "scan"]),
                      st.integers(min_value=0, max_value=120),
                      st.integers(min_value=0, max_value=1000)),
            min_size=1, max_size=120,
        ))
        def run(ops):
            machine = Machine(tiny_intel())
            store = LsmStore(machine, memtable_entries=16, l0_fanout=2)
            reference = {}
            for kind, key, value in ops:
                if kind == "put":
                    store.put(key, value)
                    reference[key] = value
                elif kind == "get":
                    assert store.get(key) == reference.get(key)
                else:
                    hi = key + 17
                    got = store.scan(key, hi)
                    expected = sorted(
                        (k, v) for k, v in reference.items() if key <= k <= hi
                    )
                    assert got == expected
            # Full-range scan equals the reference dict.
            everything = store.scan(-1, 10_000)
            assert everything == sorted(reference.items())

        run()
