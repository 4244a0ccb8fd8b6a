"""An LSM-tree key-value store — the paper's §7 future work.

The paper closes with: *"In future, we will try to profile the energy
cost of other typical database systems, such as NoSQL systems to
identify their energy distribution feature on CPU."*  This module
builds that follow-up: a from-scratch log-structured merge store
(memtable + levelled SSTables + bloom filters) instrumented on the
simulated machine, plus YCSB-style workload mixes, so the §3
methodology can be pointed at a NoSQL engine unchanged
(see :func:`repro.analysis.experiments.ext_nosql`).

Model notes:

* the **memtable** is a B-tree in ordinary memory — hot while small;
* **SSTables** are immutable sorted runs; a point lookup is a bloom
  probe (hashing + one or two bit-array loads) followed, on a maybe,
  by a dependent binary search over the run.  A whole ``get`` — the
  memtable descent, then each run's bloom probe and search — is one
  chain of dependent loads, charged in one ``Machine.load_chain``;
* **compaction** merges runs sequentially (streaming reads + writes),
  the LSM's background bandwidth cost;
* per-operation engine overhead is far leaner than a SQL executor's
  (~a hundred instructions, not thousands) — KV stores have no
  interpreter, planner, or tuple slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.db.btree import BTree, probe_ops
from repro.errors import ConfigError
from repro.sim.address_space import LINE_SIZE
from repro.sim.machine import Machine

#: Bytes per stored entry (16B key/metadata + value payload).
ENTRY_KEY_BYTES = 16


def lookup_ops(probes: int, hashes: int) -> tuple:
    """The compute ops of a lookup chain with ``probes`` binary-search
    probes (:func:`~repro.db.btree.probe_ops`) and ``hashes`` bloom
    probes (hash the key with a mul and an add, test the bit with a
    compare)."""
    return (*probe_ops(probes), ("mul", hashes), ("add", hashes),
            ("cmp", hashes))


class BloomFilter:
    """A blocked bloom filter over one cache-line-aligned bit region."""

    def __init__(self, machine: Machine, n_keys: int, bits_per_key: int = 10,
                 n_hashes: int = 2, label: str = "bloom"):
        self.machine = machine
        size = max(LINE_SIZE, n_keys * bits_per_key // 8)
        self.region = machine.address_space.alloc(size, label=label)
        self.n_hashes = n_hashes
        self._bits: set[int] = set()
        self._n_slots = size * 8

    def _positions(self, key: int) -> list[int]:
        positions = []
        h = key
        for i in range(self.n_hashes):
            h = (h * 0x9E3779B1 + i * 0x85EBCA77) & 0xFFFFFFFF
            positions.append(h % self._n_slots)
        return positions

    def add(self, key: int) -> None:
        machine = self.machine
        for position in self._positions(key):
            machine.mul(1)
            machine.add(1)
            machine.store(self.region.base + (position // 8 // LINE_SIZE) * LINE_SIZE)
            self._bits.add(position)

    def probe(self, key: int, addrs: list) -> bool:
        """Charge-free membership probe: appends to ``addrs`` the line
        of each hash's bit, up to and including the first unset one, and
        returns whether every bit was set.  Each appended load is one
        hash of :func:`lookup_ops`."""
        base = self.region.base
        for position in self._positions(key):
            addrs.append(base + (position // 8 // LINE_SIZE) * LINE_SIZE)
            if position not in self._bits:
                return False
        return True


class SSTable:
    """An immutable sorted run of (key, value-width) entries."""

    def __init__(self, machine: Machine, entries: list, value_bytes: int,
                 label: str = "sstable"):
        if any(entries[i][0] >= entries[i + 1][0]
               for i in range(len(entries) - 1)):
            raise ConfigError("SSTable entries must be strictly key-sorted")
        self.machine = machine
        self.entries = entries
        self.entry_bytes = ENTRY_KEY_BYTES + value_bytes
        self.value_bytes = value_bytes
        self.region = machine.address_space.alloc(
            max(1, len(entries)) * self.entry_bytes, label=label
        )
        self.bloom = BloomFilter(machine, max(1, len(entries)),
                                 label=f"{label}/bloom")
        for key, _ in entries:
            self.bloom.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def min_key(self):
        return self.entries[0][0] if self.entries else None

    @property
    def max_key(self):
        return self.entries[-1][0] if self.entries else None

    def _entry_addr(self, index: int) -> int:
        return self.region.base + index * self.entry_bytes

    def probe(self, key: int, addrs: list) -> tuple:
        """Charge-free bloom-guarded binary search for ``key``.

        Appends to ``addrs`` the bloom probes, then, when the filter
        says maybe, the search's key probes.  Returns ``(index,
        hashes)``: the entry's index (-1 when absent) and how many of
        the appended loads are bloom probes."""
        if not self.entries:
            return -1, 0
        start = len(addrs)
        maybe = self.bloom.probe(key, addrs)
        hashes = len(addrs) - start
        if not maybe:
            return -1, hashes
        entries = self.entries
        lo, hi = 0, len(entries) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            addrs.append(self._entry_addr(mid))
            entry_key = entries[mid][0]
            if entry_key == key:
                return mid, hashes
            if entry_key < key:
                lo = mid + 1
            else:
                hi = mid - 1
        return -1, hashes

    def read_value(self, index: int):
        """Load entry ``index``'s value bytes and return the value."""
        self.machine.load_bytes(self._entry_addr(index) + ENTRY_KEY_BYTES,
                                self.value_bytes)
        return self.entries[index][1]

    def scan(self, lo: int, hi: int) -> Iterator[tuple]:
        """Sequential range read (prefetcher-friendly)."""
        machine = self.machine
        import bisect

        start = bisect.bisect_left([k for k, _ in self.entries], lo)
        for index in range(start, len(self.entries)):
            key, value = self.entries[index]
            machine.load(self._entry_addr(index))
            machine.cmp(1)
            if key > hi:
                return
            machine.load_bytes(self._entry_addr(index) + ENTRY_KEY_BYTES,
                               self.value_bytes)
            yield key, value

    def stream_all(self) -> Iterator[tuple]:
        """Full sequential read (compaction input)."""
        machine = self.machine
        for index, (key, value) in enumerate(self.entries):
            machine.load(self._entry_addr(index))
            yield key, value


@dataclass
class LsmStats:
    flushes: int = 0
    compactions: int = 0
    sstables_written: int = 0
    entries_compacted: int = 0


class LsmStore:
    """Memtable + levelled SSTables with size-tiered L0 compaction."""

    def __init__(self, machine: Machine, value_bytes: int = 64,
                 memtable_entries: int = 512, l0_fanout: int = 4,
                 name: str = "kv"):
        self.machine = machine
        self.value_bytes = value_bytes
        self.memtable_limit = memtable_entries
        self.l0_fanout = l0_fanout
        self.name = name
        self._memtable = self._new_memtable()
        #: newest-first list of L0 runs, then one big L1 run at the end.
        self.sstables: list[SSTable] = []
        self.stats = LsmStats()
        #: per-op hot engine state (command parsing, iterators, arena).
        self._state = machine.address_space.alloc(1024, f"{name}/state")

    def _new_memtable(self) -> BTree:
        return BTree(self.machine, f"{self.name}/memtable",
                     payload_bytes=self.value_bytes, node_bytes=512)

    def _op_overhead(self) -> None:
        machine = self.machine
        machine.hot_loads(self._state.base, 60)
        machine.hot_stores(self._state.base, 30)
        machine.other(20)
        machine.branch(6)

    # ------------------------------------------------------------ writes

    def put(self, key: int, value) -> None:
        self._op_overhead()
        # In-place update when the key is already in the memtable —
        # otherwise a flush would deduplicate in favour of the older
        # entry (a bug hypothesis found; see tests/workloads).
        if not self._memtable.update_payload(key, value):
            self._memtable.insert(key, value)
        if self._memtable.n_entries >= self.memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new L0 SSTable."""
        if self._memtable.n_entries == 0:
            return
        entries = self._dedup_newest(
            [(k, v) for k, v, _ in self._memtable.scan_all()]
        )
        table = SSTable(self.machine, entries, self.value_bytes,
                        label=f"{self.name}/L0.{self.stats.sstables_written}")
        # Writing the run: sequential stores of every entry.
        self.machine.store_bytes(table.region.base,
                                 len(entries) * table.entry_bytes)
        self.sstables.insert(0, table)
        self.stats.flushes += 1
        self.stats.sstables_written += 1
        self._memtable = self._new_memtable()
        if len(self.sstables) > self.l0_fanout:
            self.compact()

    @staticmethod
    def _dedup_newest(pairs: list) -> list:
        out = {}
        for key, value in pairs:
            out.setdefault(key, value)
        return sorted(out.items())

    def compact(self) -> None:
        """Merge every run into one (size-tiered full compaction)."""
        merged: dict = {}
        n_in = 0
        for table in self.sstables:  # newest first: first write wins
            for key, value in table.stream_all():
                merged.setdefault(key, value)
                n_in += 1
        entries = sorted(merged.items())
        table = SSTable(self.machine, entries, self.value_bytes,
                        label=f"{self.name}/L1.{self.stats.compactions}")
        self.machine.store_bytes(table.region.base,
                                 len(entries) * table.entry_bytes)
        self.sstables = [table]
        self.stats.compactions += 1
        self.stats.sstables_written += 1
        self.stats.entries_compacted += n_in

    # ------------------------------------------------------------- reads

    def get(self, key: int):
        """Point lookup: the memtable path, then each run newest first
        up to the first hit, charged as one probe chain; a run hit then
        reads its value bytes."""
        self._op_overhead()
        addrs: list = []
        leaf, pos, path = self._memtable.walk(key, addrs)
        probes = len(addrs) - len(path)
        if pos >= 0 and leaf.keys[pos] == key:
            self.machine.load_chain(addrs, lookup_ops(probes, 0))
            return leaf.values[pos]
        hashes = 0
        for table in self.sstables:  # newest first
            start = len(addrs)
            index, n = table.probe(key, addrs)
            hashes += n
            probes += len(addrs) - start - n
            if index >= 0:
                self.machine.load_chain(addrs, lookup_ops(probes, hashes))
                return table.read_value(index)
        self.machine.load_chain(addrs, lookup_ops(probes, hashes))
        return None

    def scan(self, lo: int, hi: int, limit: Optional[int] = None) -> list:
        """Merged range scan over the memtable and every run."""
        self._op_overhead()
        out: dict = {}
        for key, value, _ in self._memtable.range_scan(lo, hi):
            out.setdefault(key, value)
        for table in self.sstables:
            for key, value in table.scan(lo, hi):
                out.setdefault(key, value)
        items = sorted(out.items())
        if limit is not None:
            items = items[:limit]
        return items

    @property
    def n_entries_resident(self) -> int:
        return self._memtable.n_entries + sum(len(t) for t in self.sstables)


# ------------------------------------------------------------ YCSB mixes

YCSB_WORKLOADS = ("a", "c", "e")


def build_store(machine: Machine, n_keys: int = 2000,
                value_bytes: int = 64, seed: int = 99) -> LsmStore:
    """Load-phase: insert ``n_keys`` values in random order."""
    store = LsmStore(machine, value_bytes=value_bytes)
    rng = random.Random(seed)
    keys = list(range(n_keys))
    rng.shuffle(keys)
    for key in keys:
        store.put(key, f"v{key}")
    return store


def run_ycsb(machine: Machine, store: LsmStore, workload: str,
             ops: int = 2000, n_keys: int = 2000, seed: int = 7) -> dict:
    """One YCSB-style mix; returns op counts actually executed."""
    rng = random.Random(seed)
    counts = {"read": 0, "update": 0, "scan": 0, "insert": 0}

    def read():
        store.get(rng.randrange(n_keys))
        counts["read"] += 1

    def update():
        store.put(rng.randrange(n_keys), "u")
        counts["update"] += 1

    def scan():
        lo = rng.randrange(n_keys)
        store.scan(lo, lo + 100, limit=50)
        counts["scan"] += 1

    def insert():
        store.put(n_keys + rng.randrange(1 << 20), "i")
        counts["insert"] += 1

    if workload == "a":
        mix = [(0.5, read), (1.0, update)]
    elif workload == "c":
        mix = [(1.0, read)]
    elif workload == "e":
        mix = [(0.95, scan), (1.0, insert)]
        ops = max(1, ops // 20)  # scans touch ~100 entries each
    else:
        raise ConfigError(f"unknown YCSB workload {workload!r}; "
                          f"known: {YCSB_WORKLOADS}")
    for _ in range(ops):
        roll = rng.random()
        for threshold, op in mix:
            if roll <= threshold:
                op()
                break
    return counts
