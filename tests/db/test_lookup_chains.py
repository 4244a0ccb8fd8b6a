"""Generated checks of per-lookup probe chains against the per-node
calls they replaced.

Every B-tree lookup (``search``, ``update_payload``, ``insert``,
``delete``, ``range_scan``'s start, ``scan_all``'s leftmost-leaf walk)
and every ``LsmStore.get`` is charged as one ``Machine.load_chain``.
The oracle is the call sequence that charging replaced, replayed on the
reference executor: per node, a chain of binary-search probes (a
dependent load, then a compare and a branch each) followed by a
separate dependent child-pointer load; per LSM run, a bloom chain
(mul, add, dependent load, compare per hash), then a search chain,
then the value bytes.  Both must return the same answers and leave the
same PMU counters, LRU order and dirty bits, prefetcher trackers,
clock and energy, in both exec modes.
"""

from __future__ import annotations

import dataclasses
import operator
import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.config import tiny_arm, tiny_intel
from repro.db.btree import KEY_BYTES, NODE_HEADER_BYTES, BTree
from repro.sim.address_space import LINE_SIZE
from repro.sim.machine import Machine
from repro.sim.tcm import TcmConfig
from repro.workloads.kvstore import ENTRY_KEY_BYTES, LsmStore
from tests.helpers import exact_state

PRESETS = {"intel": tiny_intel, "arm": tiny_arm}


# ------------------------------------------------------------ the oracle

def _old_chain(machine, probes, pre=(), post=("cmp", "branch")) -> None:
    """The per-probe chain: ``pre`` ops, a dependent load, ``post`` ops,
    one instruction each, per address."""
    cpu = machine.cpu
    for addr in probes:
        for op in pre:
            getattr(cpu, op)(1)
        cpu.load(addr, True)
        for op in post:
            getattr(cpu, op)(1)


def _old_node_search(tree, node, key, strict) -> int:
    """One node's binary search, charged as its own chain."""
    below = operator.lt if strict else operator.le
    keys = node.keys
    base = node.region.base + NODE_HEADER_BYTES
    entry = tree.leaf_entry_bytes if node.leaf else tree.internal_entry_bytes
    probes = []
    lo, hi = 0, len(keys) - 1
    pos = -1
    while lo <= hi:
        mid = (lo + hi) // 2
        probes.append(base + mid * entry)
        if below(keys[mid], key):
            pos = mid
            lo = mid + 1
        else:
            hi = mid - 1
    _old_chain(tree.machine, probes)
    return pos


def _old_descend(tree, key, strict) -> tuple:
    """Per internal node: its search chain, then a separate dependent
    child-pointer load."""
    node = tree._root
    path = []
    while not node.leaf:
        pos = max(_old_node_search(tree, node, key, strict), 0)
        tree.machine.load(
            node.entry_addr(pos, tree.internal_entry_bytes) + KEY_BYTES,
            dependent=True)
        path.append((node, pos))
        node = node.values[pos]
    return node, path


def _old_search(tree, key):
    leaf, _ = _old_descend(tree, key, False)
    pos = _old_node_search(tree, leaf, key, False)
    if pos >= 0 and leaf.keys[pos] == key:
        return leaf.values[pos], leaf.entry_addr(pos, tree.leaf_entry_bytes)
    return None


def _old_update_payload(tree, key, payload) -> bool:
    leaf, _ = _old_descend(tree, key, False)
    pos = _old_node_search(tree, leaf, key, False)
    if pos < 0 or leaf.keys[pos] != key:
        return False
    leaf.values[pos] = payload
    tree.machine.store_bytes(
        leaf.entry_addr(pos, tree.leaf_entry_bytes) + KEY_BYTES,
        tree.payload_bytes)
    return True


def _old_insert(tree, key, payload) -> None:
    node, path = _old_descend(tree, key, False)
    pos = _old_node_search(tree, node, key, False) + 1
    node.keys.insert(pos, key)
    node.values.insert(pos, payload)
    tree.machine.store_bytes(node.entry_addr(pos, tree.leaf_entry_bytes),
                             tree.leaf_entry_bytes)
    tree.n_entries += 1
    tree._split_up(node, path)


def _old_delete(tree, key, payload=BTree._ANY) -> bool:
    leaf, _ = _old_descend(tree, key, True)
    machine = tree.machine
    while leaf is not None:
        pos = _old_node_search(tree, leaf, key, True) + 1
        while pos < len(leaf.keys):
            if leaf.keys[pos] != key:
                return False
            if payload is BTree._ANY or leaf.values[pos] == payload:
                break
            machine.load(leaf.entry_addr(pos, tree.leaf_entry_bytes))
            machine.cmp(1)
            pos += 1
        if pos < len(leaf.keys):
            del leaf.keys[pos]
            del leaf.values[pos]
            tail = len(leaf.keys) - pos
            if tail > 0:
                machine.load_bytes(leaf.entry_addr(pos, tree.leaf_entry_bytes),
                                   tail * tree.leaf_entry_bytes)
            machine.store_bytes(leaf.entry_addr(pos, tree.leaf_entry_bytes),
                                max(1, tail) * tree.leaf_entry_bytes)
            tree.n_entries -= 1
            return True
        machine.load(leaf.region.base + 8, dependent=True)
        leaf = leaf.next_leaf
    return False


def _old_range_scan(tree, lo, hi, on_leaf=None):
    machine = tree.machine
    node, _ = _old_descend(tree, lo, True)
    index = _old_node_search(tree, node, lo, True) + 1
    while node is not None:
        if on_leaf is not None:
            on_leaf(node)
        base = node.region.base + NODE_HEADER_BYTES
        while index < len(node.keys):
            key = node.keys[index]
            machine.load(base + index * tree.leaf_entry_bytes)
            machine.cmp(1)
            if key > hi:
                return
            yield key, node.values[index], base + index * tree.leaf_entry_bytes
            index += 1
        machine.load(node.region.base + 8, dependent=True)
        node = node.next_leaf
        index = 0


def _old_leftmost_leaf(tree):
    node = tree._root
    while not node.leaf:
        tree.machine.load(
            node.entry_addr(0, tree.internal_entry_bytes) + KEY_BYTES,
            dependent=True)
        node = node.values[0]
    return node


def _old_bloom(bloom, key) -> bool:
    base = bloom.region.base
    probes = []
    found = True
    for position in bloom._positions(key):
        probes.append(base + (position // 8 // LINE_SIZE) * LINE_SIZE)
        if position not in bloom._bits:
            found = False
            break
    _old_chain(bloom.machine, probes, ("mul", "add"), ("cmp",))
    return found


def _old_table_get(table, key):
    if not table.entries or not _old_bloom(table.bloom, key):
        return None
    entries = table.entries
    probes = []
    hit = False
    lo, hi = 0, len(entries) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        probes.append(table._entry_addr(mid))
        entry_key, value = entries[mid]
        if entry_key == key:
            hit = True
            break
        if entry_key < key:
            lo = mid + 1
        else:
            hi = mid - 1
    _old_chain(table.machine, probes)
    if not hit:
        return None
    table.machine.load_bytes(probes[-1] + ENTRY_KEY_BYTES, table.value_bytes)
    return value


def _old_get(store, key):
    store._op_overhead()
    hit = store._memtable.search(key)
    if hit is not None:
        return hit[0]
    for table in store.sstables:
        value = _old_table_get(table, key)
        if value is not None:
            return value
    return None


def _as_old_tree(tree: BTree) -> BTree:
    """Bind the per-node charging to ``tree`` (instance attributes
    shadow the methods, so ``scan_all`` walks the old leftmost path)."""
    for name, fn in (("search", _old_search),
                     ("update_payload", _old_update_payload),
                     ("insert", _old_insert), ("delete", _old_delete),
                     ("range_scan", _old_range_scan),
                     ("_leftmost_leaf", _old_leftmost_leaf)):
        setattr(tree, name, partial(fn, tree))
    return tree


def _as_old_store(store: LsmStore) -> LsmStore:
    """Per-run charging for ``get``, and per-node charging for the
    current memtable and every later one."""
    _as_old_tree(store._memtable)
    new_memtable = store._new_memtable
    store._new_memtable = lambda: _as_old_tree(new_memtable())
    store.get = partial(_old_get, store)
    return store


# ------------------------------------------------------------ programs

_OP_KINDS = ("search", "update", "insert", "delete", "delete_last", "range",
             "scan_all", "get", "put", "kv_scan", "flush", "compact")


@st.composite
def _setups(draw) -> dict:
    """The shape of one program; ``seed`` fills it in.  A tree is
    bulk-loaded from ``n_bulk`` keys drawn from ``key_span`` values (a
    small span makes long duplicate runs across leaves), grown by
    inserts, and may have its top levels in DTCM; an LSM store takes
    puts with flushes and maybe a compaction."""
    return {
        "preset": draw(st.sampled_from(sorted(PRESETS))),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "n_bulk": draw(st.integers(0, 400)),
        "key_span": draw(st.sampled_from((6, 40, 400))),
        "n_inserts": draw(st.integers(0, 120)),
        "dtcm_budget": draw(st.sampled_from((0, 256, 1024, 4096))),
        "memtable_entries": draw(st.integers(4, 24)),
        "n_puts": draw(st.integers(0, 300)),
        "compact": draw(st.booleans()),
        "n_ops": draw(st.integers(1, 60)),
    }


def _run(setup: dict, mode: str, old: bool) -> tuple:
    rng = random.Random(setup["seed"])
    span = setup["key_span"]
    config = dataclasses.replace(PRESETS[setup["preset"]](),
                                 tcm=TcmConfig(size=8 * 1024))
    machine = Machine(config, exec_mode=mode)
    tree = BTree(machine, "t", payload_bytes=8, node_bytes=256)
    store = LsmStore(machine, value_bytes=32,
                     memtable_entries=setup["memtable_entries"],
                     l0_fanout=3)
    if old:
        _as_old_tree(tree)
        _as_old_store(store)
    bulk = sorted(rng.randrange(span) for _ in range(setup["n_bulk"]))
    tree.bulk_load([(key, i) for i, key in enumerate(bulk)])
    payload = len(bulk)
    for _ in range(setup["n_inserts"]):
        tree.insert(rng.randrange(span), payload)
        payload += 1
    tree.relocate_top_levels(machine.tcm, setup["dtcm_budget"])
    for _ in range(setup["n_puts"]):
        key = rng.randrange(300)
        store.put(key, key)
    if setup["compact"]:
        store.compact()
    answers = []
    for _ in range(setup["n_ops"]):
        kind = rng.choice(_OP_KINDS)
        key = rng.randrange(span + 2)
        if kind == "search":
            answers.append(tree.search(key))
        elif kind == "update":
            answers.append(tree.update_payload(key, -key))
        elif kind == "insert":
            tree.insert(key, payload)
            payload += 1
        elif kind == "delete":
            answers.append(tree.delete(key))
        elif kind == "delete_last":
            # The last duplicate: the walk skips the others, across
            # leaves when they span several.
            dups = [p for k, p in tree.peek_entries() if k == key]
            answers.append(tree.delete(key, dups[-1] if dups else None))
        elif kind == "range":
            rows = tree.range_scan(key, key + rng.randrange(4))
            answers.append([row for _, row in zip(range(rng.randrange(30)),
                                                  rows)])
        elif kind == "scan_all":
            answers.append(sum(1 for _ in tree.scan_all()))
        elif kind == "get":
            answers.append(store.get(rng.randrange(320)))
        elif kind == "put":
            key = rng.randrange(320)
            store.put(key, -key)
        elif kind == "kv_scan":
            lo = rng.randrange(300)
            answers.append(store.scan(lo, lo + 20, limit=10))
        elif kind == "flush":
            store.flush()
        else:
            store.compact()
    machine.settle()
    return answers, exact_state(machine)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_setups())
def test_lookup_chains_match_per_node_calls(setup):
    expected = _run(setup, "reference", old=True)
    assert _run(setup, "reference", old=False) == expected
    assert _run(setup, "batched", old=False) == expected
