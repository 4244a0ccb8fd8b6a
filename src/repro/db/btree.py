"""B-tree index over simulated memory, with micro-op accounting.

Every table in SQLite is a B-tree; MySQL/InnoDB clusters rows in the
primary-key B-tree; PostgreSQL uses B-trees for secondary indexes.  The
paper's index-scan analysis (§3.2) hinges on the pointer chasing this
structure causes — descending the tree is a chain of *dependent* loads
with weak locality, in contrast to the sequential table scan.

Nodes live in simulated-memory regions.  The tree issues loads for the
keys it compares and the child/next pointers it follows; payload field
reads are the caller's job (it knows which columns it needs), using the
entry addresses this module hands out.  A lookup's path depends only on
key comparisons, so :meth:`BTree.walk` computes it charge-free and the
whole descent — every node's probes and child-pointer load — is charged
as one ``Machine.load_chain``.

The §4.2 co-design hook: :meth:`BTree.relocate_top_levels` moves the
root and upper layers into DTCM, so that the hot top-of-tree loads
bypass the L1D cache entirely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import DatabaseError
from repro.sim.address_space import Region
from repro.sim.machine import Machine
from repro.sim.tcm import TcmAllocator

logger = logging.getLogger(__name__)

#: Per-node header bytes (level, count, sibling pointer, parent hint).
NODE_HEADER_BYTES = 24
#: Bytes of one key and one child pointer.
KEY_BYTES = 8
PTR_BYTES = 8


def probe_ops(n: int) -> tuple:
    """The compute ops of ``n`` binary-search probes, as
    ``Machine.load_chain`` takes them: a compare and a branch each."""
    return (("cmp", n), ("branch", n))


@dataclass
class _Node:
    leaf: bool
    keys: list
    #: children for internal nodes; payloads for leaves.
    values: list
    region: Region
    next_leaf: Optional["_Node"] = None

    def entry_addr(self, index: int, entry_bytes: int) -> int:
        return self.region.base + NODE_HEADER_BYTES + index * entry_bytes


class BTree:
    """Order-configurable B-tree with bulk load, insert, search, scans.

    Parameters
    ----------
    machine:
        The machine whose memory/ops the tree uses.
    name:
        Label for allocations.
    payload_bytes:
        Width of each leaf payload.  8 for a (page, slot) row reference;
        a full row size for clustered organisations.
    node_bytes:
        Size of every node region (default 4 KiB).
    """

    def __init__(
        self,
        machine: Machine,
        name: str,
        payload_bytes: int = 8,
        node_bytes: int = 4096,
    ):
        self.machine = machine
        self.name = name
        self.node_bytes = node_bytes
        self.payload_bytes = payload_bytes
        self.leaf_entry_bytes = KEY_BYTES + payload_bytes
        self.internal_entry_bytes = KEY_BYTES + PTR_BYTES
        usable = node_bytes - NODE_HEADER_BYTES
        self.leaf_capacity = max(2, usable // self.leaf_entry_bytes)
        self.internal_capacity = max(3, usable // self.internal_entry_bytes)
        self._root = self._new_node(leaf=True)
        self.n_entries = 0
        self.height = 1

    # ------------------------------------------------------------ building

    def _new_node(self, leaf: bool) -> _Node:
        region = self.machine.address_space.alloc(
            self.node_bytes, label=f"btree/{self.name}"
        )
        return _Node(leaf=leaf, keys=[], values=[], region=region)

    def bulk_load(self, pairs: Sequence[tuple]) -> None:
        """Build the tree from sorted ``(key, payload)`` pairs.

        Bottom-up build at ~90% fill factor, the standard bulk path.
        Issues stores for every entry written (index build cost).
        """
        if self.n_entries:
            raise DatabaseError("bulk_load requires an empty tree")
        keys = [p[0] for p in pairs]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise DatabaseError("bulk_load input must be key-sorted")
        machine = self.machine
        with machine.tracer.span(f"btree.bulk_load:{self.name}",
                                 category="index", entries=len(pairs)):
            fill = max(2, self.leaf_capacity * 9 // 10)
            leaves: list[_Node] = []
            for start in range(0, len(pairs), fill):
                node = self._new_node(leaf=True)
                chunk = pairs[start:start + fill]
                node.keys = [k for k, _ in chunk]
                node.values = [v for _, v in chunk]
                machine.store_bytes(node.region.base + NODE_HEADER_BYTES,
                                    len(chunk) * self.leaf_entry_bytes)
                if leaves:
                    leaves[-1].next_leaf = node
                leaves.append(node)
            if not leaves:
                return
            level = leaves
            height = 1
            ifill = max(2, self.internal_capacity * 9 // 10)
            while len(level) > 1:
                parents: list[_Node] = []
                for start in range(0, len(level), ifill):
                    node = self._new_node(leaf=False)
                    chunk = level[start:start + ifill]
                    node.keys = [c.keys[0] for c in chunk]
                    node.values = list(chunk)
                    machine.store_bytes(node.region.base + NODE_HEADER_BYTES,
                                        len(chunk) * self.internal_entry_bytes)
                    parents.append(node)
                level = parents
                height += 1
            self._root = level[0]
            self.height = height
            self.n_entries = len(pairs)
            logger.debug("btree %s: bulk-loaded %d entries, height %d",
                         self.name, len(pairs), height)

    # ------------------------------------------------------------ lookups

    def walk(self, key, addrs: list, strict: bool = False) -> tuple:
        """Charge-free root-to-leaf path of one lookup of ``key``.

        Appends to ``addrs`` the lookup's dependent loads in order: each
        node's binary-search key probes (``cmp`` + ``branch`` each, see
        :func:`probe_ops`), then, for an internal node, its child-pointer
        load.  The path depends only on key comparisons, which charge
        nothing, so callers walk first and charge the whole list as one
        ``Machine.load_chain``.  Returns ``(leaf, pos, path)``: ``pos``
        is the rightmost leaf position with ``keys[pos] <= key``
        (``< key`` when ``strict``, which lands range starts on the
        leftmost subtree that can hold duplicates of ``key``), -1 if
        none; ``path`` lists ``(node, child index)`` root first, one
        entry per child-pointer load: every other address the walk
        appends is a probe.
        """
        node = self._root
        path = []
        while not node.leaf:
            pos = max(self._probes(node, key, strict, addrs), 0)
            addrs.append(
                node.entry_addr(pos, self.internal_entry_bytes) + KEY_BYTES
            )
            path.append((node, pos))
            node = node.values[pos]
        return node, self._probes(node, key, strict, addrs), path

    def _probes(self, node: _Node, key, strict: bool, addrs: list) -> int:
        """Charge-free binary search of one node for :meth:`walk`:
        appends each probed key's address to ``addrs`` and returns the
        rightmost position with ``keys[pos] <= key`` (``<`` when
        ``strict``), -1 if none."""
        keys = node.keys
        base = node.region.base + NODE_HEADER_BYTES
        entry_bytes = (
            self.leaf_entry_bytes if node.leaf else self.internal_entry_bytes
        )
        append = addrs.append
        lo, hi = 0, len(keys) - 1
        pos = -1
        while lo <= hi:
            mid = (lo + hi) // 2
            append(base + mid * entry_bytes)
            probe = keys[mid]
            if probe < key or (not strict and probe == key):
                pos = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return pos

    def _lookup(self, key, strict: bool = False) -> tuple:
        """:meth:`walk` charged as one probe chain."""
        addrs: list = []
        leaf, pos, path = self.walk(key, addrs, strict)
        self.machine.load_chain(addrs, probe_ops(len(addrs) - len(path)))
        return leaf, pos, path

    def search(self, key) -> Optional[tuple]:
        """Point lookup: returns ``(payload, entry_addr)`` or None."""
        leaf, pos, _ = self._lookup(key)
        if pos >= 0 and leaf.keys[pos] == key:
            return leaf.values[pos], leaf.entry_addr(pos, self.leaf_entry_bytes)
        return None

    def peek_entries(self) -> Iterator[tuple]:
        """Charge-free key-order walk yielding ``(key, payload)``.

        The statistics collector (:mod:`repro.db.stats`) reads rows the
        way a real ANALYZE reads its shadow sample: no simulated
        micro-ops are issued, so estimation never perturbs a measured
        window.  Everything that models execution must use
        :meth:`scan_all` / :meth:`range_scan` instead.
        """
        node: Optional[_Node] = self._root
        while not node.leaf:
            node = node.values[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def scan_all(self, on_leaf=None) -> Iterator[tuple]:
        """Full scan in key order: yields ``(key, payload, entry_addr)``.

        Issues the next-leaf pointer chase per leaf and one key load per
        entry; payload field loads are the caller's responsibility.
        ``on_leaf(node)`` fires when a leaf is entered — the clustered
        table storage uses it to charge pager I/O per leaf page."""
        machine = self.machine
        node: Optional[_Node] = self._leftmost_leaf()
        while node is not None:
            if on_leaf is not None:
                on_leaf(node)
            base = node.region.base + NODE_HEADER_BYTES
            for i, key in enumerate(node.keys):
                addr = base + i * self.leaf_entry_bytes
                machine.load(addr)
                yield key, node.values[i], addr
            machine.load(node.region.base + 8, dependent=True)  # next ptr
            node = node.next_leaf

    def range_scan(self, lo, hi, on_leaf=None) -> Iterator[tuple]:
        """Yield ``(key, payload, entry_addr)`` for lo <= key <= hi."""
        machine = self.machine
        node, pos, _ = self._lookup(lo, strict=True)
        # Leftmost entry >= lo inside the leaf.
        index = pos + 1
        while node is not None:
            if on_leaf is not None:
                on_leaf(node)
            base = node.region.base + NODE_HEADER_BYTES
            while index < len(node.keys):
                key = node.keys[index]
                machine.load(base + index * self.leaf_entry_bytes)
                machine.cmp(1)
                if key > hi:
                    return
                yield key, node.values[index], base + index * self.leaf_entry_bytes
                index += 1
            machine.load(node.region.base + 8, dependent=True)
            node = node.next_leaf
            index = 0

    def _leftmost_leaf(self) -> _Node:
        """The first leaf, its child-pointer loads charged as one chain."""
        node = self._root
        addrs = []
        while not node.leaf:
            addrs.append(node.entry_addr(0, self.internal_entry_bytes) + KEY_BYTES)
            node = node.values[0]
        self.machine.load_chain(addrs)
        return node

    # ------------------------------------------------------------ insert

    def insert(self, key, payload) -> None:
        """Insert one entry, splitting on the way back up as needed."""
        node, pos, path = self._lookup(key)
        pos += 1
        node.keys.insert(pos, key)
        node.values.insert(pos, payload)
        self.machine.store_bytes(
            node.entry_addr(pos, self.leaf_entry_bytes), self.leaf_entry_bytes
        )
        self.n_entries += 1
        self._split_up(node, path)

    def _split_up(self, node: _Node, path: list[tuple[_Node, int]]) -> None:
        machine = self.machine
        while True:
            capacity = self.leaf_capacity if node.leaf else self.internal_capacity
            if len(node.keys) <= capacity:
                return
            mid = len(node.keys) // 2
            sibling = self._new_node(leaf=node.leaf)
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            if node.leaf:
                sibling.next_leaf = node.next_leaf
                node.next_leaf = sibling
            entry = self.leaf_entry_bytes if node.leaf else self.internal_entry_bytes
            moved = len(sibling.keys) * entry
            machine.load_bytes(node.region.base + NODE_HEADER_BYTES, moved)
            machine.store_bytes(sibling.region.base + NODE_HEADER_BYTES, moved)
            separator = sibling.keys[0]
            if not path:
                new_root = self._new_node(leaf=False)
                new_root.keys = [node.keys[0], separator]
                new_root.values = [node, sibling]
                machine.store_bytes(
                    new_root.region.base + NODE_HEADER_BYTES,
                    2 * self.internal_entry_bytes,
                )
                self._root = new_root
                self.height += 1
                return
            parent, pos = path.pop()
            parent.keys.insert(pos + 1, separator)
            parent.values.insert(pos + 1, sibling)
            machine.store_bytes(
                parent.entry_addr(pos + 1, self.internal_entry_bytes),
                self.internal_entry_bytes,
            )
            node = parent

    def update_payload(self, key, payload) -> bool:
        """Overwrite the payload of an existing key; False if absent."""
        leaf, pos, _ = self._lookup(key)
        if pos < 0 or leaf.keys[pos] != key:
            return False
        leaf.values[pos] = payload
        self.machine.store_bytes(
            leaf.entry_addr(pos, self.leaf_entry_bytes) + KEY_BYTES,
            self.payload_bytes,
        )
        return True

    _ANY = object()

    def delete(self, key, payload=_ANY) -> bool:
        """Remove one entry with ``key``; returns whether one existed.

        With duplicate keys, ``payload`` selects which entry dies (the
        first duplicate otherwise).  Simple leaf deletion without
        rebalancing: leaves may become underfull (and empty leaves stay
        chained).  That trades a textbook invariant for simplicity —
        searches and scans remain correct, which is all the mini engine
        needs.
        """
        leaf, pos, _ = self._lookup(key, strict=True)
        machine = self.machine
        while True:
            pos += 1  # leftmost >= key
            while pos < len(leaf.keys):
                if leaf.keys[pos] != key:
                    return False  # past the duplicates: not found
                if payload is self._ANY or leaf.values[pos] == payload:
                    break
                machine.load(leaf.entry_addr(pos, self.leaf_entry_bytes))
                machine.cmp(1)
                pos += 1
            if pos < len(leaf.keys):
                del leaf.keys[pos]
                del leaf.values[pos]
                # Compact the slot array: shift the tail entries down.
                tail = len(leaf.keys) - pos
                if tail > 0:
                    machine.load_bytes(
                        leaf.entry_addr(pos, self.leaf_entry_bytes),
                        tail * self.leaf_entry_bytes,
                    )
                machine.store_bytes(
                    leaf.entry_addr(pos, self.leaf_entry_bytes),
                    max(1, tail) * self.leaf_entry_bytes,
                )
                self.n_entries -= 1
                return True
            # Every key in this leaf is < key: follow the sibling chain,
            # the next-pointer load and the next leaf's probes as one chain.
            addrs = [leaf.region.base + 8]
            leaf = leaf.next_leaf
            if leaf is None:
                machine.load_chain(addrs)
                return False
            pos = self._probes(leaf, key, True, addrs)
            machine.load_chain(addrs, probe_ops(len(addrs) - 1))

    # ------------------------------------------------------------ topology

    def levels(self) -> list[list[_Node]]:
        """Nodes per level, root first (used by the DTCM co-design)."""
        out = [[self._root]]
        while not out[-1][0].leaf:
            out.append([c for n in out[-1] for c in n.values])
        return out

    @property
    def n_nodes(self) -> int:
        return sum(len(level) for level in self.levels())

    def relocate_top_levels(self, tcm: TcmAllocator, budget_bytes: int) -> int:
        """Move the root and as many upper levels as fit into DTCM.

        Returns the number of nodes relocated.  Node *contents* stay
        put (keys/values are Python state); only the simulated address
        changes, which is exactly what placement in scratchpad means.
        """
        relocated = 0
        spent = 0
        for level in self.levels():
            level_bytes = len(level) * self.node_bytes
            if spent + level_bytes > budget_bytes:
                break
            for node in level:
                region = tcm.alloc(self.node_bytes, label=f"btree/{self.name}/tcm")
                node.region = region
                relocated += 1
            spent += level_bytes
        return relocated

    def keys_in_order(self) -> list:
        """All keys in order, without machine accounting (testing aid)."""
        out = []
        node: Optional[_Node] = self._root
        while not node.leaf:
            node = node.values[0]
        while node is not None:
            out.extend(node.keys)
            node = node.next_leaf
        return out
