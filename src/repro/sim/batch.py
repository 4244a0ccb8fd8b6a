"""Batched micro-op execution engine.

Every simulated micro-op normally pays three Python call frames
(``Cpu.load`` → ``MemoryHierarchy.load`` → ``CacheLevel.lookup``), so
scan-heavy workloads — exactly the access patterns the paper's
micro-analysis decomposes — are bounded by interpreter overhead rather
than by the model.  This module provides two interchangeable executors:

* :class:`ReferenceExecutor` — the per-op path.  Every access takes the
  full ``Cpu``/``MemoryHierarchy`` call chain; this *is* the model.
* :class:`BatchExecutor` — executes whole runs of line accesses in one
  call, with the hierarchy walk, fill/evict cascade, and prefetcher
  update inlined into a single loop over local variables.

Sequential scans (``scan_lines``) have one fast path, the scan-replay
memo: an exact rescan of a range whose previous scan hit L1D on every
line folds into one bulk hit update.  Every other scan makes one pass
of the generic walk (see :meth:`BatchExecutor.scan_lines`).

Strided ring walks (``load_ring``: the serve core's point lookups, the
context-switch kernel walk, operator cold-set probes) take one verified
walk for every uniform miss level: a run of misses all served at L2, at
L3 or from DRAM whose prefetcher response is proved before the run
starts.  A run applies only its LRU moves, fills and evictions and
charges its counters once; an L1D hit, or a probe no proof covers, goes
alone through the generic walk, and once a rotation leaves all its
lines L1D-resident the rest of the call folds into one bulk update (see
:meth:`BatchExecutor._ring_fast`).  A ring the verified walk declines
(no L2/L3, a ring overlapping the TCM window, a zero step) makes one
pass of the generic walk.  Dependent probe chains (``load_chain``:
one whole B-tree descent or LSM point lookup per call) take the generic
walk in one call (see :meth:`BatchExecutor.load_chain`).

The batched path is **bit-identical** to the reference path: it performs
the same set/LRU mutations in the same order, so PMU counters, cache
state, energy, and wall-clock agree exactly (see
``tests/sim/test_batch_equivalence.py``).  Cycle charges are integer
PMU ticks, so a bulk charge equals the reference path's one-at-a-time
adds by construction.

Executors are swapped via ``Machine.set_exec_mode("reference" |
"batched")``; the run-level entry points (``load_run``, ``load_list``,
``load_ring``, ``load_chain``, ``store_repeat``) share one signature
across both so callers never branch on the mode.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import islice
from math import gcd
from operator import eq
from typing import Iterable, Optional, Sequence

from repro.sim.address_space import LINE_SHIFT, LINE_SIZE
from repro.sim.cpu import Cpu
from repro.sim.hierarchy import LEVEL_L1D, LEVEL_L2, LEVEL_L3, LEVEL_MEM
from repro.sim.pmu import TICKS_PER_CYCLE

EXEC_MODES = ("reference", "batched")

#: Per-level and prefetcher statistics a ``load_list`` round delta
#: carries (see :meth:`BatchExecutor._list_round`).
_LEVEL_STATS = ("hits", "misses", "fills", "evictions", "dirty_evictions",
                "_occupancy")
_PF_STATS = ("n_trained", "n_pf_l2_issued", "n_pf_l3_issued")


def _list_snapshot(sets, pf) -> tuple:
    """Line order and dirty bits of ``sets`` plus the prefetcher's
    tracker state: what a fixed-point round must leave unchanged."""
    return ([(tuple(s), tuple(s.values())) for s in sets],
            pf._last[:], pf._run[:], pf._l2up[:], pf._l3up[:], pf._victim)


class ReferenceExecutor:
    """Per-op execution: every access takes the full model call chain."""

    mode = "reference"

    def __init__(self, cpu: Cpu):
        self.cpu = cpu

    def scan_lines(self, base_addr: int, n_lines: int, loads_per_line: int = 1) -> None:
        self.cpu.scan_lines(base_addr, n_lines, loads_per_line)

    def load_bytes(self, addr: int, nbytes: int, dependent: bool = False) -> None:
        self.cpu.load_bytes(addr, nbytes, dependent)

    def store_bytes(self, addr: int, nbytes: int) -> None:
        self.cpu.store_bytes(addr, nbytes)

    def load_run(self, base: int, offsets: Sequence[int], dependent: bool = False) -> None:
        """Loads at ``base + off`` for ascending word ``offsets``; only
        the first load is dependent (when requested)."""
        load = self.cpu.load
        for off in offsets:
            load(base + off, dependent)
            dependent = False

    def load_list(self, addrs: Iterable[int], dependent: bool = False) -> None:
        """One load per address, each with the given dependence."""
        load = self.cpu.load
        for addr in addrs:
            load(addr, dependent)

    def load_ring(self, base: int, cursor: int, stride: int, count: int,
                  n_lines: int) -> int:
        """``count`` independent strided loads over a ring of
        ``n_lines`` cache lines.

        Each load first advances ``cursor`` by ``stride`` modulo
        ``n_lines``, then touches ``base + cursor * LINE_SIZE``; the
        final cursor is returned so callers can persist the walk
        position across calls."""
        load = self.cpu.load
        for _ in range(count):
            cursor = (cursor + stride) % n_lines
            load(base + cursor * LINE_SIZE)
        return cursor

    def load_chain(self, addrs: Sequence[int],
                   ops: Sequence[tuple] = ()) -> None:
        """One dependent load per address, in order, then the chain's
        compute ops: ``(op, count)`` pairs of ``Cpu`` method names."""
        cpu = self.cpu
        for addr in addrs:
            cpu.load(addr, True)
        for op, n in ops:
            getattr(cpu, op)(n)

    def store_repeat(self, addr: int, n: int) -> None:
        """``n`` stores to the same address."""
        store = self.cpu.store
        for _ in range(n):
            store(addr)


class BatchExecutor:
    """Run-level execution with the hierarchy walk inlined.

    The workhorses are :meth:`_load_addrs` and :meth:`_store_addrs`:
    one Python loop over an address iterable, with cache sets, masks,
    latencies, and counters bound to locals, and the fill/evict cascade
    of ``MemoryHierarchy._fetch_from_below`` written out inline.  Dirty
    victim cascades (the rare path) fall back to the hierarchy's own
    ``_fill_l2``/``_fill_l3`` so the write-back logic lives in exactly
    one place.
    """

    mode = "batched"

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        #: ``(base, n_lines, mut_epoch)`` of the last ``scan_lines`` call
        #: that hit L1D on every line, or None.  See :meth:`scan_lines`.
        self._scan_memo = None
        #: Scan regime counters, host-side only like ``list_*``:
        #: ``scan_lines`` calls the memo replayed, and calls walked.
        self.scan_replays = 0
        self.scan_walks = 0
        #: Memoised ring visit cycles, keyed by
        #: ``(base, n_lines, stride, cursor_class)`` — pure modular
        #: arithmetic over an immutable ring geometry, so entries never
        #: invalidate.  See :meth:`_ring_fast`.
        self._ring_memo: dict = {}
        #: (offsets tuple, base mod line) -> (line-first offsets,
        #: word count, line count).  See :meth:`load_run`.
        self._run_memo: dict = {}
        #: ``load_run`` regime counters, host-side only like ``ring_*``:
        #: calls the optimistic L1D pass served whole, calls whose one
        #: straggler line went to ``load_one``, calls handed to
        #: ``_load_addrs`` (runs touching the TCM window included), and
        #: offsets-memo misses.  The three call counts partition every
        #: non-empty call.
        self.run_l1_calls = 0
        self.run_straggler_calls = 0
        self.run_generic_calls = 0
        self.run_memo_misses = 0
        #: ``(addrs, dependent, mut_epoch, fingerprint, delta)`` of the
        #: last ``load_list`` call, ``delta`` None until a round is
        #: verified as a fixed point.  See :meth:`load_list`.
        self._list_memo = None
        #: Round-replay regime counters.  Host-side diagnostics only:
        #: they never enter simulated state or any report.
        self.list_walks = 0
        self.list_replays = 0
        self.list_replayed_loads = 0
        self.list_verify_failed: dict = {}
        #: Ring-walk regime counters (see :meth:`_ring_walk`), also
        #: host-side only: probes served by a verified miss run, by
        #: level; probes folded into bulk rotations; probes handed to the
        #: generic walk, whole declined rings included; and the reasons
        #: for those handoffs (failed proofs, L1D hits).
        self.ring_verified_loads = {"l2": 0, "l3": 0, "mem": 0}
        self.ring_folded_loads = 0
        self.ring_generic_loads = 0
        self.ring_verify_failed: dict = {}
        # The hierarchy's geometry, bound once: the levels, their set
        # lists (``flush`` clears sets in place), masks and ways, the
        # dirty-victim fill methods and the prefetcher are never
        # replaced.  The TCM window, the counter block and the
        # prefetcher switches can change, so the walks read those per
        # call.
        hier = cpu.hierarchy
        geom = []
        for lvl in (hier.l1d, hier.l2, hier.l3):
            geom += ((None,) * 4 if lvl is None
                     else (lvl, lvl._sets, lvl._set_mask, lvl.assoc))
        self._geom = (*geom, hier._fill_l2, hier._fill_l3,
                      hier.prefetcher, hier.prefetcher.observe)
        #: Probe-chain regime counters, host-side only like ``ring_*``:
        #: :meth:`load_chain` calls and the loads they charged.
        self.chain_walks = 0
        self.chain_loads = 0
        #: Per-op regime counters, host-side only like ``ring_*``:
        #: :meth:`load_one` calls served inline at L1D and at L2, and
        #: those handed to ``Cpu.load``; :meth:`store_one` calls served
        #: inline at L1D, and those handed to ``Cpu.store``.
        self.one_l1_loads = 0
        self.one_l2_loads = 0
        self.one_generic_loads = 0
        self.store_l1_stores = 0
        self.store_generic_stores = 0

    # ------------------------------------------------------------ public API

    def scan_lines(self, base_addr: int, n_lines: int, loads_per_line: int = 1) -> None:
        if n_lines <= 0:
            return
        cpu = self.cpu
        hier = cpu.hierarchy
        memo = self._scan_memo
        if (memo is not None and memo[0] == base_addr and memo[1] == n_lines
                and memo[2] == hier.mut_epoch):
            # The previous scan_lines call covered this exact range, hit
            # L1D on every line, and nothing has touched cache state
            # since.  Replaying it re-orders each set into the ascending
            # order the previous scan already left it in — a no-op on
            # cache state — so the whole scan folds into one bulk hit
            # update.
            c = cpu.counters
            n = n_lines * loads_per_line
            hier.l1d.hits += n_lines
            c.n_load_inst += n
            c.n_l1d += n
            c.l1d_hits += n
            c.cycle_ticks += n * cpu._load_issue
            self.scan_replays += 1
            return
        hier.mut_epoch += 1
        self.scan_walks += 1
        impure = self._load_addrs(
            range(base_addr, base_addr + n_lines * LINE_SIZE, LINE_SIZE))
        self._scan_memo = (
            (base_addr, n_lines, hier.mut_epoch) if impure == 0 else None
        )
        extra = loads_per_line - 1
        if extra > 0:
            c = cpu.counters
            bulk = n_lines * extra
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycle_ticks += bulk * cpu._load_issue

    def _words(self, addr: int, nbytes: int) -> Optional[tuple]:
        """Bump the epoch and split an ``nbytes`` access at ``addr`` into
        ``(line heads, trailing words)``: the first word of each touched
        line, which takes the walk, and the count of same-line words
        after it, which are guaranteed L1D hits.  None when the access
        overlaps the TCM window, whose bulk and boundary-straddle
        handling both modes share with ``Cpu``."""
        n_words = max(1, (nbytes + 7) // 8)
        last = addr + 8 * (n_words - 1)
        hier = self.cpu.hierarchy
        hier.mut_epoch += 1
        tcm = hier.tcm_region
        if tcm is not None and addr < tcm.end and last >= tcm.base:
            return None
        first_line = addr >> LINE_SHIFT
        last_line = last >> LINE_SHIFT
        if last_line == first_line:
            return (addr,), n_words - 1
        word0 = addr & 7
        heads = [addr]
        heads += [(line << LINE_SHIFT) | word0
                  for line in range(first_line + 1, last_line + 1)]
        return heads, n_words - len(heads)

    def load_bytes(self, addr: int, nbytes: int, dependent: bool = False) -> None:
        words = self._words(addr, nbytes)
        cpu = self.cpu
        if words is None:
            cpu.load_bytes(addr, nbytes, dependent)
            return
        heads, bulk = words
        self._load_addrs(heads, dependent, first_only=True)
        if bulk > 0:
            c = cpu.counters
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycle_ticks += bulk * cpu._load_issue

    def store_bytes(self, addr: int, nbytes: int) -> None:
        words = self._words(addr, nbytes)
        cpu = self.cpu
        if words is None:
            cpu.store_bytes(addr, nbytes)
            return
        heads, bulk = words
        self._store_addrs(heads)
        if bulk > 0:
            c = cpu.counters
            c.n_store_inst += bulk
            c.n_store += bulk
            c.n_store_l1d_hit += bulk
            c.cycle_ticks += bulk * cpu._store_issue

    def load_run(self, base: int, offsets: Sequence[int], dependent: bool = False) -> None:
        if not offsets:
            return
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        tcm = cpu.hierarchy.tcm_region
        if (tcm is not None and base + offsets[0] < tcm.end
                and base + offsets[-1] >= tcm.base):
            # A run touching the TCM window: every word takes the
            # generic walk, in the reference path's per-op order.
            self.run_generic_calls += 1
            self._load_addrs([base + off for off in offsets], dependent,
                             first_only=True)
            return
        # The first word of each touched line takes the full path; the
        # trailing same-line words are guaranteed L1D hits (ascending
        # offsets keep the line MRU) — the reference path probes them
        # one by one, so the bulk update mirrors a probe: it counts
        # CacheLevel hits as well as the PMU counters.
        #
        # Which words are line-first depends only on the offsets tuple
        # and the base's offset within its line — and scans reuse one
        # memoised offsets tuple for every row — so the split is
        # computed once per ``(offsets, base mod line)`` and the walk
        # probes 2–3 line-first words instead of looping every word.
        #
        # Optimistic pass: probe line-first words in order while they
        # hit L1D (the warm-database common case), bailing to the full
        # inlined walk at the first miss.  The probes before the miss
        # happen in reference order; everything from the miss on is
        # handed to _load_addrs, which also runs in order.
        tup = offsets if type(offsets) is tuple else tuple(offsets)
        key = (tup, base & (LINE_SIZE - 1))
        ent = self._run_memo.get(key)
        if ent is None:
            self.run_memo_misses += 1
            rel = base & (LINE_SIZE - 1)
            firsts = []
            prev_line = -1
            for off in tup:
                line_rel = (rel + off) >> LINE_SHIFT
                if line_rel != prev_line:
                    prev_line = line_rel
                    firsts.append(off)
            ent = (tuple(firsts), len(tup), len(firsts))
            self._run_memo[key] = ent
        firsts, n, n_first = ent
        l1 = cpu.hierarchy.l1d
        s1 = l1._sets
        m1 = l1._set_mask
        c = cpu.counters
        issue = cpu._load_issue
        hits = 0
        rest = None
        for off in firsts:
            a = base + off
            if rest is not None:
                rest.append(a)
                continue
            line = a >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                hits += 1
            else:
                rest = [a]
        if hits:
            l1.hits += hits
            c.n_l1d += hits
            c.l1d_hits += hits
            c.n_load_inst += hits
            if dependent:
                # The run's first word hit; it alone carries the
                # dependent-load latency.
                lat_l1 = cpu._latency[LEVEL_L1D]
                c.cycle_ticks += lat_l1 + (hits - 1) * issue
                c.stall_ticks += lat_l1 - TICKS_PER_CYCLE
                dependent = False
            else:
                c.cycle_ticks += hits * issue
        if rest is None:
            self.run_l1_calls += 1
        elif len(rest) == 1:
            # One straggler line (the common warm-run shape: every line
            # hit but the last).  The flattened single-load path
            # charges it exactly; skip _load_addrs' prologue.
            self.run_straggler_calls += 1
            self.load_one(rest[0], dependent)
        else:
            self.run_generic_calls += 1
            self._load_addrs(rest, dependent, first_only=True)
        bulk = n - n_first
        if bulk > 0:
            l1.hits += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.n_load_inst += bulk
            c.cycle_ticks += bulk * issue

    def load_list(self, addrs: Iterable[int], dependent: bool = False) -> None:
        # Verified fixed-point round replay: pointer-chase benchmarks
        # walk one chain round after round.  Once a round is proved to
        # leave the machine as it found it (see _list_round), an equal
        # call at the same epoch and pricing repeats the same state
        # transition, so its counter delta is applied in O(fields).
        hier = self.cpu.hierarchy
        if type(addrs) not in (list, tuple):
            addrs = list(addrs)
        fp = self._list_fingerprint()
        memo = self._list_memo
        repeat = (memo is not None and memo[2] == hier.mut_epoch
                  and memo[1] == dependent and memo[3] == fp
                  and len(memo[0]) == len(addrs)
                  and all(map(eq, memo[0], addrs)))
        if repeat:
            key, delta = memo[0], memo[4]
            if delta is not None:
                pmu, moved = delta
                cd = self.cpu.counters.__dict__
                for name, v in pmu:
                    cd[name] += v
                for obj, name, v in moved:
                    setattr(obj, name, getattr(obj, name) + v)
                hier.mut_epoch += 1
                self._list_memo = (key, dependent, hier.mut_epoch, fp, delta)
                self.list_replays += 1
                self.list_replayed_loads += len(key)
                return
        else:
            # One packed copy at a time: drop the old key before the walk.
            self._list_memo = key = None
        delta = self._list_round(addrs, dependent, repeat)
        if key is None:
            try:
                key = array("I", addrs)  # half the bytes when they fit
            except OverflowError:
                key = array("q", addrs)
        self._list_memo = (key, dependent, hier.mut_epoch, fp, delta)

    def _list_fingerprint(self) -> tuple:
        """What prices or steers a ``load_list`` walk besides cache
        state.  P-state changes, prefetcher toggles and TCM moves do not
        bump the mutation epoch, so the memo keys on them instead."""
        cpu = self.cpu
        pf = cpu.hierarchy.prefetcher
        tcm = cpu.hierarchy.tcm_region
        return (tuple(cpu._latency), pf.enabled, pf.n_streams,
                pf.train_threshold, pf.degree, pf.l3_extra,
                None if tcm is None else (tcm.base, tcm.size))

    def _list_round(self, addrs, dependent: bool,
                    repeat: bool) -> Optional[tuple]:
        """Walk one ``load_list`` round; return its delta if the round
        is a verified fixed point, else None.

        A round with no L1D miss only re-orders each set into the order
        it leaves behind (the scan-memo argument): a fixed point as it
        stands.  A round with misses is verified only when it repeats
        the previous call: the L1/L2/L3 sets the chain maps to (line
        order, dirty bits) and the prefetcher trackers are snapshotted
        before and after the walk.  It is accepted if they are equal and
        it issued no write-backs and no prefetch fills — the only ways
        a round can touch other sets — so the whole machine state is
        unchanged and replaying the round repeats the same walk.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        c = cpu.counters
        pf = hier.prefetcher
        levels = [lv for lv in (hier.l1d, hier.l2, hier.l3) if lv is not None]
        if repeat:
            touched = [lv._sets[i] for lv in levels
                       for i in {(a >> LINE_SHIFT) & lv._set_mask
                                 for a in addrs}]
            snap = _list_snapshot(touched, pf)
        stats = [(lv, name) for lv in levels for name in _LEVEL_STATS]
        stats += [(pf, name) for name in _PF_STATS]
        c0 = c.copy()
        stats0 = [getattr(obj, name) for obj, name in stats]
        self.list_walks += 1
        hier.mut_epoch += 1
        self._load_addrs(addrs, dependent)
        d = c.minus(c0)
        if d.n_l1d == d.l1d_hits:
            reason = None
        elif not repeat:
            return None
        elif d.n_writeback:
            reason = "writeback"
        elif d.n_pf_l2 or d.n_pf_l3:
            reason = "prefetch"
        else:
            reason = "state" if _list_snapshot(touched, pf) != snap else None
        if reason is not None:
            failed = self.list_verify_failed
            failed[reason] = failed.get(reason, 0) + 1
            return None
        moved = [(obj, name, getattr(obj, name) - v0)
                 for (obj, name), v0 in zip(stats, stats0)
                 if getattr(obj, name) != v0]
        return tuple(kv for kv in d.__dict__.items() if kv[1]), moved

    def load_one(self, addr: int, dependent: bool = False) -> int:
        """One load instruction, flattened to a single frame.

        ``Machine.load`` routes here in batched mode (B-tree descents,
        buffer-pool headers, KV probes — the per-op stragglers that
        never form a run).  L1D and L2 hits are applied inline with
        exactly the reference path's state, counter and cycle updates;
        TCM addresses and deeper misses take ``Cpu.load`` itself.  Bumps
        the mutation epoch like the ``Machine.load`` wrapper it
        replaces.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        hier.mut_epoch += 1
        tcm = hier.tcm_region
        if tcm is None or addr < tcm.base or addr >= tcm.base + tcm.size:
            line = addr >> LINE_SHIFT
            l1 = hier.l1d
            set1 = l1._sets[line & l1._set_mask]
            if line in set1:
                set1.move_to_end(line)
                l1.hits += 1
                c = cpu.counters
                c.n_l1d += 1
                c.l1d_hits += 1
                c.n_load_inst += 1
                if dependent:
                    lat_l1 = cpu._latency[LEVEL_L1D]
                    c.cycle_ticks += lat_l1
                    c.stall_ticks += lat_l1 - TICKS_PER_CYCLE
                else:
                    c.cycle_ticks += cpu._load_issue
                self.one_l1_loads += 1
                return LEVEL_L1D
            # L1D miss, L2 hit: the dominant miss shape for the per-op
            # stragglers (B-tree nodes and page headers bounce between
            # L1D and L2).  Flattened with exactly the reference
            # cascade's state and counter updates — the lookup's LRU
            # touch and miss count, the L1 fill with its dirty-victim
            # write-back through ``_fill_l2``, the prefetcher pass, and
            # the L2-latency cycle charge.  Deeper misses fall through
            # to the reference cascade itself.
            l2 = hier.l2
            if l2 is not None:
                set2 = l2._sets[line & l2._set_mask]
                if line in set2:
                    set2.move_to_end(line)
                    l2.hits += 1
                    l1.misses += 1
                    c = cpu.counters
                    c.n_l1d += 1
                    c.n_l2 += 1
                    c.l2_hits += 1
                    if len(set1) >= l1.assoc:
                        v, vd = set1.popitem(False)
                        l1.evictions += 1
                        if vd:
                            l1.dirty_evictions += 1
                            c.n_writeback += 1
                            hier._fill_l2(v, True)
                    else:
                        l1._occupancy += 1
                    set1[line] = False
                    l1.fills += 1
                    hier._run_prefetcher(line)
                    c.n_load_inst += 1
                    if dependent:
                        lat = cpu._latency[LEVEL_L2]
                        c.cycle_ticks += lat
                        c.stall_ticks += lat - TICKS_PER_CYCLE
                    else:
                        exposed = cpu._exposed[LEVEL_L2]
                        c.cycle_ticks += cpu._load_issue + exposed
                        c.stall_ticks += exposed
                    self.one_l2_loads += 1
                    return LEVEL_L2
        # TCM window or deep miss: the per-op model path (those misses
        # do the heavy cascade anyway, so the extra frames are noise).
        self.one_generic_loads += 1
        return cpu.load(addr, dependent)

    def load_chain(self, addrs: Sequence[int],
                   ops: Sequence[tuple] = ()) -> None:
        """A chain of dependent loads, then its compute ops.

        A whole index lookup — the B-tree descent with each node's
        binary-search probes and child-pointer load, and the LSM runs'
        bloom probes and searches — whose next address depends only on
        Python-side comparisons that charge nothing, so callers compute
        the whole path first and charge it here in one walk.  ``ops``
        are ``(op, count)`` pairs of ``Cpu`` method names, charged after
        the walk: ticks are ints, so the order of the adds does not
        change the sums.
        """
        cpu = self.cpu
        if addrs:
            cpu.hierarchy.mut_epoch += 1
            self._load_addrs(addrs, True)
            self.chain_walks += 1
            self.chain_loads += len(addrs)
        for op, n in ops:
            getattr(cpu, op)(n)

    def store_one(self, addr: int) -> None:
        """One store instruction, flattened like :meth:`load_one` (the
        ``Machine.store`` batched route).  A hit refreshes LRU order,
        dirties the line, and pays the 1-cycle store-buffer issue —
        identical to ``Cpu.store`` on an L1D hit; TCM addresses and
        write-allocate misses take ``Cpu.store`` itself."""
        cpu = self.cpu
        hier = cpu.hierarchy
        hier.mut_epoch += 1
        tcm = hier.tcm_region
        if tcm is None or addr < tcm.base or addr >= tcm.base + tcm.size:
            line = addr >> LINE_SHIFT
            l1 = hier.l1d
            set1 = l1._sets[line & l1._set_mask]
            if line in set1:
                set1.move_to_end(line)
                set1[line] = True
                l1.hits += 1
                c = cpu.counters
                c.n_store += 1
                c.n_store_l1d_hit += 1
                c.n_store_inst += 1
                c.cycle_ticks += cpu._store_issue
                self.store_l1_stores += 1
                return
        self.store_generic_stores += 1
        cpu.store(addr)

    def load_ring(self, base: int, cursor: int, stride: int, count: int,
                  n_lines: int) -> int:
        if count <= 0:
            return cursor
        hier = self.cpu.hierarchy
        hier.mut_epoch += 1
        step = stride % n_lines
        tcm = hier.tcm_region
        if (step and hier.l2 is not None  # an L2 comes with an L3
                and (tcm is None or base >= tcm.end
                     or base + n_lines * LINE_SIZE <= tcm.base)):
            return self._ring_fast(base, cursor, stride, count, n_lines,
                                   n_lines // gcd(step, n_lines))
        # No L2/L3 to prove a run against, a ring overlapping the TCM
        # window, or a zero step: one generic walk over the probes.
        addrs = []
        for _ in range(count):
            cursor = (cursor + stride) % n_lines
            addrs.append(base + cursor * LINE_SIZE)
        self.ring_generic_loads += count
        self._load_addrs(addrs)
        return cursor

    def _ring_fast(self, base: int, cursor: int, stride: int, count: int,
                   n_lines: int, period: int) -> int:
        """:meth:`load_ring` for a nonzero step on a full hierarchy,
        with the ring outside the TCM window.

        The ring's visit order is pure modular arithmetic over an
        immutable geometry: from any cursor the walk traverses the
        ``period`` positions of the cursor's residue class (mod
        ``gcd(stride, n_lines)``) in a fixed cyclic order.  That cycle
        is computed once per ``(ring, class)`` and memoised as a tuple
        of *line numbers* (regions are line-aligned), so each call is a
        dict hit plus C-level tuple slices — no per-probe cursor
        arithmetic.  Each rotation segment goes through the verified
        walk of :meth:`_ring_walk`.

        A full rotation touches ``period`` distinct lines in order, and
        nothing else enters L1D meanwhile (prefetches and write-backs
        fill L2/L3).  A line is touched once per rotation, so when no
        L1D set receives more than ``assoc`` of the rotation's lines,
        none of them can be pushed out after its touch: every one is
        resident afterwards, whether the rotation hit or filled it, and
        each set ends with them as its tail in rotation order.
        Replaying the rotation then hits every probe and re-appends the
        same lines in the same order — a no-op on cache and prefetcher
        state.  That condition depends only on the geometry, so it is
        memoised with the cycle, and the remaining full rotations after
        the first fold into one bulk hit update.  The cursor is
        unchanged: ``period * stride`` is a multiple of ``n_lines``.
        """
        cpu = self.cpu
        c = cpu.counters
        l1 = cpu.hierarchy.l1d
        base_line = base >> LINE_SHIFT
        key = (base, n_lines, stride, cursor % (n_lines // period))
        memo = self._ring_memo.get(key)
        if memo is None:
            # One cycle entry per visit: the line number plus its three
            # per-level cache sets.  The set OrderedDicts are created
            # once per cache and only ever mutated in place (``flush``
            # clears them, never replaces them), so the references stay
            # valid for the life of the machine and the per-probe
            # ``sets[line & mask]`` indexing happens once per ring, not
            # once per access.
            hier2 = cpu.hierarchy
            s1, m1 = hier2.l1d._sets, hier2.l1d._set_mask
            s2, m2 = hier2.l2._sets, hier2.l2._set_mask
            s3, m3 = hier2.l3._sets, hier2.l3._set_mask
            cycle = []
            pos = cursor
            for _ in range(period):
                pos = (pos + stride) % n_lines
                line = base_line + pos
                cycle.append((line, s1[line & m1], s2[line & m2],
                              s3[line & m3]))
            inv = {entry[0] - base_line: j for j, entry in enumerate(cycle)}
            per_set = Counter(entry[0] & m1 for entry in cycle)
            fits = max(per_set.values()) <= hier2.l1d.assoc
            # Stored twice over, so any segment is one slice.
            memo = (tuple(cycle) * 2, inv, fits)
            self._ring_memo[key] = memo
        cycle, inv, fits = memo
        idx = inv[cursor]
        step1 = stride % n_lines == 1
        done = 0
        while done < count:
            chunk = min(period, count - done)
            first = (idx + 1) % period
            seg = cycle[first:first + chunk]
            self._ring_walk(seg, inv, base_line, n_lines, first, period,
                            step1)
            done += chunk
            idx = (first + chunk - 1) % period
            if fits and chunk == period and count - done >= period:
                n = (count - done) // period * period
                l1.hits += n
                c.n_l1d += n
                c.l1d_hits += n
                c.n_load_inst += n
                c.cycle_ticks += n * cpu._load_issue
                done += n
                self.ring_folded_loads += n
        return cycle[idx][0] - base_line

    def _ring_walk(self, seg, inv, base_line: int, n_lines: int, first: int,
                   period: int, step1: bool) -> None:
        """Demand loads for one ring rotation segment.

        A segment is served in runs of misses, each at one level — L2
        hit, L3 hit or DRAM, chosen from its first probe; a probe that
        hits L1D goes alone through the generic walk.  Each probe's
        shape is checked with plain ``in`` tests *before* it mutates
        anything, and the run stops at the first probe that hits L1D or
        is served at another level.  The run applies only the LRU moves,
        fills and evictions; dirty victims still write back through the
        hierarchy's own ``_fill_l2``/``_fill_l3``, so the cascade logic
        stays in one place.  Its counters are derived once (fills =
        misses, evictions = probes − underfull inserts), and so are its
        cycle and stall charges.

        What a miss run must prove is the prefetcher's response.  With
        ``train_threshold == 2`` and no idle slot, a miss that no
        tracker matches restarts one fixed slot: the first slot with
        ``run == 1`` or, when every slot is trained, the round-robin
        victim (after which it is the ``run == 1`` slot).  So a run's
        net prefetcher effect is one write of its last line to that
        slot.  Before a miss run, the walk scans the trackers against
        the memoised cycle index: the first later segment position a
        tracker could match (its ``last`` at or one below that line)
        bounds every run until the next proof.  The moving slot holds
        the previous miss.  Within a run consecutive probes differ by
        the ring step, which is never 0 and, unless ``step1``, never 1;
        after an L1D hit the moving slot is rechecked against the next
        miss.  A probe that fails a proof goes alone through the exact
        generic walk, and the walk proves again from the next probe.
        A configuration no proof can pass (another train threshold, a
        step of 1) hands the rest of the segment to the generic walk.
        """
        cpu = self.cpu
        c = cpu.counters
        hier = cpu.hierarchy
        l1 = hier.l1d
        l2 = hier.l2
        l3 = hier.l3
        a1 = l1.assoc
        a2 = l2.assoc
        a3 = l3.assoc
        fill_l2 = hier._fill_l2
        fill_l3 = hier._fill_l3
        pf = hier.prefetcher
        pf_on = pf.enabled and pf.n_streams > 0
        last = pf._last
        run = pf._run
        issue = cpu._load_issue
        exposed = cpu._exposed
        verified = self.ring_verified_loads
        n = len(seg)
        pos = slot = 0
        stop = -1 if pf_on else n   # runs serve [pos, stop) until re-proved
        bump = False
        while pos < n:
            line, set1, set2, set3 = seg[pos]
            if line in set1:
                self._ring_generic(seg, pos, "l1_hit", 1)
                pos += 1
                continue
            if pos >= stop:
                if pf.train_threshold != 2:
                    return self._ring_generic(seg, pos, "pf_config")
                if step1:
                    return self._ring_generic(seg, pos, "tracker")
                if 0 in run:
                    self._ring_generic(seg, pos, "idle_slot", 1)
                    pos += 1
                    continue
                stop = n
                for v in last:
                    r = v - base_line
                    if -1 <= r < n_lines:   # at or one below a ring line
                        for w in (r, r + 1):
                            iv = inv.get(w)
                            if iv is not None:
                                k = (iv - first) % period
                                if pos <= k < stop:
                                    stop = k
                if stop == pos:
                    self._ring_generic(seg, pos, "tracker", 1)
                    pos += 1
                    continue
                bump = 1 not in run
                slot = pf._victim if bump else run.index(1)
            elif pf_on and (last[slot] == line or last[slot] == line - 1):
                # The moving slot's last miss lies L1D hits back.
                self._ring_generic(seg, pos, "tracker", 1)
                pos += 1
                stop = -1
                continue
            hit2 = line in set2
            hit3 = not hit2 and line in set3
            j = u1 = u2 = u3 = dev1 = dev2 = dev3 = 0
            # popitem(False) pops the LRU line; the positional form
            # skips keyword parsing on the walk's hottest call.
            for line, set1, set2, set3 in islice(seg, pos, stop):
                if line in set1:
                    break
                if line in set2:
                    if not hit2:
                        break
                    set2.move_to_end(line)
                else:
                    if hit2:
                        break
                    if line in set3:
                        if not hit3:
                            break
                        set3.move_to_end(line)
                    else:
                        if hit3:
                            break
                        if len(set3) >= a3:
                            if set3.popitem(False)[1]:
                                dev3 += 1
                        else:
                            u3 += 1
                        set3[line] = False
                    if len(set2) >= a2:
                        v, vd = set2.popitem(False)
                        if vd:
                            dev2 += 1
                            fill_l3(v, True)
                    else:
                        u2 += 1
                    set2[line] = False
                if len(set1) >= a1:
                    v, vd = set1.popitem(False)
                    if vd:
                        dev1 += 1
                        fill_l2(v, True)
                else:
                    u1 += 1
                set1[line] = False
                j += 1
            e = exposed[LEVEL_L2 if hit2 else LEVEL_L3 if hit3 else LEVEL_MEM]
            c.cycle_ticks += j * (issue + e)
            c.stall_ticks += j * e
            c.n_load_inst += j
            c.n_l1d += j
            c.n_l2 += j
            c.n_writeback += dev1 + dev2 + dev3
            l1.bulk_account(misses=j, fills=j, evictions=j - u1,
                            dirty_evictions=dev1, occupancy=u1)
            if hit2:
                c.l2_hits += j
                l2.hits += j
            else:
                c.n_l3 += j
                l2.bulk_account(misses=j, fills=j, evictions=j - u2,
                                dirty_evictions=dev2, occupancy=u2)
                if hit3:
                    c.l3_hits += j
                    l3.hits += j
                else:
                    c.n_mem += j
                    l3.bulk_account(misses=j, fills=j, evictions=j - u3,
                                    dirty_evictions=dev3, occupancy=u3)
            verified["l2" if hit2 else "l3" if hit3 else "mem"] += j
            pos += j
            if pf_on:
                if bump:
                    pf._victim = (slot + 1) % pf.n_streams
                    run[slot] = 1
                    bump = False
                last[slot] = seg[pos - 1][0]
                pf._l2up[slot] = -1
                pf._l3up[slot] = -1
            if pos < stop and seg[pos][0] not in seg[pos][1]:
                # The run was cut short by a miss at another level.
                failed = self.ring_verify_failed
                failed["shape"] = failed.get("shape", 0) + 1

    def _ring_generic(self, seg, pos: int, reason: str,
                      n: Optional[int] = None) -> None:
        """Hand ``n`` probes of ``seg`` from ``pos`` (default: the rest)
        to the exact generic walk."""
        failed = self.ring_verify_failed
        failed[reason] = failed.get(reason, 0) + 1
        lines = islice(seg, pos, None if n is None else pos + n)
        addrs = [entry[0] << LINE_SHIFT for entry in lines]
        self.ring_generic_loads += len(addrs)
        self._load_addrs(addrs)

    def store_repeat(self, addr: int, n: int) -> None:
        if n <= 0:
            return
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        c = cpu.counters
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None and tcm.base <= addr < tcm.end:
            c.n_tcm_store += n
            c.n_store_inst += n
            c.cycle_ticks += n * cpu._store_issue
            return
        self._store_addrs((addr,))
        if n > 1:
            # Repeat stores to one address hit the (now dirty, MRU) L1D
            # line; the reference path probes each one.
            bulk = n - 1
            cpu.hierarchy.l1d.hits += bulk
            c.n_store += bulk
            c.n_store_l1d_hit += bulk
            c.n_store_inst += bulk
            c.cycle_ticks += bulk * cpu._store_issue

    # ------------------------------------------------------------ workhorses

    def _load_addrs(self, addrs: Iterable[int], dependent: bool = False,
                    first_only: bool = False) -> int:
        """Demand loads for every address in ``addrs``, inlined.

        ``dependent`` applies to all loads, or — with ``first_only`` —
        to just the first one (the ``load_run`` contract).  Returns the
        number of "impure" accesses (L1D misses + TCM hits); a zero return
        means the run was pure L1D hits, which is what the
        ``scan_lines`` replay memo needs to know.
        """
        cpu = self.cpu
        c = cpu.counters
        (l1, s1, m1, a1, l2, s2, m2, a2, l3, s3, m3, a3,
         fill_l2, fill_l3, pf, observe) = self._geom
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None:
            tbase = tcm.base
            tend = tcm.base + tcm.size
        else:
            tbase = 1
            tend = 0
        # A disabled prefetcher's observe() returns empty ranges and
        # touches no state, so skipping the call is exact.
        pf_on = pf.enabled and pf.n_streams > 0
        lat_tcm, lat_l1, lat_l2, lat_l3, lat_mem = cpu._latency
        _, _, exp_l2, exp_l3, exp_mem = cpu._exposed
        issue = cpu._load_issue
        one = TICKS_PER_CYCLE

        # Per-level accesses and hits follow from the per-level stats
        # (an L1D miss is an L2 access, and so on down), so the loop
        # counts each event once and the flush derives the PMU fields.
        n_inst = 0
        n_tcm = 0
        n_wb = 0
        n_pf_l2 = 0
        n_pf_l3 = 0
        h1 = mis1 = f1 = ev1 = dev1 = occ1 = 0
        h2 = mis2 = f2 = ev2 = dev2 = occ2 = 0
        h3 = mis3 = f3 = ev3 = dev3 = occ3 = 0
        cyc = c.cycle_ticks
        stall = c.stall_ticks
        dep = dependent

        for addr in addrs:
            n_inst += 1
            if tbase <= addr < tend:
                n_tcm += 1
                if dep:
                    cyc += lat_tcm
                    stall += lat_tcm - one
                    if first_only:
                        dep = False
                else:
                    cyc += issue
                continue
            line = addr >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                h1 += 1
                if dep:
                    cyc += lat_l1
                    stall += lat_l1 - one
                    if first_only:
                        dep = False
                else:
                    cyc += issue
                continue
            # ---------------- L1D miss: walk down, fill on the way back
            mis1 += 1
            if l2 is None:
                lvl_lat = lat_mem
                exp = exp_mem
            else:
                set2 = s2[line & m2]
                if line in set2:
                    set2.move_to_end(line)
                    h2 += 1
                    lvl_lat = lat_l2
                    exp = exp_l2
                else:
                    # An L2 comes with an L3 (MachineConfig's check).
                    mis2 += 1
                    set3 = s3[line & m3]
                    if line in set3:
                        set3.move_to_end(line)
                        h3 += 1
                        lvl_lat = lat_l3
                        exp = exp_l3
                    else:
                        mis3 += 1
                        lvl_lat = lat_mem
                        exp = exp_mem
                        # fill L3 (line known absent)
                        f3 += 1
                        if len(set3) >= a3:
                            v, vd = set3.popitem(False)
                            ev3 += 1
                            if vd:
                                dev3 += 1
                                n_wb += 1
                        else:
                            occ3 += 1
                        set3[line] = False
                    # fill L2 (line known absent)
                    f2 += 1
                    if len(set2) >= a2:
                        v, vd = set2.popitem(False)
                        ev2 += 1
                        if vd:
                            dev2 += 1
                            n_wb += 1
                            fill_l3(v, True)
                    else:
                        occ2 += 1
                    set2[line] = False
            # fill L1 (line known absent)
            f1 += 1
            if len(set1) >= a1:
                v, vd = set1.popitem(False)
                ev1 += 1
                if vd:
                    dev1 += 1
                    n_wb += 1
                    if l2 is not None:  # else straight to DRAM (no L3)
                        fill_l2(v, True)
            else:
                occ1 += 1
            set1[line] = False
            # prefetcher (demand loads only, after the fills — same
            # order as MemoryHierarchy.load)
            if pf_on:
                pf2, pf3 = observe(line)
                for pline in pf2:
                    if l2 is not None and pline not in s2[pline & m2]:
                        if pline in s3[pline & m3]:
                            n_pf_l2 += 1
                            pset = s2[pline & m2]
                            f2 += 1
                            if len(pset) >= a2:
                                v, vd = pset.popitem(False)
                                ev2 += 1
                                if vd:
                                    dev2 += 1
                                    n_wb += 1
                                    fill_l3(v, True)
                            else:
                                occ2 += 1
                            pset[pline] = False
                        else:
                            n_pf_l3 += 1
                            pset = s3[pline & m3]
                            f3 += 1
                            if len(pset) >= a3:
                                v, vd = pset.popitem(False)
                                ev3 += 1
                                if vd:
                                    dev3 += 1
                                    n_wb += 1
                            else:
                                occ3 += 1
                            pset[pline] = False
                for pline in pf3:
                    if l3 is not None and pline not in s3[pline & m3]:
                        n_pf_l3 += 1
                        pset = s3[pline & m3]
                        f3 += 1
                        if len(pset) >= a3:
                            v, vd = pset.popitem(False)
                            ev3 += 1
                            if vd:
                                dev3 += 1
                                n_wb += 1
                        else:
                            occ3 += 1
                        pset[pline] = False
            if dep:
                cyc += lvl_lat
                stall += lvl_lat - one
                if first_only:
                    dep = False
            else:
                cyc += issue + exp
                stall += exp

        c.cycle_ticks = cyc
        c.stall_ticks = stall
        c.n_load_inst += n_inst
        c.n_l1d += h1 + mis1
        c.l1d_hits += h1
        l1.hits += h1
        if mis1:
            if l2 is None:
                c.n_mem += mis1
            else:
                c.n_l2 += mis1
                c.l2_hits += h2
                c.n_l3 += mis2
                c.l3_hits += h3
                c.n_mem += mis3
            c.n_writeback += n_wb
            c.n_pf_l2 += n_pf_l2
            c.n_pf_l3 += n_pf_l3
            l1.bulk_account(0, mis1, f1, ev1, dev1, occ1)
            if l2 is not None:
                l2.bulk_account(h2, mis2, f2, ev2, dev2, occ2)
            if l3 is not None and (mis2 or f3):
                l3.bulk_account(h3, mis3, f3, ev3, dev3, occ3)
        if n_tcm:
            c.n_tcm_load += n_tcm
        return mis1 + n_tcm

    def _store_addrs(self, addrs: Iterable[int]) -> None:
        """Stores for every address in ``addrs``, inlined (write-back +
        write-allocate; stores cost one issue slot, never stall).  No
        address is in the TCM window: ``_words`` declines any access that
        overlaps it, and ``store_repeat`` charges a TCM store itself."""
        cpu = self.cpu
        c = cpu.counters
        (l1, s1, m1, a1, l2, s2, m2, a2, l3, s3, m3, a3,
         fill_l2, fill_l3, _, _) = self._geom
        n_inst = 0
        n_store_hit = 0
        n_l2 = 0
        l2_hits = 0
        n_l3 = 0
        l3_hits = 0
        n_mem = 0
        n_wb = 0
        h1 = mis1 = f1 = ev1 = dev1 = occ1 = 0
        h2 = mis2 = f2 = ev2 = dev2 = occ2 = 0
        h3 = mis3 = f3 = ev3 = dev3 = occ3 = 0

        for addr in addrs:
            n_inst += 1
            line = addr >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                set1[line] = True
                h1 += 1
                n_store_hit += 1
                continue
            # ------------- store miss: write-allocate (RFO), then dirty
            mis1 += 1
            if l2 is not None:
                n_l2 += 1
                set2 = s2[line & m2]
                if line in set2:
                    set2.move_to_end(line)
                    h2 += 1
                    l2_hits += 1
                else:
                    # An L2 comes with an L3 (MachineConfig's check).
                    mis2 += 1
                    n_l3 += 1
                    set3 = s3[line & m3]
                    if line in set3:
                        set3.move_to_end(line)
                        h3 += 1
                        l3_hits += 1
                    else:
                        mis3 += 1
                        n_mem += 1
                        f3 += 1
                        if len(set3) >= a3:
                            v, vd = set3.popitem(False)
                            ev3 += 1
                            if vd:
                                dev3 += 1
                                n_wb += 1
                        else:
                            occ3 += 1
                        set3[line] = False
                    f2 += 1
                    if len(set2) >= a2:
                        v, vd = set2.popitem(False)
                        ev2 += 1
                        if vd:
                            dev2 += 1
                            n_wb += 1
                            fill_l3(v, True)
                    else:
                        occ2 += 1
                    set2[line] = False
            else:
                n_mem += 1
            f1 += 1
            if len(set1) >= a1:
                v, vd = set1.popitem(False)
                ev1 += 1
                if vd:
                    dev1 += 1
                    n_wb += 1
                    if l2 is not None:  # else straight to DRAM (no L3)
                        fill_l2(v, True)
            else:
                occ1 += 1
            set1[line] = True

        c.cycle_ticks += n_inst * cpu._store_issue
        c.n_store_inst += n_inst
        c.n_store += n_inst
        c.n_store_l1d_hit += n_store_hit
        c.n_l2 += n_l2
        c.l2_hits += l2_hits
        c.n_l3 += n_l3
        c.l3_hits += l3_hits
        c.n_mem += n_mem
        c.n_writeback += n_wb
        l1.bulk_account(h1, mis1, f1, ev1, dev1, occ1)
        if l2 is not None:
            l2.bulk_account(h2, mis2, f2, ev2, dev2, occ2)
        if l3 is not None:
            l3.bulk_account(h3, mis3, f3, ev3, dev3, occ3)
