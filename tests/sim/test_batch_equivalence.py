"""Property-style equivalence: ``batched`` must match ``reference`` exactly.

The batched executor's contract (repro.sim.batch) is bit-identical
PMU counters, RAPL joules, wall-clock, and cache/LRU state.  These
tests run randomly generated workload mixes — sequential scans
(including exact rescans, which exercise the scan-replay memo),
cache-thrashing scans, multi-word accesses, strided runs, pointer
chases, stores, TCM accesses and boundary straddles, prefetcher
on/off, and EIST on — through both executors and require exact
equality, floats included.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import tiny_arm, tiny_intel
from repro.db.btree import BTree, probe_ops
from repro.errors import ConfigError
from repro.micro.framework import shuffled_chain_order
from repro.seeding import stable_hash
from repro.sim.address_space import Region
from repro.sim.batch import BatchExecutor
from repro.sim.hierarchy import LEVEL_MEM
from repro.sim.machine import Machine
from repro.sim.pmu import TICKS_PER_CYCLE
from repro.sim.tcm import TcmConfig
from repro.workloads.kvstore import (BloomFilter, LsmStore, SSTable,
                                     lookup_ops)
from tests.helpers import exact_state

PRESETS = {"intel": tiny_intel, "arm": tiny_arm}


def _random_program(rng: random.Random, tcm_base, tcm_size) -> list:
    """A list of (op, *args) tuples over two regions: a small buffer
    that fits in L1 and a large one that thrashes every level."""
    ops = []
    last_scan = None
    for _ in range(rng.randrange(150, 250)):
        kind = rng.randrange(14)
        if kind == 0 and last_scan is not None and rng.random() < 0.8:
            ops.append(last_scan)  # exact rescan: the memo path
        elif kind <= 2:
            region = rng.choice(("small", "big"))
            start = rng.randrange(8)
            n = rng.randrange(1, 12 if region == "small" else 600)
            last_scan = ("scan", region, start, n, rng.choice((1, 1, 3)))
            ops.append(last_scan)
        elif kind == 3:
            ops.append(("load", rng.choice(("small", "big")),
                        rng.randrange(4096), rng.random() < 0.5))
        elif kind == 4:
            ops.append(("store", rng.choice(("small", "big")),
                        rng.randrange(4096)))
        elif kind == 5:
            ops.append(("load_bytes", rng.choice(("small", "big")),
                        rng.randrange(512), rng.randrange(1, 300),
                        rng.random() < 0.5))
        elif kind == 6:
            ops.append(("store_bytes", rng.choice(("small", "big")),
                        rng.randrange(512), rng.randrange(1, 200)))
        elif kind == 7:
            offs = sorted(rng.sample(range(0, 4096, 8),
                                     rng.randrange(1, 10)))
            ops.append(("load_run", rng.choice(("small", "big")),
                        tuple(offs), rng.random() < 0.5))
        elif kind == 8:
            addrs = [rng.randrange(0, 1 << 16) & ~7 for _ in
                     range(rng.randrange(1, 12))]
            ops.append(("load_list", "big", tuple(addrs),
                        rng.random() < 0.5))
        elif kind == 9:
            if rng.random() < 0.5:
                ops.append(("store_repeat", rng.choice(("small", "big")),
                            rng.randrange(256) & ~7, rng.randrange(1, 40)))
            else:
                region = rng.choice(("small", "big"))
                n_lines = 16 if region == "small" else rng.randrange(8, 512)
                ops.append(("load_ring", region, rng.randrange(n_lines),
                            rng.randrange(0, 2 * n_lines),
                            rng.randrange(1, 200), n_lines))
        elif kind == 10:
            ops.append(("hot", rng.randrange(256), rng.randrange(1, 50)))
        elif kind == 11:
            ops.append(("pf", rng.random() < 0.5))
        elif kind == 12:
            ops.append(("settle",))
        elif kind == 13 and tcm_base is not None:
            # TCM interior loads and repeated stores, plus
            # boundary-straddling runs.
            tcm_kind = rng.randrange(3)
            if tcm_kind == 0:
                ops.append(("tcm_run",
                            rng.randrange(0, max(8, tcm_size - 64), 8),
                            rng.randrange(1, 8), rng.random() < 0.5))
            elif tcm_kind == 1:
                ops.append(("tcm_store_repeat",
                            rng.randrange(0, tcm_size, 8),
                            rng.randrange(1, 40)))
            else:
                ops.append(("straddle", rng.randrange(1, 6),
                            rng.random() < 0.5))
    if tcm_base is not None:
        # Every TCM program stores into the TCM at least once.
        ops.insert(rng.randrange(len(ops) + 1),
                   ("tcm_store_repeat", rng.randrange(0, tcm_size, 8),
                    rng.randrange(1, 40)))
    return ops


def _execute(preset: str, mode: str, program: list, eist: bool):
    machine = Machine(PRESETS[preset](), exec_mode=mode)
    small = machine.address_space.alloc_lines(16, "small")
    big = machine.address_space.alloc_lines(4096, "big")
    base = {"small": small.base, "big": big.base}
    tcm = machine.hierarchy.tcm_region
    if eist:
        machine.enable_eist()
    ex = machine.exec
    for op in program:
        kind = op[0]
        if kind == "scan":
            _, region, start, n, lpl = op
            machine.scan_lines(base[region] + start * 64, n, lpl)
        elif kind == "load":
            machine.load(base[op[1]] + op[2], op[3])
        elif kind == "store":
            machine.store(base[op[1]] + op[2])
        elif kind == "load_bytes":
            machine.load_bytes(base[op[1]] + op[2], op[3], op[4])
        elif kind == "store_bytes":
            machine.store_bytes(base[op[1]] + op[2], op[3])
        elif kind == "load_run":
            ex.load_run(base[op[1]], op[2], op[3])
        elif kind == "load_list":
            ex.load_list([base[op[1]] + a for a in op[2]], op[3])
        elif kind == "store_repeat":
            ex.store_repeat(base[op[1]] + op[2], op[3])
        elif kind == "load_ring":
            _, region, cursor, stride, count, n_lines = op
            ex.load_ring(base[region], cursor, stride, count, n_lines)
        elif kind == "hot":
            machine.hot_loads(small.base + op[1], op[2])
            machine.hot_stores(small.base + op[1], op[2])
        elif kind == "pf":
            machine.set_prefetcher(op[1])
        elif kind == "settle":
            machine.settle()
            machine.governor_tick()
        elif kind == "tcm_run":
            ex.load_run(tcm.base + op[1], tuple(range(0, op[2] * 8, 8)),
                        op[3])
        elif kind == "tcm_store_repeat":
            ex.store_repeat(tcm.base + op[1], op[2])
        elif kind == "straddle":
            # A run crossing the TCM lower boundary: per-op fallback.
            n_words = op[1]
            ex.load_run(tcm.base - 8 * 2,
                        tuple(range(0, (n_words + 2) * 8, 8)), op[2])
    machine.settle()
    return machine


@pytest.mark.parametrize("preset", ("intel", "arm"))
@pytest.mark.parametrize("seed", range(5))
def test_random_mix_equivalence(preset, seed):
    machine = Machine(PRESETS[preset]())
    tcm = machine.hierarchy.tcm_region
    rng = random.Random((stable_hash(preset) ^ seed) & 0xFFFFFFFF)
    program = _random_program(
        rng,
        tcm.base if tcm is not None else None,
        tcm.size if tcm is not None else 0,
    )
    ref = exact_state(_execute(preset, "reference", program, eist=False))
    bat = exact_state(_execute(preset, "batched", program, eist=False))
    assert ref == bat
    # The ARM board's DTCM takes stores too, through store_repeat.
    assert (ref["counters"]["n_tcm_store"] > 0) == (tcm is not None)


@pytest.mark.parametrize("preset", ("intel", "arm"))
def test_random_mix_equivalence_with_eist(preset):
    machine = Machine(PRESETS[preset]())
    tcm = machine.hierarchy.tcm_region
    rng = random.Random(99)
    program = _random_program(
        rng,
        tcm.base if tcm is not None else None,
        tcm.size if tcm is not None else 0,
    )
    ref = exact_state(_execute(preset, "reference", program, eist=True))
    bat = exact_state(_execute(preset, "batched", program, eist=True))
    assert ref == bat


def test_scan_memo_invalidated_by_per_op_access():
    """A direct machine.load between identical scans must not let the
    replay memo serve stale hits."""
    program = [("scan", "small", 0, 8, 1)] * 3 + [
        ("store", "small", 64),
        ("scan", "small", 0, 8, 1),
        ("load", "small", 256, True),
        ("scan", "small", 0, 8, 1),
    ]
    ref = exact_state(_execute("intel", "reference", program, eist=False))
    bat = exact_state(_execute("intel", "batched", program, eist=False))
    assert ref == bat


def _run_scenario(mode: str, body, config=None) -> Machine:
    machine = Machine(config or tiny_intel(), exec_mode=mode)
    body(machine)
    machine.settle()
    return machine


def _assert_modes_agree(body, config=None):
    """Run ``body`` in both modes, require identical state, and return
    the batched machine's executor (for regime-counter checks)."""
    ref = exact_state(_run_scenario("reference", body, config))
    batched = _run_scenario("batched", body, config)
    assert ref == exact_state(batched)
    return batched._executors["batched"]


def test_cold_stream_scan_equivalence():
    """A scan twice the size of L3, run twice: the generic walk behind
    a trained prefetcher stream (every line an L1D miss served by an L2
    prefetch, the second pass over lines the first left in L3) must
    match the reference bit for bit — counters, energy, LRU order, and
    prefetcher stream state."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size * 2 // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        for _ in range(2):
            machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_cold_scan_overlapping_tcm_region():
    """A TCM window inside the scanned range: the generic walk serves
    those lines from TCM mid-scan and must produce identical state."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        machine.hierarchy.tcm_region = Region(
            base=buf.base + (n_lines // 2) * 64, size=16 * 64, label="tcm")
        machine.scan_lines(buf.base, n_lines)
        machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_cold_scan_through_dirty_cache_state():
    """Store-dirtied lines ahead of a cold scan force dirty-victim
    writeback cascades at every level mid-scan; every cascade must
    match."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size * 2 // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        # Dirty a swath of lines across all three levels...
        for i in range(0, n_lines, 3):
            machine.store(buf.base + i * 64)
        # ...then cold-scan the whole range over them, twice.
        machine.scan_lines(buf.base, n_lines)
        machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_interleaved_streams_clip_the_stride():
    """Two sequential scans advancing in alternating chunks keep two
    prefetcher trackers live, each chunk resuming its own stream; the
    tracker matching must not drift from the reference."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64
        a = machine.address_space.alloc_lines(n_lines, "a")
        b = machine.address_space.alloc_lines(n_lines, "b")
        chunk = 64
        for i in range(0, n_lines, chunk):
            machine.scan_lines(a.base + i * 64, chunk)
            machine.scan_lines(b.base + i * 64, chunk)
    _assert_modes_agree(body)


def test_flush_mid_run_invalidates_fast_path_state():
    """A mid-run MemoryHierarchy.flush() bumps mut_epoch; the
    scan-replay memo must start cold again instead of replaying stale
    state, and the trained stream's scan must match after it."""
    def body(machine):
        l1_lines = machine.hierarchy.l1d.size // 64
        small = machine.address_space.alloc_lines(l1_lines, "small")
        big = machine.address_space.alloc_lines(
            machine.hierarchy.l3.size * 2 // 64, "big")
        n_big = machine.hierarchy.l3.size * 2 // 64
        machine.scan_lines(small.base, l1_lines)
        machine.scan_lines(small.base, l1_lines)   # memoised replay
        machine.scan_lines(big.base, n_big)        # trains a stream
        machine.hierarchy.flush()                  # cold start mid-run
        misses_before = machine.hierarchy.l1d.misses
        machine.scan_lines(small.base, l1_lines)   # must miss again
        assert machine.hierarchy.l1d.misses - misses_before == l1_lines
        machine.scan_lines(big.base, n_big)
    _assert_modes_agree(body)


def test_load_ring_fold_after_warm_rotation():
    """An L1-resident ring walked for many rotations: the batched
    executor folds everything after the first all-hit rotation into
    bulk accounting, which must stay bit-identical — including the
    returned cursor used to chain further walks."""
    def body(machine):
        ring = machine.address_space.alloc_lines(24, "ring")
        cursor = 0
        for count in (24, 240, 7, 2401):
            cursor = machine.exec.load_ring(ring.base, cursor, 7, count, 24)
    _assert_modes_agree(body)


def test_load_ring_miss_recovery_and_gcd_strides():
    """Rings bigger than L1 (every rotation misses), strides sharing a
    factor with the ring (short sub-cycles), stride 0, stride multiples
    of the ring size, and strides congruent to 1 (a sequential walk the
    prefetcher trains on) must all match per-op execution, whatever
    state the prefetcher is in: idle tracker slots (a fresh machine),
    switched off (nothing to prove), or a train threshold the walk has
    no proof for."""
    for prefetcher, reason in (("idle", "idle_slot"), ("off", None),
                               ("threshold3", "pf_config")):
        def body(machine, prefetcher=prefetcher):
            if prefetcher == "off":
                machine.set_prefetcher(False)
            elif prefetcher == "threshold3":
                machine.prefetcher.train_threshold = 3
            big = machine.address_space.alloc_lines(512, "big-ring")
            ex = machine.exec
            cursor = 0
            for stride in (97, 8, 64, 512, 0, 1, 513):
                cursor = ex.load_ring(big.base, cursor, stride, 300, 512)
        failed = _assert_modes_agree(body).ring_verify_failed
        if reason is None:
            assert not failed.keys() & {"tracker", "idle_slot", "pf_config"}
        else:
            assert failed[reason] > 0


def test_load_ring_interrupted_by_evictions():
    """Evicting the ring's lines between (and is followed by) walks
    forces the batched path off the fold and through the generic walk
    mid-rotation."""
    def body(machine):
        ring = machine.address_space.alloc_lines(24, "ring")
        thrash = machine.address_space.alloc_lines(
            machine.hierarchy.l3.size // 64, "thrash")
        cursor = 0
        cursor = machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
        machine.scan_lines(thrash.base, thrash.n_lines)  # evict the ring
        cursor = machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
        for i in range(0, 24, 5):
            machine.store(ring.base + i * 64)  # dirty a few ring lines
        machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
    _assert_modes_agree(body)


def test_load_ring_tcm_overlap():
    """A ring overlapping the TCM window must take the exact generic
    walk, TCM probes included, and count its probes as generic."""
    generic = {}

    def body(machine):
        ring = machine.address_space.alloc_lines(32, "ring")
        machine.exec.load_ring(ring.base, 0, 7, 100, 32)
        before = getattr(machine.exec, "ring_generic_loads", 0)
        tcm = machine.hierarchy.tcm_region
        if tcm is None:
            machine.hierarchy.tcm_region = Region(
                base=ring.base + 8 * 64, size=4 * 64, label="tcm")
        else:
            machine.hierarchy.tcm_region = Region(
                base=ring.base + 8 * 64, size=4 * 64, label=tcm.label)
        machine.exec.load_ring(ring.base, 0, 7, 100, 32)
        machine.exec.load_ring(ring.base, 3, 5, 64, 32)
        generic[machine.exec.mode] = (
            getattr(machine.exec, "ring_generic_loads", 0) - before)
    _assert_modes_agree(body)
    assert generic["batched"] == 164


def test_load_ring_dram_rotation_over_ring_larger_than_l3():
    """A ring with more lines than L3 holds misses to DRAM on every
    probe, rotation after rotation: the verified DRAM run serves all
    but the first few probes (which fill the idle tracker slots)."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64 + 1808
        ring = machine.address_space.alloc_lines(n_lines, "huge-ring")
        machine.exec.load_ring(ring.base, 5, 7, 2 * n_lines + 99, n_lines)
    ex = _assert_modes_agree(body)
    assert ex.ring_generic_loads < 0.01 * ex.ring_verified_loads["mem"]
    assert ex.ring_folded_loads == 0


def test_load_ring_l2_hit_cold_walk():
    """The context-switch kernel walk: 32 probes a call over a 128-line
    cold set that fits L2 but not L1D, with an L1D-sized ring walked in
    between to evict it, so after the first rotation every walk is a
    run of L1D misses that hit L2."""
    def body(machine):
        cold = machine.address_space.alloc_lines(128, "kernel")
        ring = machine.address_space.alloc_lines(24, "ring")
        ex = machine.exec
        cursor = 0
        for _ in range(24):
            cursor = ex.load_ring(cold.base, cursor, 7, 32, 128)
            ex.load_ring(ring.base, 0, 7, 96, 24)
    ex = _assert_modes_agree(body)
    assert ex.ring_verified_loads["l2"] > 500
    assert ex.ring_folded_loads > 0


def test_load_ring_tracker_matches_mid_segment():
    """A tracker whose last line sits one below a line probed in the
    middle of a segment: the walk runs the verified prefix, sends that
    probe alone through the generic walk, and proves again from the
    next one."""
    def body(machine):
        ring = machine.address_space.alloc_lines(512, "ring")
        ex = machine.exec
        cursor = ex.load_ring(ring.base, 0, 97, 512, 512)  # warm L3
        for k in (100, 250):
            target = (cursor + (k + 1) * 97) % 512
            machine.load(ring.line(target) - 64)
            cursor = ex.load_ring(ring.base, cursor, 97, 300, 512)
    ex = _assert_modes_agree(body)
    assert ex.ring_verify_failed["tracker"] >= 2
    assert ex.ring_verified_loads["l3"] > 400


def test_load_ring_moving_slot_after_hit_run():
    """Stride 7 over 24 lines probes line 0, then six other lines, then
    line 1.  With those six L1D-resident (stored, so the prefetcher
    never saw them), the miss on line 1 extends the stream the miss on
    line 0 restarted, though the two are not consecutive probes.  The
    six hits each go alone through the generic walk."""
    def body(machine):
        far = machine.address_space.alloc_lines(64, "far")
        for i in range(0, 64, 8):
            machine.load(far.line(i))  # no idle tracker slot left
        ring = machine.address_space.alloc_lines(24, "ring")
        for pos in (7, 14, 21, 4, 11, 18):
            machine.store(ring.line(pos))
        machine.exec.load_ring(ring.base, 17, 7, 48, 24)
    ex = _assert_modes_agree(body)
    assert ex.ring_verify_failed["tracker"] >= 1
    assert ex.ring_verify_failed["l1_hit"] >= 6


def test_load_ring_dirty_victims_at_every_level():
    """Stores leave dirty lines in L1D, L2 and L3; a DRAM ring walk then
    evicts them at all three levels, and every write-back cascade must
    match."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64 + 2048
        dirty = machine.address_space.alloc_lines(n_lines, "dirty")
        ring = machine.address_space.alloc_lines(n_lines, "ring")
        for i in range(0, n_lines, 2):
            machine.store(dirty.line(i))
        machine.exec.load_ring(ring.base, 0, 7, n_lines, n_lines)
    ex = _assert_modes_agree(body)
    assert ex.ring_verified_loads["mem"] > 0
    assert ex.cpu.counters.n_writeback > 0


# ------------------------------------------------------------ off-grid timing

#: Timing changes that put a price off the 1/256-cycle tick grid: the
#: DRAM latency of each preset at its P-states, and an issue width.
#: 60.15625 ns is on the grid at 1.0 GHz and at the initial 3.6 GHz but
#: not at 0.9 GHz: the machine prices every P-state of its table when
#: it is built, so a later ``set_pstate`` never fails.
OFF_GRID = {
    "intel-dram": ("intel", {"dram_lat_ns": 60.1}),
    "intel-dram-one-pstate": ("intel", {"dram_lat_ns": 60.15625}),
    "arm-dram": ("arm", {"dram_lat_ns": 33.3}),
    "issue-width": ("intel", {"load_issue": 0.3}),
}


@pytest.mark.parametrize("case", sorted(OFF_GRID))
def test_off_grid_timing_rejected_at_construction(case):
    """Cycle ticks are ints, so no executor carries a fallback for
    prices off the tick grid: such a config fails when its
    ``TimingConfig`` or ``Machine`` is built, before any micro-op."""
    preset, change = OFF_GRID[case]
    base = PRESETS[preset]()
    with pytest.raises(ConfigError, match="1/256 cycle"):
        config = dataclasses.replace(
            base, timing=dataclasses.replace(base.timing, **change))
        Machine(config)


def _fractional_dram_intel():
    """``tiny_intel`` with DRAM at 60 + 5/16 ns: 6k + k/32 cycles at
    k / 10 GHz, so it and its exposed share (1/8 of the latency) are
    whole numbers of ticks at every P-state of the table, yet a fraction
    of a cycle at all of them but 3.2 GHz (217.125 cycles at 3.6 GHz)."""
    base = tiny_intel()
    return dataclasses.replace(
        base, timing=dataclasses.replace(base.timing, dram_lat_ns=60.3125))


def test_load_ring_off_grid_dram_latency_never_folds():
    """A DRAM latency off the tick grid never reaches a ring walk: its
    config fails when the machine is built.  A DRAM price that is a
    fraction of a cycle but on the grid sums exactly in ticks, so the
    L1D-resident ring whose first rotation missed to DRAM folds, and
    both modes agree."""
    base = tiny_intel()
    with pytest.raises(ConfigError, match="1/256 cycle"):
        Machine(dataclasses.replace(
            base, timing=dataclasses.replace(base.timing, dram_lat_ns=60.1)))

    def body(machine):
        ring = machine.address_space.alloc_lines(24, "ring")
        for _ in range(3):
            machine.exec.load_ring(ring.base, 0, 7, 24 * 50, 24)
    ex = _assert_modes_agree(body, _fractional_dram_intel())
    # 150 rotations: the first of each call takes the generic walk, the
    # other 147 fold.
    assert ex.ring_generic_loads == 3 * 24
    assert ex.ring_folded_loads == 147 * 24


def test_timing_on_grid_at_every_table_pstate_accepted():
    """Only the P-states of the machine's own table are priced: 425/7 ns
    is 42.5 cycles at the ARM preset's one P-state (0.7 GHz), though
    off the grid at 1.0 GHz."""
    base = tiny_arm()
    config = dataclasses.replace(
        base, timing=dataclasses.replace(base.timing, dram_lat_ns=425 / 7))
    lat_mem = base.timing.lat_l3 + 42.5
    assert Machine(config).cpu._latency[LEVEL_MEM] == lat_mem * TICKS_PER_CYCLE


def test_ring_regimes_on_points_steady_state():
    """The serve ``points`` shape: per request, a 32-probe kernel walk
    over a cold set that fits L2, then rotations of a 24-line ring, with
    more ring lines in all than L3 holds.  In steady state each ring's
    first rotation misses to DRAM and the rest fold; the verified walks
    and folds must serve all but a few percent of the probes, so a path
    that silently stops engaging fails here by name."""
    n_rings = tiny_intel().l3.size // (64 * 24) + 60

    def body(machine):
        rings = [machine.address_space.alloc_lines(24, f"ring{i}")
                 for i in range(n_rings)]
        kernel = machine.address_space.alloc_lines(128, "kernel")
        ex = machine.exec
        cursor = 0
        for _ in range(2):
            for ring in rings:
                cursor = ex.load_ring(kernel.base, cursor, 7, 32, 128)
                ex.load_ring(ring.base, 0, 7, 24 * 3, 24)
    ex = _assert_modes_agree(body)
    verified = ex.ring_verified_loads
    assert ex.ring_generic_loads < 0.05 * (sum(verified.values())
                                           + ex.ring_folded_loads)
    assert ex.ring_folded_loads == 2 * n_rings * 24 * 2
    assert verified["mem"] > 0.95 * 2 * n_rings * 24
    assert verified["l2"] > 0.9 * 2 * n_rings * 32


def test_load_run_regimes_on_a_small_scan():
    """Rows read through ``load_run`` with one memoised offsets tuple
    (three lines a row): the cold pass hands each row to the generic
    walk, the two warm passes and a rescan at another line offset are
    served by the optimistic L1D pass, and a row whose last line alone
    is cold sends that straggler to ``load_one``.  Each new ``(offsets,
    base mod line)`` pair is one memo miss."""
    row = (0, 8, 16, 72, 80, 136)

    def body(machine):
        ex = machine.exec
        buf = machine.address_space.alloc_lines(4 * 3, "rows")
        for _ in range(3):
            for r in range(4):
                ex.load_run(buf.base + 192 * r, row)
        tail = machine.address_space.alloc_lines(3, "tail")
        ex.load_run(tail.base, (0, 8, 72))
        ex.load_run(tail.base, row)
        ex.load_run(buf.base + 8, row)
    ex = _assert_modes_agree(body)
    assert (ex.run_l1_calls, ex.run_straggler_calls,
            ex.run_generic_calls, ex.run_memo_misses) == (9, 1, 5, 3)


def test_load_run_tcm_runs_count_as_generic():
    """Runs inside the TCM window and runs straddling either of its
    edges take the generic walk word by word, in reference order, and
    count as generic calls."""
    row = (0, 8, 16, 72, 80, 136)

    def body(machine):
        ex = machine.exec
        buf = machine.address_space.alloc_lines(16, "rows")
        machine.hierarchy.tcm_region = Region(
            base=buf.base + 4 * 64, size=8 * 64, label="tcm")
        ex.load_run(buf.base + 4 * 64, row, True)   # inside
        ex.load_run(buf.base + 2 * 64, row)         # lower edge
        ex.load_run(buf.base + 10 * 64, row, True)  # upper edge
    ex = _assert_modes_agree(body)
    assert (ex.run_l1_calls, ex.run_straggler_calls,
            ex.run_generic_calls) == (0, 0, 3)


def test_per_op_regimes_on_a_small_program():
    """``Machine.load``/``Machine.store`` in batched mode: cold loads and
    a write-allocate miss go to ``Cpu``; a line evicted from L1D by
    ``assoc`` loads to its set comes back from L2 inline; a reload and a
    store to a resident line are inline L1D hits."""
    def body(machine):
        l1 = machine.hierarchy.l1d
        n_sets = l1._set_mask + 1
        buf = machine.address_space.alloc_lines(n_sets * (l1.assoc + 1),
                                                "one-set")
        same_set = [buf.line(i * n_sets) for i in range(l1.assoc + 1)]
        for addr in same_set:
            machine.load(addr)           # cold; the last evicts the first
        machine.load(same_set[0])        # L2 hit, evicts same_set[1]
        machine.load(same_set[0], True)  # L1D hit
        machine.store(same_set[0])       # L1D hit
        machine.store(same_set[1])       # write-allocate from L2
    ex = _assert_modes_agree(body)
    ways = ex.cpu.hierarchy.l1d.assoc
    assert (ex.one_l1_loads, ex.one_l2_loads,
            ex.one_generic_loads) == (1, 1, ways + 1)
    assert (ex.store_l1_stores, ex.store_generic_stores) == (1, 1)


def test_load_ring_cursor_matches_reference():
    """Both executors must report the same final cursor for the same
    walk (the fold must not desynchronise the cursor)."""
    for stride, count, n_lines in ((7, 2401, 24), (97, 300, 512),
                                   (6, 100, 24), (0, 10, 16)):
        cursors = {}
        for mode in ("reference", "batched"):
            machine = Machine(tiny_intel(), exec_mode=mode)
            ring = machine.address_space.alloc_lines(n_lines, "ring")
            cursors[mode] = machine.exec.load_ring(
                ring.base, 1, stride, count, n_lines)
        assert cursors["reference"] == cursors["batched"]


#: Ring regions of the generated programs, in lines: they fit L1D, L2
#: and L3 of ``tiny_intel``, and the last one is larger than L3.
_RING_REGIONS = (24, 100, 600, 9000)

_RING_PROGRAMS = st.lists(st.one_of(
    st.tuples(st.just("ring"), st.integers(0, 3), st.integers(0, 9999),
              st.integers(0, 9999), st.integers(0, 20000),
              st.integers(1, 400)),
    st.tuples(st.just("stores"), st.integers(0, 3), st.integers(0, 8999),
              st.integers(1, 99), st.integers(1, 64)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("pf"), st.booleans()),
    st.tuples(st.just("threshold"), st.integers(2, 3)),
    st.tuples(st.just("pstate"), st.integers(8, 36)),
), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_RING_PROGRAMS)
def test_generated_ring_programs(program):
    """Random ``load_ring`` geometries (ring size, cursor, stride,
    count) interleaved with strided store runs (dirty,
    L1D-resident lines the prefetcher never saw), flushes, prefetcher
    toggles, train thresholds and P-state switches, against the
    reference executor."""
    def body(machine):
        regions = [machine.address_space.alloc_lines(n, f"ring{i}")
                   for i, n in enumerate(_RING_REGIONS)]
        for op in program:
            kind = op[0]
            if kind == "ring":
                _, r, n, cursor, stride, count = op
                n_lines = 1 + n % _RING_REGIONS[r]
                machine.exec.load_ring(regions[r].base, cursor % n_lines,
                                       stride % (2 * n_lines + 2), count,
                                       n_lines)
            elif kind == "stores":
                _, r, start, step, n = op
                for i in range(n):
                    line = (start + i * step) % _RING_REGIONS[r]
                    machine.store(regions[r].line(line))
            elif kind == "flush":
                machine.hierarchy.flush()
            elif kind == "pf":
                machine.set_prefetcher(op[1])
            elif kind == "threshold":
                machine.prefetcher.train_threshold = op[1]
            else:
                machine.set_pstate(op[1])
    _assert_modes_agree(body)


def _chain(machine: Machine, n_lines: int, label: str) -> list:
    """A shuffled pointer chain over ``n_lines`` fresh lines, the shape
    the calibration benchmarks walk — with the prefetcher off, as they
    run (its stream trackers never settle on a shuffled chain)."""
    machine.set_prefetcher(False)
    region = machine.address_space.alloc_lines(n_lines, label)
    return [region.line(i) for i in shuffled_chain_order(n_lines, seed=5)]


@pytest.mark.parametrize("dependent", (True, False))
@pytest.mark.parametrize("n_lines", (200, 2000, 12000))
def test_list_replay_repeated_chains(n_lines, dependent):
    """Chains reaching L2, L3 and DRAM, walked round after round: once
    a round is verified as a fixed point the batched executor replays
    whole rounds, which must match per-op execution bit for bit."""
    def body(machine):
        addrs = _chain(machine, n_lines, "chain")
        for _ in range(6):
            machine.exec.load_list(addrs, dependent)
            machine.cmp(1)
    ex = _assert_modes_agree(body)
    assert ex.list_replays >= 3
    assert ex.list_replayed_loads == ex.list_replays * n_lines


def test_list_replay_interleaved_chains():
    """An L1D-resident chain alternating with an L2-resident one (the
    B_L1D_list_L2 shape), then the second chain on its own."""
    def body(machine):
        a = _chain(machine, 24, "l1-chain")
        b = _chain(machine, 200, "l2-chain")
        for _ in range(5):
            machine.exec.load_list(a, True)
            machine.exec.load_list(b, True)
        for _ in range(4):
            machine.exec.load_list(b, True)
    assert _assert_modes_agree(body).list_replays >= 2


def test_list_replay_sees_in_place_mutation():
    """The same list object, changed in place between calls, must be
    walked again rather than replayed — including a change to an
    address above 2**32, which needs the 8-byte key."""
    def body(machine):
        addrs = _chain(machine, 2000, "chain")
        other = machine.address_space.alloc_lines(64, "other")
        for i in range(8):
            if i == 4:
                addrs[7] = other.line(3)
            if i == 6:
                addrs.append(other.line(9) + (1 << 32))
            machine.exec.load_list(addrs, True)
    assert _assert_modes_agree(body).list_replays == 2


def test_list_replay_across_pstate_changes():
    """A P-state change reprices DRAM latency without touching cache
    state; the memo is keyed on the latencies, so it must re-walk."""
    def body(machine):
        addrs = _chain(machine, 12000, "chain")
        for pstate in (36, 36, 36, 12, 12, 12, 36, 36):
            machine.set_pstate(pstate)
            machine.exec.load_list(addrs, True)
    assert _assert_modes_agree(body).list_replays == 2


def test_list_replay_across_prefetcher_toggles():
    """A sequential chain trains the prefetcher when it is on (its
    prefetch fills forbid replay) and replays when it is off."""
    def body(machine):
        region = machine.address_space.alloc_lines(600, "seq")
        addrs = [region.line(i) for i in range(600)]
        for enabled in (False, False, False, True, True, True, False, False):
            machine.set_prefetcher(enabled)
            machine.exec.load_list(addrs, True)
    _assert_modes_agree(body)


def test_list_replay_chain_overlapping_tcm():
    """TCM addresses inside the chain bypass the caches; moving the TCM
    window away between rounds must force a re-walk."""
    def body(machine):
        addrs = _chain(machine, 400, "chain")
        first = min(addrs)
        machine.hierarchy.tcm_region = Region(
            base=first + 100 * 64, size=32 * 64, label="tcm")
        for _ in range(4):
            machine.exec.load_list(addrs, True)
        machine.hierarchy.tcm_region = None
        for _ in range(3):
            machine.exec.load_list(addrs, True)
    assert _assert_modes_agree(body).list_replays >= 3


def test_list_replay_with_dirty_lines_resident():
    """Store-dirtied chain lines write back as the first rounds evict
    them; rounds with write-backs are never accepted as fixed points."""
    def body(machine):
        addrs = _chain(machine, 2000, "chain")
        for a in addrs[::7]:
            machine.store(a)
        for _ in range(5):
            machine.exec.load_list(addrs, True)
        machine.store(addrs[3])
        for _ in range(4):
            machine.exec.load_list(addrs, True)
    ex = _assert_modes_agree(body)
    assert ex.list_replays >= 1


def test_list_replay_falls_back_on_non_dyadic_prices():
    """A DRAM latency off the tick grid fails when the machine is built,
    so no executor needs an inexact fallback.  A DRAM price that is a
    fraction of a cycle but on the grid sums exactly in ticks, so the
    rounds after the first fixed point are replayed."""
    base = tiny_intel()
    with pytest.raises(ConfigError, match="1/256 cycle"):
        Machine(dataclasses.replace(
            base, timing=dataclasses.replace(base.timing, dram_lat_ns=60.1)))

    def body(machine):
        addrs = _chain(machine, 12000, "chain")
        for _ in range(5):
            machine.exec.load_list(addrs, True)
    ex = _assert_modes_agree(body, _fractional_dram_intel())
    assert ex.list_replays == 3
    assert ex.list_verify_failed == {}


def test_list_memo_cleared_by_exec_mode_round_trip():
    """Reference-mode loads evict the chain without bumping the
    mutation epoch; switching back to batched must not replay."""
    def body(machine):
        mode = machine.exec_mode
        addrs = _chain(machine, 24, "chain")
        thrash = machine.address_space.alloc_lines(64, "thrash")
        for _ in range(3):
            machine.exec.load_list(addrs, True)
        # Evict the chain with per-op reference loads.
        machine.set_exec_mode("reference")
        machine.scan_lines(thrash.base, 64)
        machine.set_exec_mode(mode)
        for _ in range(3):
            machine.exec.load_list(addrs, True)
    _assert_modes_agree(body)


# ------------------------------------------------------------ probe chains

def _walk_chains(machine: Machine, addrs: list, length: int,
                 ops=probe_ops) -> None:
    """``length``-probe chains over ``addrs``; ``ops(n)`` gives a chain
    of ``n`` probes its compute ops."""
    for i in range(0, len(addrs), length):
        chain = addrs[i:i + length]
        machine.load_chain(chain, ops(len(chain)))


@pytest.mark.parametrize("n_lines, level", ((16, "l1d_hits"),
                                            (200, "l2_hits"),
                                            (4000, "l3_hits"),
                                            (20000, "n_mem")))
def test_load_chain_served_at_every_level(n_lines, level):
    """Shuffled chains over working sets that fit L1D, L2, L3 and none
    of them, walked three times in 8-probe chains: the second and third
    walks are served at the named level."""
    def body(machine):
        addrs = _chain(machine, n_lines, "chain")
        for _ in range(3):
            _walk_chains(machine, addrs, 8)
    ex = _assert_modes_agree(body)
    assert ex.chain_loads == 3 * n_lines
    assert ex.chain_walks == 3 * -(-n_lines // 8)
    assert getattr(ex.cpu.counters, level) >= 2 * n_lines * 0.9
    assert ex.cpu.counters.n_cmp == ex.cpu.counters.n_branch == 3 * n_lines


def test_load_chain_dirty_victims_mid_chain():
    """Store-dirtied lines pushed out of L1D and then L2 by the chains:
    the write-backs cascade through ``_fill_l2``/``_fill_l3`` mid-walk."""
    seen = {}

    def body(machine):
        addrs = _chain(machine, 600, "chain")
        for a in addrs[::3]:
            machine.store(a)
        l1, l2 = machine.hierarchy.l1d, machine.hierarchy.l2
        before = (l1.dirty_evictions, l2.dirty_evictions)
        _walk_chains(machine, addrs, 10)
        seen[machine.exec_mode] = (l1.dirty_evictions - before[0],
                                   l2.dirty_evictions - before[1])
    _assert_modes_agree(body)
    assert seen["reference"] == seen["batched"]
    assert min(seen["batched"]) > 0


def test_load_chain_trains_a_prefetcher_stream():
    """Chains of consecutive cold lines train a stream; its prefetches
    fill L2 and L3 between the chain's own probes."""
    def body(machine):
        region = machine.address_space.alloc_lines(400, "seq")
        _walk_chains(machine, [region.line(i) for i in range(400)], 8,
                     lambda n: lookup_ops(0, n))
    ex = _assert_modes_agree(body)
    c = ex.cpu.counters
    assert ex.cpu.hierarchy.prefetcher.n_trained >= 1
    assert c.n_pf_l2 > 0 and c.n_pf_l3 > 0 and c.l2_hits > 0
    assert c.n_mul == c.n_add == c.n_cmp == 400


@pytest.mark.parametrize("preset", ("intel", "arm"))
def test_load_chain_btree_with_dtcm_top_levels(preset):
    """B-tree lookups, range scans and inserts over a tree whose top
    levels sit in DTCM: every TCM probe keeps its own exact path."""
    config = dataclasses.replace(PRESETS[preset](),
                                 tcm=TcmConfig(size=8 * 1024))

    def body(machine):
        tree = BTree(machine, "t", payload_bytes=8, node_bytes=256)
        tree.bulk_load([(k, k) for k in range(0, 3000, 3)])
        assert tree.relocate_top_levels(machine.tcm, 2048) >= 1
        rng = random.Random(3)
        for _ in range(200):
            key = rng.randrange(3000)
            tree.search(key)
            list(tree.range_scan(key, key + 12))
            tree.insert(key, key)
    ex = _assert_modes_agree(body, config)
    assert ex.cpu.counters.n_tcm_load > 0
    assert ex.chain_loads > 0


def test_load_chain_cycle_ticks_exact_past_2_to_52():
    """Past 2**52 cycles a float sum of half-cycle adds would round and
    depend on the order of the adds; tick sums are ints, exact in any
    order.  Both modes must add exactly the hand-summed ticks: per
    probe, a dependent L1D hit at an odd latency plus its mul, add and
    cmp issue slots."""
    base = tiny_intel()
    config = dataclasses.replace(
        base, timing=dataclasses.replace(base.timing, lat_l1=5))
    start = (2 ** 52 + 1) * TICKS_PER_CYCLE
    added = {}

    def body(machine):
        region = machine.address_space.alloc_lines(16, "chain")
        machine.scan_lines(region.base, 16)
        c = machine.cpu.counters
        c.cycle_ticks = c.stall_ticks = start
        for _ in range(3):
            _walk_chains(machine, [region.line(i) for i in range(16)], 8,
                         lambda n: lookup_ops(0, n))
        added[machine.exec_mode] = (c.cycle_ticks - start,
                                    c.stall_ticks - start)
    _assert_modes_agree(body, config)
    t = config.timing
    probe = 5 + t.mul_issue + t.alu_issue + t.cmp_issue
    expected = (48 * probe * TICKS_PER_CYCLE, 48 * 4 * TICKS_PER_CYCLE)
    assert added["reference"] == added["batched"] == expected


def test_load_chain_empty():
    """An empty chain with zero-count ops charges nothing."""
    def body(machine):
        machine.load_chain([])
        machine.load_chain((), lookup_ops(0, 0))
    ex = _assert_modes_agree(body)
    assert ex.chain_walks == ex.chain_loads == 0
    assert ex.cpu.counters.instructions == 0


@pytest.mark.parametrize("exit_at", (1, 2, None))
def test_bloom_probe_chain_stops_at_first_unset_bit(exit_at):
    """A bloom probe walks the hashes up to and including the first
    unset bit (``exit_at``; None when every bit is set), and its chain
    charges one hash per load."""
    answers = {}

    def first_unset(bloom, key):
        for i, position in enumerate(bloom._positions(key), 1):
            if position not in bloom._bits:
                return i
        return None

    def body(machine):
        bloom = BloomFilter(machine, 64)
        for key in range(0, 640, 10):
            bloom.add(key)
        key = next(k for k in range(1, 10 ** 5)
                   if first_unset(bloom, k) == exit_at)
        machine.reset_measurements()
        addrs = []
        answers[machine.exec_mode] = bloom.probe(key, addrs)
        machine.load_chain(addrs, lookup_ops(0, len(addrs)))
    ex = _assert_modes_agree(body)
    assert answers["reference"] == answers["batched"] == (exit_at is None)
    probes = exit_at or 2
    c = ex.cpu.counters
    assert (c.n_mul, c.n_add, c.n_cmp, c.n_load_inst) == (probes,) * 4


def test_sstable_get_charges_the_chain_then_the_value():
    """An LSM get that hits a run charges one chain — bloom probes,
    then the run's search — and then the value bytes; a miss that
    passes the bloom filter charges its whole chain."""
    chains = {}

    def body(machine):
        store = LsmStore(machine, value_bytes=64, memtable_entries=1000)
        for key in range(0, 400, 2):
            store.put(key, f"v{key}")
        store.flush()
        bloom = store.sstables[0].bloom
        absent = next(k for k in range(1, 10 ** 5, 2)
                      if all(p in bloom._bits for p in bloom._positions(k)))
        machine.reset_measurements()
        ex = machine.exec
        before = (getattr(ex, "chain_walks", 0), getattr(ex, "chain_loads", 0))
        assert store.get(124) == "v124"
        assert store.get(absent) is None
        chains[machine.exec_mode] = (
            getattr(ex, "chain_walks", 0) - before[0],
            getattr(ex, "chain_loads", 0) - before[1])
    ex = _assert_modes_agree(body)
    walks, loads = chains["batched"]
    # One chain per get, each with a two-probe bloom prefix.
    assert walks == 2
    assert ex.cpu.counters.n_mul == 4
    # Beyond the chains: 60 engine-state loads per get, and the hit's
    # 64 value bytes as eight word loads.
    assert ex.cpu.counters.n_load_inst == loads + 2 * 60 + 8


_KV_PROGRAMS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 999)),
    st.tuples(st.just("get"), st.integers(0, 1099)),
    st.tuples(st.just("search"), st.integers(0, 1099)),
    st.tuples(st.just("range"), st.integers(0, 999), st.integers(0, 40)),
    st.tuples(st.just("insert"), st.integers(0, 999)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("relocate"), st.booleans(), st.integers(0, 8192)),
    st.tuples(st.just("pf"), st.booleans()),
    st.tuples(st.just("pstate"), st.integers(8, 36)),
), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_KV_PROGRAMS)
def test_generated_btree_and_lsm_programs(program):
    """Random ``BTree``/``LsmStore`` programs — puts, gets, lookups,
    range scans, inserts, flushes, compactions, DTCM relocation of the
    tree or the memtable, prefetcher toggles and P-state switches — on
    a full hierarchy with a DTCM window, against the reference
    executor."""
    config = dataclasses.replace(tiny_intel(), tcm=TcmConfig(size=8 * 1024))

    def body(machine):
        tree = BTree(machine, "t", payload_bytes=8, node_bytes=256)
        tree.bulk_load([(k, k) for k in range(0, 1000, 2)])
        store = LsmStore(machine, value_bytes=32, memtable_entries=48,
                         l0_fanout=2)
        for key in range(0, 1000, 7):
            store.put(key, key)
        for op in program:
            kind = op[0]
            if kind == "put":
                store.put(op[1], op[1])
            elif kind == "get":
                store.get(op[1])
            elif kind == "search":
                tree.search(op[1])
            elif kind == "range":
                list(tree.range_scan(op[1], op[1] + op[2]))
            elif kind == "insert":
                tree.insert(op[1], op[1])
            elif kind == "flush":
                store.flush()
            elif kind == "compact":
                store.compact()
            elif kind == "relocate":
                machine.tcm.free_all()
                target = tree if op[1] else store._memtable
                target.relocate_top_levels(machine.tcm, op[2])
            elif kind == "pf":
                machine.set_prefetcher(op[1])
            else:
                machine.set_pstate(op[1])
    _assert_modes_agree(body, config)


#: ``(chain_walks, chain_loads)`` of the seeded kv serve run below.
KV_CHAIN_REGIMES = (3814, 48855)


def test_chain_regimes_on_kv_serve_run(monkeypatch):
    """The serve ``kv`` shape: every B-tree descent and every LSM get
    — memtable path, bloom probes and run searches — is one
    ``load_chain``, so the lookup paths make no ``Machine.load`` call
    at all."""
    from repro.serve import ServeConfig, run_serve

    routed = {fn.__code__ for fn in (
        BTree.walk, BTree._probes, BTree._lookup, BTree.search,
        BTree.update_payload, BTree.insert, BTree._leftmost_leaf,
        BloomFilter.probe, SSTable.probe, LsmStore.get)}
    executors = []
    stray = []
    init = BatchExecutor.__init__
    load_one = BatchExecutor.load_one

    def tracking_init(self, cpu):
        init(self, cpu)
        executors.append(self)

    def counting_load_one(self, addr, dependent=False):
        if sys._getframe(1).f_code in routed:
            stray.append(sys._getframe(1).f_code.co_name)
        return load_one(self, addr, dependent)

    monkeypatch.setattr(BatchExecutor, "__init__", tracking_init)
    monkeypatch.setattr(BatchExecutor, "load_one", counting_load_one)
    run_serve(ServeConfig(workload="kv", queries=24, clients=6, tenants=2,
                          cores=4, mpl=2, seed=7))
    assert stray == []
    walks = sum(ex.chain_walks for ex in executors)
    loads = sum(ex.chain_loads for ex in executors)
    assert (walks, loads) == KV_CHAIN_REGIMES


def test_exec_mode_knob():
    machine = Machine(tiny_intel(), exec_mode="reference")
    assert machine.exec_mode == "reference"
    machine.set_exec_mode("batched")
    assert machine.exec.mode == "batched"
    with pytest.raises(Exception):
        machine.set_exec_mode("warp")
