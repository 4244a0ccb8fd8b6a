"""Unit tests for the buffer pool (LRU, disk, frame recycling)."""

import pytest

from repro.db.bufferpool import BufferPool
from repro.db.pagestore import PagedFile
from repro.db.types import Column, INT, Schema
from repro.errors import ConfigError


def make_file(machine, n_rows=2000, page_size=1024, file_id=1):
    schema = Schema([Column("k", INT), Column("v", INT)])
    f = PagedFile(file_id, schema, page_size)
    f.append_rows([(i, i) for i in range(n_rows)])
    return f


class TestFetch:
    def test_miss_then_hit(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.fetch(f, 0)
        assert pool.misses == 1 and pool.hits == 1

    def test_miss_costs_disk_time(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        assert machine.idle_s > 0

    def test_hit_costs_no_disk(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        idle = machine.idle_s
        pool.fetch(f, 0)
        assert machine.idle_s == idle

    def test_frame_rows_match_file(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        frame = pool.fetch(f, 2)
        assert list(frame.rows) == list(f.page(2))

    def test_lru_eviction(self, machine):
        pool = BufferPool(machine, 2 * 1024, 1024)  # 2 frames
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.fetch(f, 1)
        pool.fetch(f, 2)  # evicts page 0
        assert not pool.contains(f, 0)
        assert pool.contains(f, 1) and pool.contains(f, 2)

    def test_recycled_frame_is_cold(self, machine):
        """New page in a reused frame must not hit stale cache lines."""
        pool = BufferPool(machine, 1024, 1024)  # 1 frame
        f = make_file(machine)
        frame = pool.fetch(f, 0)
        machine.load(frame.region.base)      # warm a line of the frame
        pool.fetch(f, 1)                     # recycles the only frame
        frame2 = pool.fetch(f, 1)
        machine.reset_measurements()
        level = machine.load(frame2.region.base)
        assert level > 1  # not an L1 hit: the DMA invalidated it

    def test_two_files_coexist(self, machine):
        pool = BufferPool(machine, 4 * 1024, 1024)
        f1 = make_file(machine, file_id=1)
        f2 = make_file(machine, file_id=2)
        pool.fetch(f1, 0)
        pool.fetch(f2, 0)
        assert pool.contains(f1, 0) and pool.contains(f2, 0)

    def test_clear(self, machine):
        pool = BufferPool(machine, 4 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.clear()
        assert not pool.contains(f, 0)
        pool.fetch(f, 0)
        assert pool.misses == 2

    def test_hit_rate(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.fetch(f, 0)
        pool.fetch(f, 0)
        assert pool.hit_rate() == pytest.approx(2 / 3)

    def test_invalid_geometry(self, machine):
        with pytest.raises(ConfigError):
            BufferPool(machine, 100, 1024)


class TestPoolStats:
    def test_snapshot_matches_live_counters(self, machine):
        pool = BufferPool(machine, 2 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.fetch(f, 0)
        pool.fetch(f, 1)
        pool.fetch(f, 2)  # recycles a frame
        snap = pool.stats()
        assert snap.hits == pool.hits == 1
        assert snap.misses == pool.misses == 3
        assert snap.recycles == pool.recycles == 1
        assert snap.accesses == 4

    def test_snapshot_does_not_reset_counters(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        pool.stats()
        assert pool.misses == 1  # stats() is pure

    def test_delta_since_snapshot(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        f = make_file(machine)
        pool.fetch(f, 0)
        base = pool.stats()
        pool.fetch(f, 0)
        pool.fetch(f, 1)
        delta = pool.stats_since(base)
        assert (delta.hits, delta.misses) == (1, 1)
        assert delta.hit_rate() == pytest.approx(0.5)

    def test_snapshot_is_immutable(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        snap = pool.stats()
        with pytest.raises(AttributeError):
            snap.hits = 99

    def test_empty_delta_hit_rate(self, machine):
        pool = BufferPool(machine, 8 * 1024, 1024)
        assert pool.stats().hit_rate() == 0.0


class TestInterleavedScans:
    """Regression: eviction order with two scans sharing a 2-frame pool.

    Scan A walks pages 0,1,2; scan B walks pages 3,4,5; the pulls
    alternate A,B,A,B,...  Every fetch must recycle the other scan's
    frame (pure LRU), so all six accesses miss and the final residents
    are the last two pages touched.  A pool that pinned per-scan frames
    or evicted MRU would break these counts.
    """

    def test_alternating_scans_thrash_lru(self, machine):
        pool = BufferPool(machine, 2 * 1024, 1024)
        f = make_file(machine, n_rows=2000)
        order = []
        for a_page, b_page in zip((0, 1, 2), (3, 4, 5)):
            pool.fetch(f, a_page)
            pool.fetch(f, b_page)
            order.append((a_page, b_page))
        assert pool.misses == 6 and pool.hits == 0
        assert pool.recycles == 4  # first two fetches fill empty frames
        assert pool.contains(f, 2) and pool.contains(f, 5)
        assert not any(pool.contains(f, p) for p in (0, 1, 3, 4))

    def test_interleaved_deltas_attribute_the_window(self, machine):
        pool = BufferPool(machine, 2 * 1024, 1024)
        f = make_file(machine, n_rows=2000)
        base_a = pool.stats()
        pool.fetch(f, 0)          # A
        base_b = pool.stats()
        pool.fetch(f, 3)          # B
        pool.fetch(f, 1)          # A
        delta_b = pool.stats_since(base_b)
        delta_a = pool.stats_since(base_a)
        assert delta_a.accesses == 3
        assert delta_b.accesses == 2
        # Snapshots taken at different times never interfere.
        assert delta_a.since(delta_b).accesses == 1
