"""Tests of the metrics registry and the built-in machine collectors."""

import math

import pytest

from repro import Machine, tiny_intel
from repro.errors import ConfigError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_series_name,
)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("hits", {})
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        g = Gauge("depth", {})
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5

    def test_histogram_buckets_are_cumulative_le(self):
        h = Histogram("lat", {}, buckets=[1.0, 10.0])
        for value in (0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(56.0)
        assert h.mean == pytest.approx(14.0)
        # bucket_counts are per-bucket here; +inf catches the overflow.
        assert h.bucket_counts == [2, 1, 1]

    def test_histogram_quantile(self):
        h = Histogram("lat", {}, buckets=[1.0, 10.0, 100.0])
        for value in (0.1,) * 9 + (50.0,):
            h.observe(value)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 100.0
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_empty_histogram_has_no_quantile(self):
        assert math.isnan(Histogram("lat", {}).quantile(0.5))


class TestRegistry:
    def test_same_series_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"k": "1"})
        b = reg.counter("x", {"k": "1"})
        c = reg.counter("x", {"k": "2"})
        assert a is b and a is not c

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_render_series_name(self):
        assert render_series_name("x", {}) == "x"
        assert render_series_name("x", {"b": "2", "a": "1"}) == "x{a=1,b=2}"

    def test_collectors_run_at_snapshot(self):
        reg = MetricsRegistry()
        state = {"n": 0}

        def collect():
            state["n"] += 1
            reg.gauge("live").set(state["n"])

        reg.add_collector(collect)
        assert reg.snapshot()["live"] == 1
        assert reg.snapshot()["live"] == 2

    def test_snapshot_renders_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        snap = reg.snapshot()["h"]
        assert snap["count"] == 1 and "+inf" in snap["buckets"]

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(2.0)
        text = reg.render()
        assert "a 1" in text and "count=1" in text


class TestMachineCollectors:
    def test_machine_exports_core_gauges(self, machine):
        region = machine.address_space.alloc(4096, "data")
        for i in range(region.n_lines):
            machine.load(region.base + i * 64)
        snap = machine.metrics.snapshot()
        assert snap["cache.hits{level=L1D}"] + snap["cache.misses{level=L1D}"] > 0
        assert 0.0 <= snap["cache.hit_rate{level=L1D}"] <= 1.0
        assert snap["clock.time_s"] == pytest.approx(machine.time_s)
        assert snap["rapl.package_j"] > 0
        assert snap["dvfs.pstate"] == machine.pstate

    def test_governor_transitions_counted(self):
        from repro.sim.dvfs import EistGovernor

        machine = Machine(tiny_intel())
        machine.set_pstate(8)
        machine.enable_eist(EistGovernor(table=machine.config.pstates,
                                         epoch_seconds=1e-6))
        region = machine.address_space.alloc_lines(8, "w")
        for _ in range(20_000):
            machine.load(region.base)
            machine.governor_tick()
            if machine.pstate == 36:
                break
        snap = machine.metrics.snapshot()
        assert snap["dvfs.governor.transitions{direction=up}"] >= 1

    def test_bufferpool_collector(self, machine):
        from repro.db.bufferpool import BufferPool
        from repro.db.pagestore import PagedFile
        from repro.db.types import Column, INT, Schema

        schema = Schema([Column("k", INT), Column("v", INT)])
        paged = PagedFile(1, schema, 1024)
        paged.append_rows([(i, i) for i in range(500)])
        pool = BufferPool(machine, 2 * 1024, 1024, label="test-pool")
        for page in range(min(paged.n_pages, 5)):
            pool.fetch(paged, page)
        pool.fetch(paged, 0)  # miss again: page 0 was recycled
        snap = machine.metrics.snapshot()
        assert snap["bufferpool.misses{pool=test-pool}"] == pool.misses
        assert snap["bufferpool.recycles{pool=test-pool}"] >= 1
        assert snap["bufferpool.resident_pages{pool=test-pool}"] == 2

    def test_prefetcher_stats_exported(self, machine):
        region = machine.address_space.alloc(1 << 16, "stream")
        for i in range(region.n_lines):
            machine.load(region.base + i * 64)
        snap = machine.metrics.snapshot()
        assert snap["prefetcher.streams_trained"] >= 1
        assert snap["prefetcher.l2_lines_issued"] > 0
