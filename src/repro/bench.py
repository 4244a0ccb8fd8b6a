"""Simulator performance harness behind ``repro bench``.

Measures how fast the *simulator itself* runs — micro-ops simulated per
wall-clock second, wall-seconds per TPC-H query, serve requests per
second — in both execution modes (``reference`` vs ``batched``), and
how many bytes a serve run holds per request, and writes the results
to ``BENCH_simperf.json`` at the repository root.  This is the
project's recorded performance trajectory and the CI regression gate
(see ``.github/workflows/ci.yml``, job ``bench-smoke``).

The headline metrics are the *scan paths*: ``scan_lines``, the
sequential line scan of the array micro-benchmarks.
``fig07_tpch_scan`` rescans one L1D-resident buffer, the regime the
scan-replay memo serves; ``fig08_datasize_scan`` repeats that at each
fig08 data tier (the section names are historical: the fig07/fig08
table scans read rows through ``load_run``, measured by
``row_load_run``); ``cold_stream_scan`` reports the DRAM-streaming
(all-miss) regime, where every scan takes the generic walk.  Query
wall-clock (Q1/Q6) and a serve run round out the picture.

Every throughput comparison first re-runs the workload in both modes on
one machine pair and asserts identical PMU counters — the bench refuses
to report a speedup that drifts.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.config import intel_i7_4790
from repro.sim.machine import Machine

#: Result schema version, bumped on layout changes.  v2 added the
#: ``schema_version`` stamp (``repro diff`` keys on it) and per-section
#: wall times in ``sections_wall_s``.  v3 added the ``optimizer``
#: section (measured optimizer-vs-hand-built energy gate).  v4 split
#: ``serve`` into ``tpch`` (plan-backed mix) and ``engine`` (the
#: ``points`` mix, where the serve core itself is the bottleneck) and
#: added the closed-loop ``serve_scale`` section.  v5 added the
#: ``cluster`` section (J/query and p99 across node counts and fault
#: rates, with the cluster-wide energy-conservation and cross-mode
#: identity gates).  v6 extended ``serve.tpch`` with the cross-mode and
#: run_rows-vs-next report-identity flags and gated the section (ratio
#: vs baseline plus the absolute :data:`SERVE_TPCH_MIN_SPEEDUP` floor).
#: The ``serve_memory`` section (bytes per request) and the
#: ``row_load_run.load_run_regimes`` split are additive and optional on
#: both sides of the gate, so they kept the v6 stamp.
SCHEMA_VERSION = 6

#: Absolute floor for the ``serve.tpch`` batched/reference speedup: the
#: batched-session path must never regress below the seed revision's
#: measured 1.22x, whatever the baseline file says.
SERVE_TPCH_MIN_SPEEDUP = 1.22

#: ``BatchExecutor.load_run`` call counters ``row_load_run`` records
#: from its batched run; together they count every call.
RUN_REGIMES = ("run_l1_calls", "run_straggler_calls", "run_generic_calls")

#: Least share of ``row_load_run``'s calls the optimistic L1D pass of
#: ``load_run`` must serve: the pass is kept for this shape alone.
RUN_L1_MIN_SHARE = 0.99

#: Default output file, at the repository root by convention.
DEFAULT_OUT = "BENCH_simperf.json"

#: fig08 data tiers (mirrors repro.analysis.experiments.fig08).
FIG08_TIERS = ("100MB", "500MB", "1GB")


# --------------------------------------------------------------- primitives

def _scan_machine(mode: str) -> tuple[Machine, int, int]:
    """A full-size (scale=1) machine plus an L1D-resident buffer base."""
    machine = Machine(intel_i7_4790(scale=1), exec_mode=mode)
    n_lines = (machine.hierarchy.l1d.size // 64) * 7 // 8
    base = machine.address_space.alloc_lines(n_lines, "bench-scan").base
    return machine, base, n_lines


#: Timing windows per measurement.  Short timed regions under-report
#: throughput (CPU frequency ramp, cold branch predictors), so each
#: primitive is timed as the best of WINDOWS equal slices — stable to
#: within a few percent across rep counts, which is what lets the CI
#: ``--quick`` run be gated against the committed full-run baseline.
WINDOWS = 5


def _warm_scan_mops(mode: str, reps: int) -> tuple[float, dict]:
    """Steady-state sequential scan: an L1D-resident buffer rescanned."""
    machine, base, n_lines = _scan_machine(mode)
    machine.scan_lines(base, n_lines)
    machine.scan_lines(base, n_lines)  # enter steady state in both modes
    per = max(1, reps // WINDOWS)
    best = 0.0
    for _ in range(WINDOWS):
        t0 = time.perf_counter()
        for _ in range(per):
            machine.scan_lines(base, n_lines)
        elapsed = time.perf_counter() - t0
        best = max(best, n_lines * per / elapsed)
    machine.settle()
    return best, machine.cpu.counters.as_dict()


def _cold_scan_mops(mode: str, reps: int) -> tuple[float, dict]:
    """Streaming scan over a buffer 4x the L3: every line misses."""
    machine = Machine(intel_i7_4790(scale=16), exec_mode=mode)
    n_lines = (machine.hierarchy.l3.size * 4) // 64
    base = machine.address_space.alloc_lines(n_lines, "bench-cold").base
    # One untimed pass: the very first scan mixes in one-off work
    # (prefetcher training from nothing, filling empty caches) that is
    # not the streaming regime.  After it, every rep still misses on
    # every line (the buffer is 4x the L3), which is the regime this
    # entry reports — and a 1-rep --quick run then measures the same
    # thing the full run's best-of-reps does, so the CI gate can
    # compare the two.
    machine.scan_lines(base, n_lines)
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        machine.scan_lines(base, n_lines)
        elapsed = time.perf_counter() - t0
        best = max(best, n_lines / elapsed)
    machine.settle()
    return best, machine.cpu.counters.as_dict()


def _row_load_run_mops(mode: str, rows: int,
                       regimes: Optional[dict] = None) -> tuple[float, dict]:
    """The table-scan row shape: one short load_run per row over a
    buffer-pool-resident page (the repro.db seq_scan inner loop).  A
    batched run writes its :data:`RUN_REGIMES` into ``regimes``."""
    machine = Machine(intel_i7_4790(scale=1), exec_mode=mode)
    base = machine.address_space.alloc_lines(64, "bench-page").base
    offsets = (0, 8, 16, 24, 40, 56)
    ex = machine.exec
    ex.load_run(base, offsets)  # fill the lines once
    per = max(1, rows // WINDOWS)
    best = 0.0
    done = 0
    for _ in range(WINDOWS):
        t0 = time.perf_counter()
        for i in range(done, done + per):
            ex.load_run(base + (i % 56) * 64, offsets)
        elapsed = time.perf_counter() - t0
        done += per
        best = max(best, per * len(offsets) / elapsed)
    if regimes is not None and mode == "batched":
        regimes.update((name, getattr(ex, name)) for name in RUN_REGIMES)
    machine.settle()
    return best, machine.cpu.counters.as_dict()


def _row_load_run(rows: int) -> dict:
    """The ``row_load_run`` entry: both modes compared, plus the batched
    run's ``load_run`` regime split."""
    regimes: dict = {}
    entry = _compare(
        lambda mode, n: _row_load_run_mops(mode, n, regimes), rows)
    entry["load_run_regimes"] = regimes
    return entry


def _compare(fn, reps: int) -> dict:
    """Run one primitive in both modes; assert zero counter drift."""
    ref_rate, ref_counters = fn("reference", reps)
    bat_rate, bat_counters = fn("batched", reps)
    if ref_counters != bat_counters:
        drifted = sorted(
            k for k in ref_counters
            if ref_counters[k] != bat_counters[k]
        )
        raise AssertionError(
            f"counter drift between exec modes: {drifted}"
        )
    return {
        "reference_mops": round(ref_rate / 1e6, 4),
        "batched_mops": round(bat_rate / 1e6, 4),
        "speedup": round(bat_rate / ref_rate, 2),
        "counters_identical": True,
    }


# ------------------------------------------------------------------ queries

def _tpch_seconds(tier: str, queries: tuple) -> dict:
    from repro.analysis.lab import Lab, LabConfig
    from repro.workloads.tpch import run_query

    out: dict = {}
    for mode in ("reference", "batched"):
        lab = Lab(LabConfig(scale=16, tier=tier, exec_mode=mode))
        db = lab.database("postgresql")
        for number in queries:
            run_query(db, number)  # warm the buffer pool and caches
            t0 = time.perf_counter()
            run_query(db, number)
            elapsed = time.perf_counter() - t0
            out.setdefault(f"Q{number}", {})[f"{mode}_s"] = round(elapsed, 4)
    for name, entry in out.items():
        entry["speedup"] = round(entry["reference_s"] / entry["batched_s"], 2)
    return out


def _serve_rps(queries: int) -> dict:
    from repro.db.engine import SessionRows
    from repro.serve import ServeConfig, run_serve

    def run(mode: str) -> tuple[dict, float]:
        config = ServeConfig(
            tier="10MB", queries=queries, clients=4, seed=7,
            exec_mode=mode,
        )
        t0 = time.perf_counter()
        report = run_serve(config)
        return report, time.perf_counter() - t0

    out: dict = {}
    canonical: dict = {}
    for mode in ("reference", "batched"):
        report, elapsed = run(mode)
        completed = report["counts"]["completed"]
        out[mode] = {
            "completed": completed,
            "wall_s": round(elapsed, 3),
            "requests_per_s": round(completed / elapsed, 2),
        }
        report.pop("config", None)
        canonical[mode] = json.dumps(report, sort_keys=True)
    out["speedup"] = round(
        out["batched"]["requests_per_s"] / out["reference"]["requests_per_s"],
        2,
    )
    # The speedup only counts if nothing observable moved: the whole
    # report (per-tenant joules, latencies, counters) must match across
    # engines byte for byte once the exec_mode config field is dropped.
    out["reports_identical"] = canonical["reference"] == canonical["batched"]
    # ...and across quantum protocols: hiding SessionRows.run_rows
    # forces the serve loop onto the legacy per-row __next__ quantum,
    # which must charge the exact same micro-ops.
    saved = SessionRows.run_rows
    try:
        del SessionRows.run_rows
        report, _ = run("batched")
    finally:
        SessionRows.run_rows = saved
    report.pop("config", None)
    out["run_rows_vs_next_identical"] = (
        json.dumps(report, sort_keys=True) == canonical["batched"]
    )
    return out


def _points_engine_rps(queries: int) -> dict:
    """Cross-mode serve run on the ``points`` mix: the engine headline.

    ``points`` requests are pure micro-ops whose work iterator speaks
    the batched-quantum protocol (``run_rows``), so this entry measures
    the serve core itself — event loop, admission, scheduling, spans —
    rather than plan interpretation.  Both modes must produce the exact
    same report once the ``exec_mode`` config field is dropped; that is
    the bit-identity contract extended to the whole serve report
    (per-tenant joules, latency percentiles, counters, everything).
    """
    from repro.serve import ServeConfig, run_serve

    out: dict = {}
    reports: dict = {}
    for mode in ("reference", "batched"):
        config = ServeConfig(
            workload="points", queries=queries, clients=8, seed=7,
            exec_mode=mode,
        )
        t0 = time.perf_counter()
        report = run_serve(config)
        elapsed = time.perf_counter() - t0
        reports[mode] = report
        completed = report["counts"]["completed"]
        out[mode] = {
            "completed": completed,
            "wall_s": round(elapsed, 3),
            "requests_per_s": round(completed / elapsed, 2),
            "quanta_per_s": round(report["clock"]["quanta"] / elapsed, 2),
        }
    for report in reports.values():
        del report["config"]["exec_mode"]
    if reports["reference"] != reports["batched"]:
        raise AssertionError(
            "serve report drift between exec modes on the points mix"
        )
    out["reports_identical"] = True
    out["speedup"] = round(
        out["batched"]["requests_per_s"] / out["reference"]["requests_per_s"],
        2,
    )
    return out


def _serve_scale(quick: bool) -> dict:
    """Closed-loop many-tenant scenario, batched engine only.

    The full run serves a million ``points`` requests from 2000 clients
    across 1000 tenants (8 cores, MPL 4, sampling telemetry) — the
    scale the event-driven core exists for.  The quick variant keeps
    the same shape at 50k requests so CI can gate requests/s against
    the committed full-run baseline (same steady-state regime, just a
    shorter window).  No reference-mode pair: a reference run at this
    scale would take hours; cross-mode identity is covered by the
    ``engine`` section and the equivalence test suite.
    """
    from repro.serve import ServeConfig, run_serve

    queries, clients, tenants = (
        (50_000, 400, 200) if quick else (1_000_000, 2000, 1000)
    )
    # Closed-loop clients park at most one request each in the queue,
    # so the bound sits just above the client count: real admission
    # pressure without shedding the steady state.
    config = ServeConfig(
        workload="points", mode="closed", queries=queries,
        clients=clients, tenants=tenants, cores=8, mpl=4,
        max_queue=clients + 112, telemetry="sampler", seed=7,
        exec_mode="batched",
    )
    t0 = time.perf_counter()
    report = run_serve(config)
    elapsed = time.perf_counter() - t0
    counts = report["counts"]
    return {
        "queries": queries,
        "clients": clients,
        "tenants": tenants,
        "completed": counts["completed"],
        "wall_s": round(elapsed, 3),
        "requests_per_s": round(counts["completed"] / elapsed, 2),
        "quanta_per_s": round(report["clock"]["quanta"] / elapsed, 2),
        "tenants_reported": len(report["tenants"]),
    }


def _traced_serve_bytes(queries: int, clients: int) -> tuple[int, int]:
    """Traced bytes a ``points`` run of the ``serve_scale`` shape holds
    above its start when :meth:`QueryServer.run` returns (live objects
    only), and at the peak of :func:`run_serve` (report included)."""
    import gc
    import tracemalloc

    from repro.serve import ServeConfig, run_serve
    from repro.serve.loop import QueryServer

    config = ServeConfig(
        workload="points", mode="closed", queries=queries,
        clients=clients, tenants=max(1, clients // 2), cores=8, mpl=4,
        max_queue=clients + 112, telemetry="sampler", seed=7,
    )
    run = QueryServer.run
    retained = []

    def traced_run(server):
        ledger = run(server)
        gc.collect()
        retained.append(tracemalloc.get_traced_memory()[0])
        return ledger

    gc.collect()
    tracemalloc.start()
    QueryServer.run = traced_run
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_serve(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        QueryServer.run = run
        tracemalloc.stop()
    return retained[0] - start, peak - start


def serve_memory(small: int = 2000, large: int = 8000,
                 clients: int = 40) -> dict:
    """Bytes per request a serve run holds: the tracemalloc growth from
    a ``small``- to a ``large``-request run of one shape, so the
    per-client and per-tenant base (rings, memos, tenant tables)
    cancels.  ``retained`` is counted when the event loop returns,
    ``peak`` over the whole run with report assembly.  Traced bytes
    count Python allocations, not the host's RSS, so the figures track
    the code, not the machine."""
    retained_small, peak_small = _traced_serve_bytes(small, clients)
    retained_large, peak_large = _traced_serve_bytes(large, clients)
    grown = large - small
    return {
        "queries": [small, large],
        "clients": clients,
        "retained_b_per_request": round(
            (retained_large - retained_small) / grown, 1),
        "peak_b_per_request": round((peak_large - peak_small) / grown, 1),
    }


#: Cluster bench cells: node counts x injected fault rates.  The
#: metrics are *simulated* joules and seconds — deterministic and
#: host-independent — so quick and full runs produce identical cells
#: and the committed baseline gates both exactly.
CLUSTER_NODE_COUNTS = (2, 4)
CLUSTER_FAULT_RATES = (0.0, 0.05)


def _cluster_section(quick: bool) -> dict:
    """Sharded scatter-gather cluster: J/query and p99 latency across
    node counts and fault rates, plus the conservation and cross-mode
    identity gates.

    Every cell asserts the cluster-wide energy-conservation identity
    (useful + wasted == active, exactly); the faulty 2-node cell is
    additionally run in both exec modes and the reports compared byte
    for byte (``exec_mode`` dropped) — the bit-identity contract
    extended to the whole cluster.
    """
    from repro.cluster import ClusterConfig, run_cluster
    from repro.faults import FaultPlan

    del quick  # same cells either way: the metrics are simulated time

    def config(nodes: int, rate: float, mode: str = "batched"):
        return ClusterConfig(
            nodes=nodes, replication=2, clients=4, queries=24,
            tier="10MB", seed=7, exec_mode=mode,
            faults=(FaultPlan(node_crash_p=rate, net_drop_p=rate)
                    if rate > 0.0 else None),
        )

    cells: dict = {}
    for nodes in CLUSTER_NODE_COUNTS:
        for rate in CLUSTER_FAULT_RATES:
            t0 = time.perf_counter()
            report = run_cluster(config(nodes, rate))
            elapsed = time.perf_counter() - t0
            energy = report["energy"]
            counts = report["counts"]
            active = energy["active_energy_j"]
            conserved = (energy["useful_energy_j"]
                         + energy["wasted_energy_j"] == active)
            cells[f"n{nodes}_f{rate:g}"] = {
                "nodes": nodes,
                "fault_rate": rate,
                "completed": counts["completed"],
                "degraded_partial": counts["degraded_partial"],
                "failed": counts["failed"],
                "energy_per_query_j": energy["energy_per_query_j"],
                "p99_s": report["latency_s"]["p99_s"],
                "wasted_share": (energy["wasted_energy_j"] / active
                                 if active else 0.0),
                "failovers": report["subrequests"]["failovers"],
                "hedges": report["subrequests"]["hedges"],
                "conservation_ok": conserved,
                "wall_s": round(elapsed, 3),
            }

    reports = {}
    for mode in ("reference", "batched"):
        report = run_cluster(config(2, CLUSTER_FAULT_RATES[-1], mode))
        del report["config"]["exec_mode"]
        reports[mode] = report
    return {
        "cells": cells,
        "reports_identical": reports["reference"] == reports["batched"],
    }


def _optimizer_section(quick: bool) -> dict:
    """Measured optimizer-vs-hand-built energy over TPC-H plans.

    Always runs at the 10MB tier (bench wall-clock budget); the quick
    variant covers the subset that exercises every pass family, the
    full one all 22 queries.  The summary is self-gated in
    :func:`check_regression`: any measured energy regression or result
    mismatch fails the bench outright.
    """
    from repro.workloads.tpch.optimize import run_optimizer_bench

    doc = run_optimizer_bench(quick=quick, tier="10MB")
    ratios = {
        engine: {
            name: round(entry["ratio"], 6)
            for name, entry in per_engine.items()
        }
        for engine, per_engine in doc["engines"].items()
    }
    return {"tier": doc["tier"], "summary": doc["summary"],
            "ratios": ratios}


# -------------------------------------------------------------------- entry

def run_bench(quick: bool = False) -> dict:
    """Run the full harness; returns the JSON-serialisable report."""
    warm_reps = 60 if quick else 400
    cold_reps = 1 if quick else 3
    rows = 20_000 if quick else 100_000
    walls: dict = {}

    def timed(section: str, fn):
        t0 = time.perf_counter()
        out = fn()
        walls[section] = round(time.perf_counter() - t0, 3)
        return out

    results = {
        "version": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "generated_unix": int(time.time()),
        "scan_path": {
            "fig07_tpch_scan": timed(
                "scan_path.fig07_tpch_scan",
                lambda: _compare(_warm_scan_mops, warm_reps)),
            "fig08_datasize_scan": {
                tier: timed(
                    f"scan_path.fig08.{tier}",
                    lambda: _compare(_warm_scan_mops, warm_reps // 2))
                for tier in FIG08_TIERS
            },
            "cold_stream_scan": timed(
                "scan_path.cold_stream_scan",
                lambda: _compare(_cold_scan_mops, cold_reps)),
        },
        "row_load_run": timed("row_load_run", lambda: _row_load_run(rows)),
        "tpch": timed("tpch", lambda: _tpch_seconds(
            "10MB" if quick else "100MB", (1, 6))),
        "serve": {
            "tpch": timed(
                "serve.tpch", lambda: _serve_rps(20 if quick else 120)),
            "engine": timed(
                "serve.engine",
                lambda: _points_engine_rps(200 if quick else 2000)),
        },
        "serve_scale": timed("serve_scale", lambda: _serve_scale(quick)),
        "serve_memory": timed("serve_memory", serve_memory),
        "cluster": timed("cluster", lambda: _cluster_section(quick)),
        "optimizer": timed("optimizer", lambda: _optimizer_section(quick)),
    }
    results["sections_wall_s"] = walls
    return results


def check_regression(current: dict, baseline: dict,
                     max_regression: float = 0.30) -> list[str]:
    """Compare batched ops/sec against a baseline report.

    Returns a list of human-readable failures (empty = pass).  Only
    throughput and memory metrics are gated — wall-clock metrics vary
    too much across machines to gate on.
    """
    failures = []

    def gate(name: str, new: Optional[float], old: Optional[float]) -> None:
        if not new or not old:
            return
        if new < old * (1.0 - max_regression):
            failures.append(
                f"{name}: {new:.3f} Mops/s is more than "
                f"{max_regression:.0%} below baseline {old:.3f}"
            )

    new_scan = current.get("scan_path", {})
    old_scan = baseline.get("scan_path", {})
    for key in ("fig07_tpch_scan", "cold_stream_scan"):
        gate(
            key,
            new_scan.get(key, {}).get("batched_mops"),
            old_scan.get(key, {}).get("batched_mops"),
        )
        # Absolute Mops/s tracks the host machine; the batched/reference
        # *ratio* tracks the code.  Gate the ratio too so a fast-path
        # rot (e.g. the scan-replay memo silently disengaging and every
        # rescan falling back to the generic walk) fails CI even on a
        # faster runner.
        new_ratio = new_scan.get(key, {}).get("speedup")
        old_ratio = old_scan.get(key, {}).get("speedup")
        if new_ratio and old_ratio:
            if new_ratio < old_ratio * (1.0 - max_regression):
                failures.append(
                    f"{key}: speedup {new_ratio:.2f}x is more than "
                    f"{max_regression:.0%} below baseline {old_ratio:.2f}x"
                )
        # The speedup is meaningless unless both modes produced the
        # exact same PMU counters (the bit-identity contract).
        entry = new_scan.get(key)
        if entry is not None and not entry.get("counters_identical", False):
            failures.append(f"{key}: counters_identical is not true")
    gate(
        "row_load_run",
        current.get("row_load_run", {}).get("batched_mops"),
        baseline.get("row_load_run", {}).get("batched_mops"),
    )
    # The share gate: load_run's optimistic L1D pass is kept for this
    # shape, so it fails by name if it stops serving it.
    regimes = current.get("row_load_run", {}).get("load_run_regimes")
    if regimes is not None:
        calls = sum(regimes.get(name, 0) for name in RUN_REGIMES)
        share = regimes.get("run_l1_calls", 0) / calls if calls else 0.0
        if share < RUN_L1_MIN_SHARE:
            failures.append(
                f"row_load_run: run_l1_calls served {share:.1%} of "
                f"load_run calls, under the {RUN_L1_MIN_SHARE:.0%} share "
                "gate (the optimistic L1D pass disengaged)"
            )
    elif baseline.get("row_load_run", {}).get("load_run_regimes") is not None:
        failures.append(
            "row_load_run: load_run_regimes missing from current report")

    def gate_ratio(name: str, new_ratio, old_ratio) -> None:
        if new_ratio and old_ratio:
            if new_ratio < old_ratio * (1.0 - max_regression):
                failures.append(
                    f"{name}: speedup {new_ratio:.2f}x is more than "
                    f"{max_regression:.0%} below baseline {old_ratio:.2f}x"
                )

    # Serve engine: the cross-mode speedup ratio tracks the code (both
    # runs share the host), so gate it against the baseline's ratio;
    # the report-identity flag is absolute — a speedup bought by
    # drifting per-tenant joules is not a speedup.
    new_engine = current.get("serve", {}).get("engine")
    old_engine = baseline.get("serve", {}).get("engine", {})
    if new_engine is not None:
        if not new_engine.get("reports_identical", False):
            failures.append("serve.engine: reports_identical is not true")
        gate_ratio("serve.engine", new_engine.get("speedup"),
                   old_engine.get("speedup"))
    elif baseline.get("serve", {}).get("engine") is not None:
        failures.append("serve.engine: section missing from current report")
    # serve.tpch: plan-backed SQL serving through batched run_rows
    # sessions.  Same conventions as serve.engine (ratio vs baseline,
    # identity absolute), plus an absolute speedup floor: the batched
    # path must never fall below the seed revision's measured ratio.
    new_tpch = current.get("serve", {}).get("tpch")
    old_tpch = baseline.get("serve", {}).get("tpch", {})
    if new_tpch is not None:
        if not new_tpch.get("reports_identical", False):
            failures.append("serve.tpch: reports_identical is not true")
        if not new_tpch.get("run_rows_vs_next_identical", False):
            failures.append(
                "serve.tpch: run_rows_vs_next_identical is not true")
        gate_ratio("serve.tpch", new_tpch.get("speedup"),
                   old_tpch.get("speedup"))
        speedup = new_tpch.get("speedup")
        if speedup and speedup < SERVE_TPCH_MIN_SPEEDUP:
            failures.append(
                f"serve.tpch: speedup {speedup:.2f}x is below the "
                f"absolute {SERVE_TPCH_MIN_SPEEDUP:.2f}x floor "
                "(batched-session serving regressed past the seed)"
            )
    elif baseline.get("serve", {}).get("tpch") is not None:
        failures.append("serve.tpch: section missing from current report")
    # TPC-H query wall-clock tracks the host; the mode ratio tracks the
    # code (history: Q1 once dipped to 0.94x when the batched cold-load
    # path built a Python address list per row).
    for name, old_entry in baseline.get("tpch", {}).items():
        new_entry = current.get("tpch", {}).get(name)
        if new_entry is not None:
            gate_ratio(f"tpch.{name}", new_entry.get("speedup"),
                       old_entry.get("speedup"))
    # serve_scale: absolute requests/s vs baseline, same convention as
    # the Mops gates (quick and full runs measure the same steady-state
    # regime, so the committed full-run baseline gates the CI quick run).
    new_scale = current.get("serve_scale", {}).get("requests_per_s")
    old_scale = baseline.get("serve_scale", {}).get("requests_per_s")
    if new_scale and old_scale:
        if new_scale < old_scale * (1.0 - max_regression):
            failures.append(
                f"serve_scale: {new_scale:.0f} requests/s is more than "
                f"{max_regression:.0%} below baseline {old_scale:.0f}"
            )
    elif baseline.get("serve_scale") is not None and new_scale is None:
        failures.append("serve_scale: section missing from current report")
    # serve_memory: traced bytes per request track the code, not the
    # host, so quick and full runs (the same probe) gate against the
    # baseline directly.  Lower is better.
    new_memory = current.get("serve_memory")
    old_memory = baseline.get("serve_memory", {})
    if new_memory is not None:
        for metric in ("retained_b_per_request", "peak_b_per_request"):
            new_value = new_memory.get(metric)
            old_value = old_memory.get(metric)
            if new_value is None or not old_value:
                continue
            if new_value > old_value * (1.0 + max_regression):
                failures.append(
                    f"serve_memory: {metric} {new_value:.1f} B is more "
                    f"than {max_regression:.0%} above baseline "
                    f"{old_value:.1f} B"
                )
    elif baseline.get("serve_memory") is not None:
        failures.append("serve_memory: section missing from current report")
    # Cluster: the cell metrics are simulated joules/seconds, which are
    # deterministic — but hosts differ in float-identical ways only for
    # the same code, so gate with the same fractional tolerance as the
    # throughput metrics.  Conservation and cross-mode identity are
    # absolute: they must hold on any host.
    new_cluster = current.get("cluster")
    old_cluster = baseline.get("cluster", {})
    if new_cluster is not None:
        if not new_cluster.get("reports_identical", False):
            failures.append("cluster: reports_identical is not true")
        for name, old_cell in old_cluster.get("cells", {}).items():
            new_cell = new_cluster.get("cells", {}).get(name)
            if new_cell is None:
                failures.append(f"cluster.{name}: cell missing from "
                                "current report")
                continue
            if not new_cell.get("conservation_ok", False):
                failures.append(
                    f"cluster.{name}: energy conservation identity broke")
            for metric in ("energy_per_query_j", "p99_s"):
                new_value = new_cell.get(metric)
                old_value = old_cell.get(metric)
                if not new_value or not old_value:
                    continue
                if new_value > old_value * (1.0 + max_regression):
                    failures.append(
                        f"cluster.{name}: {metric} {new_value:.4g} is "
                        f"more than {max_regression:.0%} above baseline "
                        f"{old_value:.4g}"
                    )
    elif baseline.get("cluster") is not None:
        failures.append("cluster: section missing from current report")
    # The optimizer section self-gates: its invariants (never a measured
    # energy regression, always identical results) hold on any host, so
    # they are checked absolutely rather than against the baseline.
    summary = current.get("optimizer", {}).get("summary")
    if summary is not None:
        if summary.get("result_mismatches", 0):
            failures.append(
                f"optimizer: {summary['result_mismatches']} optimized "
                "plans returned different results"
            )
        if summary.get("regressions", 0):
            failures.append(
                f"optimizer: {summary['regressions']} queries measured "
                "more energy with the optimized plan"
            )
        if not summary.get("wins", 0):
            failures.append("optimizer: no query measured a strict win")
    elif baseline.get("optimizer") is not None:
        failures.append("optimizer: section missing from current report")
    return failures


def write_report(results: dict, path: str = DEFAULT_OUT) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
