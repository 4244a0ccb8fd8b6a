"""The benchmark's workloads, and the child process that runs one rep.

Each rep is a fresh process (``python3 workloads.py SPEC``, where SPEC
is a JSON object naming the workload, seed, size and trace directory)
so that set-up is measured the way a user pays it: interpreter, imports,
machine build, calibration, data load.  The rep prints one JSON object
on its last stdout line.

A rep has two phases.  ``setup`` runs from process start to the first
call into the event loop (``QueryServer.run``/``ClusterCoordinator.run``)
or the first profiled query; ``timed`` runs from there until the report
is returned, so report assembly counts.  Both are process CPU seconds
(``time.process_time``): the simulator is one thread, so CPU time
measures the program and not the host's scheduler.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Per-rep input sizes.  ``full`` is what the benchmark measures (about
#: 3 wall seconds per rep, set-up included, on a 2.1 GHz Xeon vCPU, so
#: five reps fit in a 15 s run); ``smoke`` keeps every code path for tests.
SIZES = {
    "tpch_profile": {
        "full": {"tier": "100MB", "queries": [1, 6, 14]},
        "smoke": {"tier": "10MB", "queries": [6, 14]},
    },
    "serve_points": {
        "full": {"queries": 14_000, "clients": 400, "tenants": 200},
        "smoke": {"queries": 600, "clients": 40, "tenants": 20},
    },
    "serve_sql_chaos": {
        "full": {"queries": 280, "clients": 16, "tenants": 8},
        "smoke": {"queries": 24, "clients": 4, "tenants": 2},
    },
    "kv_ycsb": {
        "full": {"queries": 420, "clients": 12, "tenants": 4},
        "smoke": {"queries": 24, "clients": 6, "tenants": 2},
    },
    "cluster_chaos": {
        "full": {"queries": 320, "clients": 8, "tenants": 4},
        "smoke": {"queries": 24, "clients": 4, "tenants": 2},
    },
}

#: Segments per timed phase (see ``run.py``): a segment closes after
#: every ``queries // SEGMENTS`` finished requests.
SEGMENTS = 40


class Phases:
    """Marks the setup/timed boundary, and segment boundaries within the
    timed phase, on the process CPU clock (and tells the trace)."""

    def __init__(self, trace=None):
        self.trace = trace
        self.setup_cpu = self.setup_wall = self.end_cpu = self.end_wall = None
        #: CPU time at each segment boundary inside the timed phase.
        self.marks: list = []

    def start_timed(self) -> None:
        """Idempotent: only the first call ends the setup phase."""
        if self.setup_cpu is not None:
            return
        self.setup_cpu = time.process_time()
        self.setup_wall = time.perf_counter()
        if self.trace is not None:
            self.trace.start_timed()

    def checkpoint(self) -> None:
        self.marks.append(time.process_time())

    def end_timed(self) -> None:
        self.end_cpu = time.process_time()
        self.end_wall = time.perf_counter()
        if self.trace is not None:
            self.trace.finish()

    def on_call(self, cls, name: str, action, period: int = 1) -> None:
        """Run ``action`` before every ``period``-th call of ``cls.name``."""
        inner = getattr(cls, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            if calls[0] % period == 0:
                action()
            return inner(*args, **kwargs)

        setattr(cls, name, counted)


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _counts_partition(counts: dict) -> bool:
    """Terminal-state counts sum to the number issued."""
    return sum(v for k, v in counts.items() if k != "issued") == counts["issued"]


# ---------------------------------------------------------------- workloads

def tpch_profile(seed: int, size: dict, phases: Phases) -> dict:
    """The paper's own path: calibrate, load three engines, profile queries."""
    from dataclasses import asdict
    from itertools import product

    from repro.analysis.lab import ENGINE_ORDER, Lab, LabConfig
    from repro.db import Database, engine_profile
    from repro.seeding import derive_seed
    from repro.workloads.tpch import TpchData, load_into, run_query
    from repro.workloads.tpch.optimize import rows_equal

    lab = Lab(LabConfig(scale=16, tier=size["tier"], seed=seed))
    lab.calibration()
    data = TpchData(size["tier"], seed=derive_seed(seed, "e2e", "tpch-datagen"))
    dbs = {}
    for engine in ENGINE_ORDER:
        dbs[engine] = Database(lab.machine, engine_profile(engine), name=engine)
        load_into(dbs[engine], data)

    phases.start_timed()
    rows: dict = {}
    profiles: dict = {}
    for engine, number in product(ENGINE_ORDER, size["queries"]):
        if profiles:
            phases.checkpoint()  # one segment per profiled query

        def query(db=dbs[engine], key=(engine, number)):
            # The last call is the measured run (the first warms up).
            rows[key] = run_query(db, key[1])

        profiles[engine, number] = lab.profile_callable(f"{engine}/Q{number}", query)
    phases.end_timed()

    document = {
        f"{engine}/Q{number}": {"counters": profile.counters.as_dict(),
                                "breakdown": asdict(profile.breakdown)}
        for (engine, number), profile in sorted(profiles.items())
    }
    first = ENGINE_ORDER[0]
    return {
        "issued": len(profiles),
        "succeeded": len(profiles),
        "digest": _digest(document),
        "checks": {
            "rows_equal_across_engines": all(
                rows_equal(rows[first, number], rows[engine, number], ordered=False)
                for number in size["queries"] for engine in ENGINE_ORDER[1:]
            ),
        },
        "extras": {},
    }


def _serve(config, phases: Phases) -> dict:
    from repro.serve import run_serve
    from repro.serve.drivers import ClosedLoopDriver
    from repro.serve.loop import QueryServer

    phases.on_call(QueryServer, "run", phases.start_timed)
    phases.on_call(ClosedLoopDriver, "on_terminal", phases.checkpoint,
                   max(1, config.queries // SEGMENTS))
    report = run_serve(config)
    phases.end_timed()
    counts = report["counts"]
    energy = report["energy"]
    attempts = counts["issued"] + report.get("resilience", {}).get("retries_spent", 0)
    report.pop("config")
    return {
        "issued": counts["issued"],
        "succeeded": counts["completed"],
        "digest": _digest(report),
        "checks": {
            "check_sum_equals_total_active": abs(
                energy["check_sum_j"] - energy["total_active_j"]
            ) <= 1e-12 * abs(energy["total_active_j"]),
            "terminal_counts_partition_issued": _counts_partition(counts),
        },
        "extras": {"serve.attempts_per_request": attempts / max(1, counts["completed"])},
    }


def serve_points(seed: int, size: dict, phases: Phases) -> dict:
    """The serve-core shape: event loop, admission, sampler, ring walks."""
    from repro.serve import ServeConfig

    return _serve(ServeConfig(
        workload="points", mode="closed", queries=size["queries"],
        clients=size["clients"], tenants=size["tenants"], cores=8, mpl=4,
        max_queue=size["clients"] + 112, telemetry="sampler", seed=seed,
    ), phases)


def serve_sql_chaos(seed: int, size: dict, phases: Phases) -> dict:
    """Plan-backed SQL quanta under injected faults, retries and deadlines."""
    from repro.cli import CHAOS_SCENARIOS
    from repro.faults import FaultPlan
    from repro.serve import ServeConfig

    # The "mixed" preset of ``repro chaos``, with request errors raised
    # to 0.05 so retries are frequent.  Enough retries, and a deadline
    # far above any request's latency, that every request completes:
    # the faults cost wasted attempts, never a failed request.
    faults = FaultPlan(**{**CHAOS_SCENARIOS["mixed"], "request_error_p": 0.05})
    return _serve(ServeConfig(
        workload="tpch", tier="10MB", queries=size["queries"],
        clients=size["clients"], tenants=size["tenants"], cores=4, mpl=2,
        policy="fifo", retries=8, deadline_s=5.0, faults=faults, seed=seed,
    ), phases)


def kv_ycsb(seed: int, size: dict, phases: Phases) -> dict:
    """LSM reads and writes through per-op loads and stores."""
    from repro.serve import ServeConfig

    return _serve(ServeConfig(
        workload="kv", queries=size["queries"], clients=size["clients"],
        tenants=size["tenants"], cores=4, mpl=2, seed=seed,
    ), phases)


def cluster_chaos(seed: int, size: dict, phases: Phases) -> dict:
    """Sharded scatter-gather with node crashes, stragglers and drops."""
    from repro.cluster import ClusterConfig, run_cluster
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.faults import FaultPlan
    from repro.serve.drivers import ClosedLoopDriver

    phases.on_call(ClusterCoordinator, "run", phases.start_timed)
    phases.on_call(ClosedLoopDriver, "on_terminal", phases.checkpoint,
                   max(1, size["queries"] // SEGMENTS))
    # The sub-request timeout sits above the queueing delay of this
    # load, so timeouts come from injected faults, and six attempts per
    # shard make an unreachable shard (a partial result) vanishingly rare.
    report = run_cluster(ClusterConfig(
        nodes=4, replication=2, clients=size["clients"], queries=size["queries"],
        tenants=size["tenants"], tier="10MB", subreq_timeout_s=0.2,
        failover_attempts=6, seed=seed,
        faults=FaultPlan(node_crash_p=0.05, node_slow_p=0.05, net_drop_p=0.02),
    ))
    phases.end_timed()
    counts = report["counts"]
    energy = report["energy"]
    active = energy["active_energy_j"]
    report.pop("config")
    return {
        "issued": counts["issued"],
        # A partial result is delivered (and flagged) by design.
        "succeeded": counts["completed"] + counts["degraded_partial"],
        "digest": _digest(report),
        "checks": {
            "useful_plus_wasted_is_active": (
                energy["useful_energy_j"] + energy["wasted_energy_j"] == active),
            "terminal_counts_partition_issued": _counts_partition(counts),
        },
        "extras": {
            "cluster.subrequests_per_request":
                report["subrequests"]["sent"] / max(1, counts["issued"]),
            "cluster.wasted_share": energy["wasted_energy_j"] / active if active else 0.0,
        },
    }


WORKLOADS = {
    "tpch_profile": tpch_profile,
    "serve_points": serve_points,
    "serve_sql_chaos": serve_sql_chaos,
    "kv_ycsb": kv_ycsb,
    "cluster_chaos": cluster_chaos,
}


# ---------------------------------------------------------------- one rep

def run_rep(spec: dict) -> dict:
    """Run one rep in this process; returns its measurements."""
    name = spec["workload"]
    trace = None
    if spec.get("trace_dir"):
        from layertrace import LayerTrace

        trace = LayerTrace()
        trace.install()
    phases = Phases(trace)
    outcome = WORKLOADS[name](spec["seed"], SIZES[name][spec["size"]], phases)
    bounds = [phases.setup_cpu, *phases.marks, phases.end_cpu]
    result = {
        "workload": name,
        "seed": spec["seed"],
        "size": spec["size"],
        "setup_cpu_s": phases.setup_cpu,
        "timed_cpu_s": phases.end_cpu - phases.setup_cpu,
        "timed_wall_s": phases.end_wall - phases.setup_wall,
        "segments_cpu_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **outcome,
    }
    if trace is not None:
        result["trace"] = trace.phases
        trace.write_spans(os.path.join(spec["trace_dir"], "spans.jsonl"), name)
    return result


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_rep(json.loads(sys.argv[1]))))
