"""``repro.serve`` — energy-aware concurrent query serving.

The serving layer runs many client sessions against one
:class:`~repro.db.engine.Database` on one simulated
:class:`~repro.sim.machine.Machine`, in simulated time:

* workload **drivers** (open-loop Poisson, closed-loop think-time
  clients) issue queries from a :mod:`mix <repro.serve.workload>`;
* **admission control** bounds the queue, enforces per-tenant quotas,
  and sheds timed-out waiters;
* a pluggable **scheduling policy** (FIFO / SJF / energy-aware
  locality batching) picks what runs next, under a **DVFS serving
  mode** (race-to-idle / pace / EIST);
* a :class:`~repro.sim.cores.CoreSet` time-slices query plans across N
  virtual cores, charging context switches as micro-ops;
* a span tracer attributes every joule of the run to a tenant (or to
  the untagged system remainder), exactly.

:func:`run_serve` is the one-call entry point the CLI and the
benchmarks use.
"""

from __future__ import annotations

from repro.db import Database, engine_profile
from repro.faults import FAULT_SITES, FaultInjector, FaultPlan
from repro.micro.measurement import measure_background
from repro.obs import Tracer
from repro.obs.sampler import NullTelemetry, SamplingAggregator
from repro.obs.timeline import TimelineRecorder, write_timeline
from repro.seeding import derive_seed, require_seed
from repro.serve.admission import AdmissionController
from repro.serve.drivers import (
    DRIVER_MODES,
    ClosedLoopDriver,
    Driver,
    OpenLoopDriver,
    make_driver,
)
from repro.serve.loop import QueryServer, ServeConfig
from repro.serve.policies import (
    DVFS_MODES,
    POLICIES,
    FifoPolicy,
    LocalityPolicy,
    SchedulingPolicy,
    SjfPolicy,
    apply_dvfs,
    make_policy,
)
from repro.serve.report import (
    build_report,
    energy_split,
    latency_summary,
    percentile,
    render_serve_summary,
)
from repro.serve.request import JobTemplate, Request
from repro.serve.resilience import CircuitBreaker, RetryManager
from repro.serve.workload import MIXES, QueryMix, build_mix
from repro.sim.cores import ContextSwitchCost, Core, CoreSet
from repro.workloads.tpch import TpchData, load_into

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ClosedLoopDriver",
    "ContextSwitchCost",
    "Core",
    "CoreSet",
    "DRIVER_MODES",
    "DVFS_MODES",
    "Driver",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FifoPolicy",
    "JobTemplate",
    "LocalityPolicy",
    "MIXES",
    "OpenLoopDriver",
    "POLICIES",
    "QueryMix",
    "QueryServer",
    "Request",
    "RetryManager",
    "SchedulingPolicy",
    "ServeConfig",
    "SjfPolicy",
    "apply_dvfs",
    "build_mix",
    "build_report",
    "energy_split",
    "latency_summary",
    "make_driver",
    "make_policy",
    "percentile",
    "render_serve_summary",
    "run_serve",
]


def run_serve(config: ServeConfig) -> dict:
    """Run one complete serve simulation and return its JSON report.

    Builds the machine, loads the data, measures background power,
    runs the event loop under a span tracer, and assembles the report.
    Fully deterministic: the same config (seed included) produces the
    same report, byte for byte once serialised with sorted keys.
    """
    config.validate()
    seed = require_seed(config.seed, "serve")
    machine = config.make_machine(seed, "serve")
    injector = config.make_injector(seed, machine.metrics)
    apply_dvfs(machine, config.dvfs, injector=injector)
    db = Database(machine, engine_profile(config.engine, config.setting),
                  name=config.engine)
    if config.workload not in ("kv", "points"):
        # kv runs against its own LSM store; points is pure micro-ops.
        load_into(db, TpchData(
            config.tier,
            seed=derive_seed(seed, "serve", "tpch-datagen"),
        ))
    driver = config.make_driver(
        build_mix(config.workload, db, config.clients, seed), seed)
    background = measure_background(machine)
    core_set = CoreSet(machine, config.cores)
    if injector is not None:
        # Arm the fault sites only now, after the data load and the
        # background measurement: faults hit the serving window, not
        # setup, so a chaos run's baseline matches the plain run's.
        machine.fault_injector = injector
        machine.disk.injector = injector
        core_set.injector = injector
    admission = AdmissionController(
        machine.metrics,
        max_queue=config.max_queue,
        tenant_quota=config.tenant_quota,
        queue_timeout_s=config.queue_timeout_s,
    )
    policy = make_policy(config.policy)
    retry = None
    if config.retries > 0:
        retry = RetryManager(
            seed,
            max_retries=config.retries,
            backoff_s=config.retry_backoff_s,
            jitter=config.retry_jitter,
            budget=config.retry_budget,
            metrics=machine.metrics,
        )
    breaker = config.make_breaker(machine.metrics)
    server = QueryServer(db, core_set, admission, policy, driver,
                         mpl=config.mpl, quantum_rows=config.quantum_rows,
                         injector=injector, retry=retry, breaker=breaker,
                         deadline_s=config.deadline_s,
                         degrade_keep_tenants=config.degrade_keep_tenants)
    timeline = None
    if config.timeline_out is not None:
        timeline = TimelineRecorder(
            machine,
            window_s=config.timeline_window_s,
            background=background,
        )
    if config.telemetry == "sampler":
        tracer = SamplingAggregator(
            machine,
            background=background,
            seed=derive_seed(seed, "obs", "exemplars"),
            exemplar_rate=config.exemplar_rate,
            reservoir_size=config.reservoir_size,
            name="serve",
        )
    elif config.telemetry == "off":
        tracer = NullTelemetry(machine, background=background)
    else:
        tracer = Tracer(machine, background=background, name="serve")
    if timeline is not None:
        timeline.start()
    server.timeline = timeline
    with tracer:
        server.run()
    if timeline is not None:
        write_timeline(timeline.finish(), config.timeline_out,
                       config.timeline_window_s)
    return build_report(config, server, tracer.finish(), injector=injector)
