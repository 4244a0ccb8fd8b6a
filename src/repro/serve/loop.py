"""The serving event loop: admission, scheduling, and time-slicing.

:class:`QueryServer` is a deterministic discrete-event simulator over
one :class:`~repro.db.engine.Database` and one
:class:`~repro.sim.cores.CoreSet`, built on :class:`EventKernel` — the
heap and request lifecycle it shares with
:class:`~repro.cluster.coordinator.ClusterCoordinator`:

* One heap holds every event, keyed ``(t, order, tiebreak)``.  Arrivals
  (seeded in bulk by
  :meth:`~repro.serve.drivers.Driver.initial_arrival_entries`) and
  retries use order 0 and tie on their push sequence; a busy core's
  next quantum is ``(clock, 1, core index)``.  So an arrival runs
  before a quantum at the same time, and cores tie on
  ``(clock, index)``.  Each busy core has exactly one quantum entry,
  stamped with its current clock: it is pushed when the core turns
  busy and after each quantum the request survives, and a core's clock
  moves only in its own quantum or while every core is idle.
* An arrival goes through admission, then dispatch; a quantum runs up
  to ``quantum_rows`` units of the request's work, preceded by a
  context switch charged on the machine.  Work iterators that expose
  ``run_rows(n)`` execute the whole quantum as one batched call
  (micro-ops flow through ``machine.exec`` in bulk); plain iterators
  are pulled row by row.  Both paths charge identical micro-ops, so
  reports stay bit-identical across engines and modes.
* Multiprogramming: each core round-robins a run list of up to ``mpl``
  requests, each bound to a distinct execution slot (its own temp
  arena), so interleaved plans never trample each other's state.
* When every core is idle and the queue is empty, the gap to the next
  arrival is charged as package idle time — exactly the §2.6 notion of
  background energy the Active-energy subtraction removes.  Every
  event ends in a dispatch, and a policy picks a request from any
  non-empty queue, so the heap never runs dry while requests wait.
* A request is an object only while in flight.  At its terminal state
  it retires into the :class:`~repro.serve.request.RequestLedger`'s
  columns and is dropped with its work iterator, so memory grows by a
  few bytes per request, not by the request.

Every quantum runs inside a tracer span tagged with the request's
tenant, so a :class:`~repro.obs.tracer.Tracer` installed over the run
partitions the whole run's Active energy across tenants exactly (see
:meth:`~repro.obs.span.Trace.active_energy_by_meta`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.config import intel_i7_4790
from repro.db.engine import Database
from repro.errors import ConfigError, FaultError
from repro.faults import FaultInjector, FaultPlan
from repro.seeding import derive_seed
from repro.serve.admission import AdmissionController
from repro.serve.drivers import DRIVER_MODES, Driver, make_driver
from repro.serve.policies import (
    DVFS_MODES,
    POLICIES,
    FifoPolicy,
    SchedulingPolicy,
)
from repro.serve.request import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED_DEGRADED,
    Request,
    RequestLedger,
)
from repro.serve.resilience import CircuitBreaker, RetryManager
from repro.serve.workload import MIXES
from repro.sim.cores import Core, CoreSet
from repro.sim.machine import Machine

#: Span category carried by every quantum span.
CATEGORY_QUANTUM = "serve.quantum"


#: :class:`RunConfig` fields every report echoes under ``config``: the
#: workload shape and the machine ...
RUN_FIELDS = ("mode", "clients", "queries", "tenants", "rate_qps", "think_s",
              "seed", "engine", "setting", "tier", "scale", "exec_mode")
#: ... and the fault plan and breaker (only in resilient serve reports).
BREAKER_FIELDS = ("faults", "breaker_threshold", "breaker_window",
                  "breaker_cooloff_s", "degrade_keep_tenants")


@dataclass
class RunConfig:
    """What serve and cluster runs share: the workload shape the drivers
    consume, the simulated machine, the fault plan, and the circuit
    breaker.  Subclasses restate a field only to change its default.

    The ``make_*`` methods build the per-run objects these fields
    describe, so both entry points construct them the same way.
    """

    mode: str = "closed"
    clients: int = 4
    queries: int = 40
    tenants: int = 2
    #: Open-loop aggregate arrival rate (queries per simulated second).
    rate_qps: float = 50.0
    #: Closed-loop mean think time (simulated seconds).
    think_s: float = 0.0
    seed: int = 0
    engine: str = "postgresql"
    #: Engine configuration setting (buffer pool / work_mem sizing).
    setting: str = "baseline"
    tier: str = "10MB"
    #: Cache scale divisor, as the rest of the CLI uses it.
    scale: int = 16
    #: Simulator execution engine ("batched" is bit-identical to
    #: "reference"; see repro.sim.batch).
    exec_mode: str = "batched"
    #: Fault plan for chaos runs (None = no injection anywhere).
    faults: Optional[FaultPlan] = None
    #: Breaker trips when the windowed failure rate reaches this
    #: (None = no breaker).
    breaker_threshold: Optional[float] = None
    #: Sliding window of attempt outcomes the breaker looks at.
    breaker_window: int = 16
    #: Simulated seconds the breaker stays open once tripped.
    breaker_cooloff_s: float = 0.1
    #: Tenants (by index) still served while the breaker is open.
    degrade_keep_tenants: int = 1

    def validate(self) -> "RunConfig":
        """Reject a bad config before any machine is built or data
        loaded; subclasses extend this with their own fields."""
        if self.mode not in DRIVER_MODES:
            raise ConfigError(
                f"unknown driver mode {self.mode!r}; known: {DRIVER_MODES}"
            )
        if self.clients < 1:
            raise ConfigError(f"clients must be >= 1, got {self.clients}")
        if self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.tenants < 1:
            raise ConfigError(f"tenants must be >= 1, got {self.tenants}")
        if self.mode == "open" and self.rate_qps <= 0:
            raise ConfigError(
                f"rate_qps must be positive, got {self.rate_qps}"
            )
        if self.think_s < 0:
            raise ConfigError(f"think_s must be >= 0, got {self.think_s}")
        if self.faults is not None:
            self.faults.validate()
        if self.breaker_threshold is not None and not (
            0.0 < self.breaker_threshold <= 1.0
        ):
            raise ConfigError(
                f"breaker_threshold must be in (0, 1], "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_window < 1:
            raise ConfigError(
                f"breaker_window must be >= 1, got {self.breaker_window}"
            )
        if self.breaker_cooloff_s <= 0:
            raise ConfigError(
                f"breaker_cooloff_s must be positive, "
                f"got {self.breaker_cooloff_s}"
            )
        if self.degrade_keep_tenants < 1:
            raise ConfigError(
                f"degrade_keep_tenants must be >= 1, "
                f"got {self.degrade_keep_tenants}"
            )
        return self

    def report_fields(self, *names: str) -> dict:
        """The named fields as a report's ``config`` section echoes them
        (the fault plan as a plain dict)."""
        out = {name: getattr(self, name) for name in names}
        if "faults" in out and self.faults is not None:
            out["faults"] = self.faults.as_dict()
        return out

    def make_machine(self, seed: int, *path: str) -> Machine:
        """A machine whose noise stream derives from ``path``."""
        return Machine(
            intel_i7_4790(scale=self.scale),
            seed=derive_seed(seed, *path, "machine-noise"),
            exec_mode=self.exec_mode,
        )

    def make_injector(self, seed: int, metrics) -> Optional[FaultInjector]:
        """The run's fault source, or None when the plan arms nothing."""
        if self.faults is None or not self.faults.any_enabled:
            return None
        return FaultInjector(self.faults, seed=derive_seed(seed, "faults"),
                             metrics=metrics)

    def make_driver(self, mix, seed: int) -> Driver:
        return make_driver(
            self.mode, mix,
            n_clients=self.clients,
            n_queries=self.queries,
            seed=seed,
            tenants=self.tenants,
            rate_qps=self.rate_qps,
            think_s=self.think_s,
        )

    def make_breaker(self, metrics) -> Optional[CircuitBreaker]:
        if self.breaker_threshold is None:
            return None
        return CircuitBreaker(
            self.breaker_threshold,
            window=self.breaker_window,
            cooloff_s=self.breaker_cooloff_s,
            metrics=metrics,
        )


class EventKernel:
    """The discrete-event core :class:`QueryServer` and the cluster
    coordinator share: one heap, and the request lifecycle around it.

    Heap entries are ``(t, order, tiebreak, kind, payload)``.  Arrivals
    and cluster events use ``order`` 0 and break ties by push sequence,
    so their payloads are never compared; a serve quantum uses order 1
    with its core's index, so at equal times an arrival runs first and
    cores tie on ``(clock, index)``.  Subclasses map each ``kind`` to a
    handler ``handler(t, payload)``; the run ends when the heap is empty,
    so every handler pushes whatever events its state still owes.

    The lifecycle: :meth:`_issue` numbers a request by the ledger's
    length, opens its row and sheds it when the breaker's degraded mode
    drops its tenant; :meth:`_terminal` retires it onto the ledger,
    counts it on the timeline and lets the driver reissue its client.
    """

    #: What :meth:`_issue` builds; every request is this type or a
    #: subclass of it.
    request_type = Request
    #: Execution deadline stamped on every issued request.
    deadline_s: Optional[float] = None

    def __init__(self, machine: Machine, driver: Driver,
                 breaker: Optional[CircuitBreaker],
                 degrade_keep_tenants: int):
        self.machine = machine
        self.driver = driver
        self.breaker = breaker
        self.degrade_keep_tenants = degrade_keep_tenants
        #: Optional :class:`~repro.obs.timeline.TimelineRecorder` fed
        #: lifecycle events (admissions, terminals, queue depth).
        self.timeline = None
        #: What the report reads of every request ever issued, by id.
        #: Requests themselves are referenced only while in flight (from
        #: the heap, a queue or a run list) and are dropped when they
        #: retire here.
        self.ledger = RequestLedger()
        self._heap: list = []
        self._seq = 0
        #: Events handled.
        self.events = 0

    def _push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self._heap, (t, 0, self._seq, kind, payload))
        self._seq += 1

    def _run_events(self, handlers: dict) -> None:
        """Seed the heap with the driver's initial arrivals, handle every
        event in key order until the heap is empty, then settle the
        machine."""
        heap = self._heap = self.driver.initial_arrival_entries()
        heapq.heapify(heap)
        self._seq = len(heap)
        pop = heapq.heappop
        while heap:
            t, _order, _tiebreak, kind, payload = pop(heap)
            handlers[kind](t, payload)
            self.events += 1
        self.machine.settle()

    def _issue(self, t: float, client: int, job) -> Optional[Request]:
        """A new request from ``client``, with its ledger row opened, or
        None when degraded mode shed it."""
        request = self.request_type(
            request_id=len(self.ledger),
            tenant=self.driver.tenant_of(client),
            client=client,
            job=job,
            arrival_s=t,
            deadline_s=self.deadline_s,
        )
        self.ledger.open(request)
        if self._sheds(client, t):
            self._shed_degraded(request, t)
            return None
        return request

    def _degraded(self, now: float) -> bool:
        return self.breaker is not None and self.breaker.degraded(now)

    def _sheds(self, client: int, now: float) -> bool:
        """True in degraded mode when ``client``'s tenant index (lower =
        higher priority) is not among the ones kept."""
        return (self._degraded(now)
                and client % self.driver.tenants >= self.degrade_keep_tenants)

    def _shed_degraded(self, request: Request, now: float) -> None:
        request.state = SHED_DEGRADED
        request.finish_s = now
        self.machine.metrics.counter("serve.shed_degraded").inc()
        self._terminal(request, now)

    def _terminal(self, request: Request, now: float) -> None:
        self.ledger.retire(request)
        if self.timeline is not None:
            self.timeline.count(request.state)
        nxt = self.driver.on_terminal(request.client, now)
        if nxt is not None:
            self._push(nxt[0], "arrival", (request.client, nxt[1]))


@dataclass
class ServeConfig(RunConfig):
    """Everything that parameterises one serve run."""

    workload: str = "tpch"
    policy: str = "fifo"
    dvfs: str = "race"
    cores: int = 2
    #: Multiprogramming level: run-list depth per core.
    mpl: int = 2
    #: Iterator pulls per scheduling quantum.
    quantum_rows: int = 64
    max_queue: int = 64
    tenant_quota: Optional[int] = None
    queue_timeout_s: Optional[float] = None
    # --- resilience / chaos (all default off; a plain serve run is
    # byte-identical to one configured before these fields existed) ---
    #: Max retries per request after a failed attempt (0 = fail fast).
    retries: int = 0
    #: Base backoff before the first retry (doubles per failure).
    retry_backoff_s: float = 0.005
    #: Jitter fraction applied to each backoff (seeded, deterministic).
    retry_jitter: float = 0.1
    #: Global cap on retries across the whole run (None = unlimited).
    retry_budget: Optional[int] = None
    #: Per-request execution deadline from arrival (None = none).
    deadline_s: Optional[float] = None
    # --- telemetry (default "full" keeps the pre-telemetry behaviour:
    # span tracer over the whole run, byte-identical reports) ---
    #: "full" = span tracer (exact per-span tree, unaffordable at
    #: production scale); "sampler" = streaming aggregates + exemplar
    #: reservoir (always-on mode); "off" = whole-window totals only.
    telemetry: str = "full"
    #: Probability a closed span is offered to the exemplar reservoir
    #: (sampler mode; never affects aggregates).
    exemplar_rate: float = 0.1
    #: Exemplar reservoir capacity (sampler mode).
    reservoir_size: int = 64
    #: Write a timeline (fixed windows over simulated time) here;
    #: ``.csv`` selects CSV, anything else JSONL.  None = no timeline.
    timeline_out: Optional[str] = None
    #: Timeline window width in simulated seconds.
    timeline_window_s: float = 0.01

    @property
    def telemetric(self) -> bool:
        """True when any telemetry knob left its default.

        Gates the report's ``telemetry`` section the same way
        :attr:`resilient` gates the resilience keys: an all-default
        config produces byte-identical output to the pre-telemetry
        server.
        """
        return self.telemetry != "full" or self.timeline_out is not None

    @property
    def resilient(self) -> bool:
        """True when any fault/resilience machinery is switched on.

        Gates every new report key and runtime hook, so a config that
        leaves all of this at defaults produces byte-identical output to
        the pre-resilience server.
        """
        return (self.faults is not None or self.retries > 0
                or self.deadline_s is not None
                or self.breaker_threshold is not None)

    def validate(self) -> "ServeConfig":
        super().validate()
        if self.workload not in MIXES:
            raise ConfigError(
                f"unknown workload mix {self.workload!r}; known: {MIXES}"
            )
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; known: {POLICIES}"
            )
        if self.dvfs not in DVFS_MODES:
            raise ConfigError(
                f"unknown dvfs mode {self.dvfs!r}; known: {DVFS_MODES}"
            )
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if self.mpl < 1:
            raise ConfigError(f"mpl must be >= 1, got {self.mpl}")
        if self.quantum_rows < 1:
            raise ConfigError(
                f"quantum_rows must be >= 1, got {self.quantum_rows}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_s <= 0:
            raise ConfigError(
                f"retry_backoff_s must be positive, got {self.retry_backoff_s}"
            )
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ConfigError(
                f"retry_jitter must be in [0, 1), got {self.retry_jitter}"
            )
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ConfigError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.telemetry not in ("full", "sampler", "off"):
            raise ConfigError(
                f"telemetry must be 'full', 'sampler', or 'off', "
                f"got {self.telemetry!r}"
            )
        if not 0.0 <= self.exemplar_rate <= 1.0:
            raise ConfigError(
                f"exemplar_rate must be in [0, 1], got {self.exemplar_rate}"
            )
        if self.reservoir_size < 1:
            raise ConfigError(
                f"reservoir_size must be >= 1, got {self.reservoir_size}"
            )
        if self.timeline_window_s <= 0:
            raise ConfigError(
                f"timeline_window_s must be positive, "
                f"got {self.timeline_window_s}"
            )
        return self


class QueryServer(EventKernel):
    """Deterministic discrete-event serving loop (see module docstring)."""

    def __init__(self, db: Database, core_set: CoreSet,
                 admission: AdmissionController, policy: SchedulingPolicy,
                 driver: Driver, mpl: int = 2, quantum_rows: int = 64,
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryManager] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 deadline_s: Optional[float] = None,
                 degrade_keep_tenants: int = 1):
        super().__init__(db.machine, driver, breaker, degrade_keep_tenants)
        self.db = db
        self.core_set = core_set
        self.admission = admission
        self.policy = policy
        self.mpl = mpl
        self.quantum_rows = quantum_rows
        self.injector = injector
        self.retry = retry
        self.deadline_s = deadline_s
        #: Scheduling fallback while the breaker is open: the cheapest
        #: policy (no cost model, no locality scan).
        self._degraded_policy = FifoPolicy()
        #: Tables of the most recently dispatched request (locality key).
        self.hot_tables: frozenset[str] = frozenset()
        self._free_slots = {
            core.index: list(range(mpl)) for core in core_set.cores
        }
        #: Total quanta executed (reported as ``clock.quanta``).
        self.quanta = 0

    # ------------------------------------------------------------ arrivals

    def _drain_shed(self) -> None:
        while self.admission.shed:
            request = self.admission.shed.pop(0)
            self._terminal(request, request.finish_s)

    def _quiesce(self, t: float) -> None:
        """An arrival into an idle server: charge the gap as idle."""
        if not self.admission.queue and not any(
            core.run_list for core in self.core_set.cores
        ):
            self.core_set.quiesce_until(t)

    def _offer(self, request: Request, t: float, record: bool) -> None:
        admitted = self.admission.offer(request, t, record=record)
        if admitted and self.timeline is not None:
            self.timeline.count("admitted")
        self._drain_shed()
        if not admitted:
            self._terminal(request, t)

    def _on_arrival(self, t: float, payload) -> None:
        self._quiesce(t)
        request = self._issue(t, *payload)
        if request is not None:
            self._offer(request, t, record=True)
        self._assign(t)

    def _on_retry(self, t: float, request: Request) -> None:
        """A failed request re-arriving after its retry backoff."""
        self._quiesce(t)
        if self._sheds(request.client, t):
            self._shed_degraded(request, t)
        elif request.past_deadline(t):
            self._mark_deadline_exceeded(request, t)
        else:
            self._offer(request, t, record=False)
        self._assign(t)

    # ------------------------------------------------------------ dispatch

    def _mark_deadline_exceeded(self, request: Request, now: float) -> None:
        """Common bookkeeping for a request abandoned past its deadline.

        Callers release any queue/slot/quota resources first; this only
        records the terminal state and feeds the breaker (a deadline
        miss is an overload signal, same as a failed attempt).
        """
        request.state = DEADLINE_EXCEEDED
        request.finish_s = now
        self.machine.metrics.counter("serve.deadline_exceeded").inc()
        if self.breaker is not None:
            self.breaker.record(False, now)
        self._terminal(request, now)

    def _push_quantum(self, core: Core) -> None:
        heapq.heappush(self._heap, (core.clock_s, 1, core.index, "quantum",
                                    core.index))

    def _assign(self, now: float) -> None:
        """Fill core run lists from the queue via the policy."""
        self.admission.candidates(now)  # sheds expired waiters
        self._drain_shed()
        if self.timeline is not None:
            self.timeline.sample_queue_depth(len(self.admission.queue))
        while self.admission.queue:
            open_cores = [core for core in self.core_set.cores
                          if len(core.run_list) < self.mpl]
            if not open_cores:
                return
            core = min(open_cores,
                       key=lambda c: (len(c.run_list), c.clock_s, c.index))
            policy = (self._degraded_policy if self._degraded(now)
                      else self.policy)
            # The queue is non-empty, so the policy always picks one.
            request = policy.select(self.admission.queue, self.hot_tables)
            self.admission.take(request, now)
            if request.past_deadline(now):
                # Expired while queued: abandon before burning a quantum.
                self.admission.release(request)
                self._mark_deadline_exceeded(request, now)
                continue
            offset = self._free_slots[core.index].pop(0)
            request.slot = core.index * self.mpl + offset
            if not core.run_list:
                # The core sat idle until this dispatch; its next quantum
                # cannot begin before the request exists.  Turning busy,
                # it gets a quantum event.
                core.clock_s = max(core.clock_s, now)
                self._push_quantum(core)
            core.run_list.append(request)
            self.hot_tables = frozenset(request.job.tables)

    # ------------------------------------------------------------ quanta

    def _release_core_slot(self, request: Request, core: Core) -> None:
        """Return a departing request's execution slot to its core."""
        self._free_slots[core.index].append(
            request.slot - core.index * self.mpl
        )
        self._free_slots[core.index].sort()
        if core.resident is request:
            core.resident = None

    def _attempt_failed(self, request: Request, core: Core) -> None:
        """An injected fault killed the running attempt: free the
        request's resources, then retry (after backoff, through a
        retry event) or fail it for good."""
        self._release_core_slot(request, core)
        self.admission.release(request)
        request.failures += 1
        now = core.clock_s
        self.machine.metrics.counter("serve.attempt_failures").inc()
        if request.past_deadline(now):
            # The attempt failed *and* the deadline has already passed:
            # that is a deadline miss, not a retry candidate.  Admitting
            # it would burn global retry budget (and double-count the
            # breaker failure) on work the client has abandoned.
            self._mark_deadline_exceeded(request, now)
            return
        if self.breaker is not None:
            self.breaker.record(False, now)
        if self.retry is not None and self.retry.admit_retry(request):
            request.prepare_retry()
            self._push(now + self.retry.backoff_s(request), "retry", request)
        else:
            request.state = FAILED
            request.finish_s = now
            self.machine.metrics.counter("serve.failed").inc()
            self._terminal(request, now)

    def _run_quantum(self, core: Core) -> None:
        request = core.run_list.pop(0)
        finished = False
        injector = self.injector
        rows_before = request.rows

        def work() -> None:
            nonlocal finished
            self.core_set.context_switch(core, request)
            if injector is not None and injector.request_error():
                raise FaultError(
                    f"injected request failure "
                    f"(request {request.request_id}, "
                    f"attempt {request.failures + 1})"
                )
            it = request.work_iter(request.slot)
            run_rows = getattr(it, "run_rows", None)
            if run_rows is not None:
                # Batched-quantum protocol: the iterator executes the
                # whole quantum in one call and reports how many units
                # it completed (fewer than asked = exhausted).  It must
                # charge exactly the micro-ops `quantum_rows` pulls
                # would; both engines use this path whenever the
                # iterator provides it, so cross-engine reports agree
                # by construction.
                done = run_rows(self.quantum_rows)
                request.rows += done
                finished = done < self.quantum_rows
                return
            for _ in range(self.quantum_rows):
                try:
                    next(it)
                except StopIteration:
                    finished = True
                    return
                request.rows += 1

        try:
            with self.machine.tracer.span(
                f"req{request.request_id}.q{request.quanta}",
                category=CATEGORY_QUANTUM,
                tenant=request.tenant,
                request=request.request_id,
                job=request.job.name,
                attempt=request.failures + 1,
            ):
                self.core_set.run_on(core, work)
        except FaultError:
            # The killed attempt delivered nothing to the client: roll
            # back any rows it accrued mid-quantum (faults can surface
            # from inside the work iterator, between row pulls) so
            # ``request.rows`` always equals rows actually delivered.
            # Retries reset the count anyway; this covers attempts that
            # fail for good or expire, which used to keep the partial
            # progress of their final, undelivered quantum.
            request.rows = rows_before
            request.quanta += 1
            self.quanta += 1
            self._attempt_failed(request, core)
            return
        request.quanta += 1
        self.quanta += 1
        if finished:
            request.state = COMPLETED
            request.finish_s = core.clock_s
            self._release_core_slot(request, core)
            self.admission.release(request)
            if self.breaker is not None:
                self.breaker.record(True, core.clock_s)
            self._terminal(request, core.clock_s)
            return
        if request.past_deadline(core.clock_s):
            # Past deadline mid-flight: abandon instead of finishing work
            # nobody is waiting for (its joules are already wasted).
            self._release_core_slot(request, core)
            self.admission.release(request)
            self._mark_deadline_exceeded(request, core.clock_s)
            return
        core.run_list.append(request)

    # ------------------------------------------------------------ main loop

    def _on_quantum(self, t: float, index: int) -> None:
        # Never stale: a busy core's one entry carries its current clock.
        core = self.core_set.cores[index]
        self._run_quantum(core)
        if core.run_list:
            self._push_quantum(core)
        self._assign(core.clock_s)

    def run(self) -> RequestLedger:
        """Serve every arrival to a terminal state; returns the ledger."""
        self._run_events({"arrival": self._on_arrival,
                          "retry": self._on_retry,
                          "quantum": self._on_quantum})
        return self.ledger
