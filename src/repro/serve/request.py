"""Requests and job templates: the unit of work the serving layer moves.

A :class:`JobTemplate` is an issuable query shape — a name, the base
tables it touches (the locality policy's key), a cost (the SJF
policy's key), and a factory producing a fresh work iterator.
One ``next()`` on the iterator is one unit of progress (a result row
for SQL jobs, one operation for key-value jobs); the serving layer
time-slices by pulling a quantum of units at a time.

A :class:`Request` is one issued instance of a template: it carries the
tenant, the arrival time, and the lifecycle state.  It lives only while
in flight: at its terminal state the :class:`RequestLedger` keeps what
the report reads of it in compact columns, and the request (with its
work iterator) is dropped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterator, Optional

from repro.errors import ServeError

# Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED_QUEUE = "rejected_queue"
REJECTED_QUOTA = "rejected_quota"
SHED_TIMEOUT = "shed_timeout"
#: Waiting out a retry backoff after a failed attempt (resilient runs).
RETRY_WAIT = "retry_wait"
#: Every attempt failed (or the retry budget ran out).
FAILED = "failed"
#: Ran past its execution deadline; remaining work abandoned.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: Shed by the circuit breaker's degraded mode (low-priority tenant).
SHED_DEGRADED = "shed_degraded"

#: Terminal states a request can end in (reported per tenant).
TERMINAL_STATES = (COMPLETED, REJECTED_QUEUE, REJECTED_QUOTA, SHED_TIMEOUT,
                   FAILED, DEADLINE_EXCEEDED, SHED_DEGRADED)
#: A cluster request answered from a strict subset of its shards (a
#: shard was unreachable and ``allow_partial`` let it degrade).
DEGRADED_PARTIAL = "degraded_partial"


@dataclass(frozen=True)
class JobTemplate:
    """One issuable query shape."""

    name: str
    #: Base tables the job touches (locality-batching key).
    tables: tuple[str, ...]
    #: SJF key: the energy model's predicted J for SQL jobs, a fixed
    #: per-operation weight for ``kv`` and ``points`` jobs.
    cost: float
    #: ``make(slot)`` returns a fresh work iterator bound to an
    #: execution slot (slots keep temp-arena addresses warm per core).
    make: Callable[[int], Iterator]


@dataclass
class Request:
    """One issued query travelling through admission, queue, and cores."""

    request_id: int
    tenant: str
    #: Issuing client's index (drives closed-loop reissue).
    client: int
    job: JobTemplate
    arrival_s: float
    state: str = QUEUED
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    rows: int = 0
    quanta: int = 0
    #: Execution slot while running (core index x mpl + position).
    slot: Optional[int] = None
    #: Failed attempts so far (attempt number = failures + 1).
    failures: int = 0
    #: Execution deadline relative to arrival (resilient runs only).
    deadline_s: Optional[float] = None
    _iter: Optional[Iterator] = field(default=None, repr=False)

    @property
    def latency_s(self) -> Optional[float]:
        """Arrival-to-finish latency (None until completed)."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    def work_iter(self, slot: int) -> Iterator:
        """The request's work iterator, created on first quantum."""
        if self._iter is None:
            self.slot = slot
            self._iter = self.job.make(slot)
        return self._iter

    def prepare_retry(self) -> None:
        """Reset execution state for a fresh attempt after a failure.

        The failed attempt's partial progress is discarded (its joules
        are already on the trace and will be classified as wasted); the
        retry re-enters through the event heap and re-queues.
        """
        self.state = RETRY_WAIT
        self.slot = None
        self.rows = 0
        self._iter = None

    def past_deadline(self, now: float) -> bool:
        """True when ``now`` is past this request's execution deadline
        (never without one)."""
        return (self.deadline_s is not None
                and now - self.arrival_s > self.deadline_s)


#: Ledger state codes index this tuple; code -1 (a request still in
#: flight) reads as None.
_LEDGER_STATES = TERMINAL_STATES + (DEGRADED_PARTIAL, None)
_STATE_CODE = {state: code for code, state in enumerate(_LEDGER_STATES[:-1])}


class RequestLedger:
    """What the report reads of every issued request, in id-indexed
    ``array`` columns.

    A row is opened when a request is issued and filled when it
    retires at its terminal state; after that the server keeps no
    :class:`Request` (and no work iterator) for it.  A row costs 17
    bytes — terminal state, arrival-to-finish latency, tenant index and
    final attempt number.  Tenant names are stored once per tenant, and
    delivered rows, which the report reads only as per-tenant integer
    sums, are summed per tenant as requests complete.
    """

    def __init__(self) -> None:
        #: Tenant names by index, in first-issue order.
        self.tenants: list[str] = []
        self._tenant_index: dict[str, int] = {}
        #: Rows delivered by each tenant's completed requests.
        self.tenant_rows: list[int] = []
        #: Index into ``_LEDGER_STATES``; -1 while in flight.
        self.state = array("b")
        #: ``finish_s - arrival_s`` (0.0 while in flight).
        self.latency_s = array("d")
        self.tenant = array("i")
        #: Final attempt number (failures + 1).
        self.attempts = array("i")

    def __len__(self) -> int:
        return len(self.state)

    def open(self, request: Request) -> None:
        """Add the row of a newly issued request; ids are dense and
        issued in order, so ``request.request_id`` must equal
        ``len(self)``."""
        if request.request_id != len(self.state):
            raise ServeError(
                f"request {request.request_id} opened out of order "
                f"(next id is {len(self.state)})"
            )
        index = self._tenant_index.get(request.tenant)
        if index is None:
            index = self._tenant_index[request.tenant] = len(self.tenants)
            self.tenants.append(request.tenant)
            self.tenant_rows.append(0)
        self.tenant.append(index)
        self.state.append(-1)
        self.latency_s.append(0.0)
        self.attempts.append(1)

    def retire(self, request: Request) -> None:
        """Record a request's terminal outcome in its row."""
        rid = request.request_id
        self.state[rid] = _STATE_CODE[request.state]
        self.latency_s[rid] = request.latency_s
        self.attempts[rid] = request.failures + 1
        if request.state == COMPLETED:
            self.tenant_rows[self.tenant[rid]] += request.rows

    def state_of(self, rid: int) -> Optional[str]:
        """Request ``rid``'s terminal state (None while in flight)."""
        return _LEDGER_STATES[self.state[rid]]

    def states(self) -> Iterator:
        """Every request's terminal state by id (None while in flight)."""
        return map(_LEDGER_STATES.__getitem__, self.state)

    def latencies(self, states=(COMPLETED,)) -> list:
        """The latencies of the requests that ended in ``states``, in id
        order."""
        codes = {_STATE_CODE[state] for state in states}
        return list(compress(self.latency_s, map(codes.__contains__,
                                                 self.state)))

    def by_tenant(self) -> dict:
        """``{tenant: (states, completed latencies)}``, each in id order,
        from one pass over the columns rather than one per tenant.  The
        latencies are an ``array('d')`` per tenant, 8 bytes a sample."""
        codes = [array("b") for _ in self.tenants]
        latencies = [array("d") for _ in self.tenants]
        done = _STATE_CODE[COMPLETED]
        for index, code, latency_s in zip(self.tenant, self.state,
                                          self.latency_s):
            codes[index].append(code)
            if code == done:
                latencies[index].append(latency_s)
        return {tenant: (map(_LEDGER_STATES.__getitem__, tenant_codes),
                         tenant_latencies)
                for tenant, tenant_codes, tenant_latencies
                in zip(self.tenants, codes, latencies)}
