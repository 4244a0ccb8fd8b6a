"""The cluster coordinator: a scatter-gather discrete-event engine.

The coordinator runs on :class:`~repro.serve.loop.EventKernel`, the
heap and request lifecycle it shares with the serve loop: one heap
keyed ``(time, 0, seq)`` drives the whole cluster, and every request
retires onto the same :class:`~repro.serve.request.RequestLedger` and
is dropped with its sub-requests and attempts.  Six event kinds:

``arrival``    a client issues a query (driver-generated, closed- or
               open-loop); the coordinator scatters one sub-request per
               shard.
``node_recv``  a sub-request message reaches a data node; the node runs
               the per-shard plan run-to-completion on its own machine
               (queueing emerges from the node's machine clock) and
               sends the partial back.
``coord_recv`` a partial lands at the coordinator; first one per shard
               wins, later ones are losers (hedge/failover waste).
``timeout``    a sub-request attempt outlived ``subreq_timeout_s``; the
               coordinator fails it over to the next replica (bounded
               by ``failover_attempts``) or gives the shard up.
``hedge``/``dispatch``  delayed dispatches: a hedge fires after the
               observed latency quantile, a failover after its backoff.

Determinism: every decision is a pure function of simulated time and
seeded draws — event ties break on sequence numbers, network latencies
and fault draws are seeded, and the hedge delay is a percentile of
observed (simulated) latencies.  Two runs with the same config are
byte-identical, across ``exec_mode`` reference/batched too.

Energy: every charged micro-op on any machine runs inside a tracer
span tagged ``(request, attempt)``, so the cluster report partitions
each node's Active energy exactly.  The coordinator records a waste
reason per losing attempt in :attr:`ClusterCoordinator.attempt_outcomes`
(``hedge_loser``, ``failover_reexec``, ``node_crash``, ``net_drop``,
``net_partition``, ``timeout``); the winning attempt of a delivered
request carries no reason and classifies useful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db.planner import Aggregate, Limit
from repro.db.sharding import merge_partials, shard_scan
from repro.seeding import derive_seed, seeded_rng
from repro.serve.loop import EventKernel
from repro.serve.report import percentile
from repro.serve.request import (
    COMPLETED,
    DEGRADED_PARTIAL,
    FAILED,
    Request,
    RequestLedger,
)
from repro.sim.network import DELIVERED

CATEGORY_EXEC = "cluster.exec"
CATEGORY_NET = "cluster.net"
CATEGORY_MERGE = "cluster.merge"
CATEGORY_FAULT = "cluster.fault"

#: Fixed sub-request message size (plan id + shard + bookkeeping).
REQUEST_BYTES = 192
#: Response framing plus one 8-byte slot per aggregate value.
RESPONSE_HEADER_BYTES = 64
VALUE_BYTES = 8


class SubAttempt:
    """One dispatch of one sub-request to one replica."""

    __slots__ = ("attempt_id", "subreq", "node", "hedge", "sent_s", "fate")

    def __init__(self, attempt_id, subreq, node, hedge, sent_s):
        self.attempt_id = attempt_id
        self.subreq = subreq
        self.node = node
        self.hedge = hedge
        self.sent_s = sent_s
        #: Known loss cause ("net_drop" / "net_partition" / "node_crash")
        #: or None while the attempt might still deliver.
        self.fate: Optional[str] = None


class SubRequest:
    """One shard's slice of a scatter-gather request.  Pointers run one
    way (attempt, sub-request, request), so refcounting frees them."""

    __slots__ = ("request", "shard", "replicas", "n_attempts",
                 "next_replica", "satisfied", "failed", "winner_id",
                 "winner_hedge", "dispatched_s", "hedged", "timed_out",
                 "pending_dispatch")

    def __init__(self, request, shard, replicas):
        self.request = request
        self.shard = shard
        self.replicas = replicas
        self.n_attempts = 0
        self.next_replica = 0
        self.satisfied = False
        self.failed = False
        #: The winning attempt's id, and whether it was a hedge.
        self.winner_id: Optional[str] = None
        self.winner_hedge = False
        self.dispatched_s: Optional[float] = None
        self.hedged = False
        self.timed_out = 0
        self.pending_dispatch = False


@dataclass
class ClusterRequest(Request):
    """One client query: the shared request fields plus its
    scatter-gather state."""

    #: Winning partial row per shard.
    partials: dict = field(default_factory=dict)
    #: Shards neither answered nor given up yet.
    pending: int = 0
    #: The merged answer of a delivered request.
    result: Optional[tuple] = None


class ClusterCoordinator(EventKernel):
    """Scatter-gather engine over N nodes (see module docstring)."""

    request_type = ClusterRequest

    def __init__(self, config, machine, nodes, network, shard_map, specs,
                 driver, seed, injector=None, breaker=None):
        super().__init__(machine, driver, breaker,
                         config.degrade_keep_tenants)
        self.config = config
        self.nodes = nodes
        self.network = network
        self.shard_map = shard_map
        self.specs = specs
        self.seed = seed
        self.injector = injector
        self._merge_base = machine.address_space.alloc(
            4096, label="cluster/merge").base
        #: Waste reason per losing attempt id; winners are absent.
        self.attempt_outcomes: dict[str, str] = {}
        #: Completed sub-request latencies (hedge-delay quantile input).
        self._samples: list[float] = []
        self.subreqs_sent = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.timeouts = 0

    # ------------------------------------------------------------ plumbing

    def _advance(self, machine, t: float) -> None:
        """Advance a machine's clock to ``t``, charging the gap as idle
        (background energy; outside any request span, so it classifies
        as useful system cost, never as fault waste)."""
        if t > machine.time_s:
            machine.idle(t - machine.time_s)

    # ------------------------------------------------------------ dispatch

    def _dispatch(self, sub: SubRequest, t: float, hedge: bool) -> None:
        request = sub.request
        node = self.nodes[sub.replicas[sub.next_replica % len(sub.replicas)]]
        sub.next_replica += 1
        attempt_id = (f"r{request.request_id}.s{sub.shard}"
                      f".a{sub.n_attempts}")
        attempt = SubAttempt(attempt_id, sub, node, hedge, t)
        sub.n_attempts += 1
        self.subreqs_sent += 1
        if sub.dispatched_s is None:
            sub.dispatched_s = t
        if hedge:
            sub.hedged = True
            self.hedges += 1
        with self.machine.tracer.span(
            f"{attempt_id}.tx", category=CATEGORY_NET,
            tenant=request.tenant, request=request.request_id,
            attempt=attempt_id,
        ):
            self.network.charge_tx("coord", REQUEST_BYTES)
        status, arrival = self.network.send(
            "coord", node.name, REQUEST_BYTES, t)
        if status == DELIVERED:
            self._push(arrival, "node_recv", attempt)
        else:
            attempt.fate = status
        self._push(t + self.config.subreq_timeout_s, "timeout", attempt)
        if (not hedge and sub.n_attempts == 1
                and self.config.hedge_quantile is not None
                and len(sub.replicas) > 1
                and len(self._samples) >= self.config.hedge_min_samples):
            delay = percentile(self._samples,
                               self.config.hedge_quantile * 100.0)
            self._push(t + delay, "hedge", sub)

    def _handle_arrival(self, t: float, payload) -> None:
        request = self._issue(t, *payload)
        if request is None:
            return
        subreqs = [SubRequest(request, shard, self.shard_map.replicas(shard))
                   for shard in range(self.shard_map.n_shards)]
        request.pending = len(subreqs)
        for sub in subreqs:
            self._dispatch(sub, t, hedge=False)

    # ------------------------------------------------------------ node side

    def _handle_node_recv(self, t: float, attempt: SubAttempt) -> None:
        node = attempt.node
        sub = attempt.subreq
        request = sub.request
        machine = node.machine
        spec = self.specs[request.job.name]
        plan = self.injector.plan if self.injector is not None else None
        # FIFO queueing on the node's own clock; a rebooting node works
        # the backlog off once it is up again.
        self._advance(machine, max(t, node.crashed_until))
        crashed = False
        slowed = False
        row = None
        with machine.tracer.span(
            attempt.attempt_id, category=CATEGORY_EXEC,
            tenant=request.tenant, request=request.request_id,
            attempt=attempt.attempt_id, node=node.name,
        ):
            self.network.charge_rx(node.name, REQUEST_BYTES)
            if self.injector is not None:
                crashed = self.injector.node_crash()
                if not crashed:
                    slowed = self.injector.node_slow()
            started_s = machine.time_s
            if crashed:
                # The node dies a seeded fraction of the way through the
                # shard scan: that partial work is charged, then lost.
                nrows = self.shard_map.rows[spec.table][sub.shard]
                frac = seeded_rng(
                    derive_seed(self.seed, "cluster", "crash-frac",
                                attempt.attempt_id),
                    "crash fraction",
                ).random()
                k = max(1, int(nrows * (0.1 + 0.8 * frac)))
                partial_plan = Aggregate(
                    Limit(shard_scan(spec.table, sub.shard), k),
                    (), spec.aggs)
                node.db.execute_iter(partial_plan, slot=0).drain()
            else:
                rows = node.db.execute_iter(
                    spec.shard_plans[sub.shard], slot=0).fetch_all()
                row = rows[0]
                if slowed:
                    # Straggler: the node holds the finished result for
                    # (factor - 1) x the execution time.  Stall, not
                    # compute: it wastes tail latency, near-zero joules.
                    node.slowdowns += 1
                    stall = ((plan.node_slow_factor - 1.0)
                             * (machine.time_s - started_s))
                    with machine.tracer.span(
                        f"{attempt.attempt_id}.straggle",
                        category=CATEGORY_FAULT, wasted="node_slow",
                    ):
                        machine.idle(stall)
        if crashed:
            attempt.fate = "node_crash"
            node.crashes += 1
            node.crashed_until = (machine.time_s
                                  + plan.node_crash_restart_s)
            # Reboot cold: buffer pool, pagers, and CPU caches all gone.
            node.db.clear_caches()
            machine.hierarchy.flush()
            return
        node.subreqs_served += 1
        resp_bytes = RESPONSE_HEADER_BYTES + VALUE_BYTES * len(spec.aggs)
        with machine.tracer.span(
            f"{attempt.attempt_id}.tx", category=CATEGORY_NET,
            tenant=request.tenant, request=request.request_id,
            attempt=attempt.attempt_id,
        ):
            self.network.charge_tx(node.name, resp_bytes)
        status, arrival = self.network.send(
            node.name, "coord", resp_bytes, machine.time_s)
        if status == DELIVERED:
            self._push(arrival, "coord_recv", (attempt, row))
        else:
            attempt.fate = status

    # ------------------------------------------------------------ gather

    def _loser_reason(self, attempt: SubAttempt, sub: SubRequest) -> str:
        if attempt.fate is not None:
            return attempt.fate
        if sub.failed:
            return "timeout"
        if attempt.hedge:
            return "hedge_loser"
        if sub.winner_hedge:
            return "hedge_loser"
        return "failover_reexec"

    def _handle_coord_recv(self, t: float, payload) -> None:
        attempt, row = payload
        sub = attempt.subreq
        request = sub.request
        spec = self.specs[request.job.name]
        resp_bytes = RESPONSE_HEADER_BYTES + VALUE_BYTES * len(spec.aggs)
        self._advance(self.machine, t)
        with self.machine.tracer.span(
            f"{attempt.attempt_id}.rx", category=CATEGORY_NET,
            tenant=request.tenant, request=request.request_id,
            attempt=attempt.attempt_id,
        ):
            self.network.charge_rx("coord", resp_bytes)
        if sub.satisfied or sub.failed:
            # A loser landed: hedge/failover duplicate, or a shard the
            # coordinator already gave up on.
            self.attempt_outcomes.setdefault(
                attempt.attempt_id, self._loser_reason(attempt, sub))
            return
        sub.satisfied = True
        sub.winner_id = attempt.attempt_id
        sub.winner_hedge = attempt.hedge
        # The timeout handler may have provisionally judged this attempt
        # before its (late) response won the shard after all.
        self.attempt_outcomes.pop(attempt.attempt_id, None)
        if attempt.hedge:
            self.hedge_wins += 1
        self._samples.append(t - sub.dispatched_s)
        if self.breaker is not None:
            self.breaker.record(True, t)
        request.partials[sub.shard] = row
        request.pending -= 1
        if request.pending == 0:
            self._finalize(request, t)

    def _finalize(self, request: ClusterRequest, t: float) -> None:
        spec = self.specs[request.job.name]
        missing = self.shard_map.n_shards - len(request.partials)
        if missing == 0 or (request.partials and self.config.allow_partial):
            self._advance(self.machine, t)
            with self.machine.tracer.span(
                f"r{request.request_id}.merge", category=CATEGORY_MERGE,
                tenant=request.tenant, request=request.request_id,
            ):
                partial_rows = [request.partials[shard]
                                for shard in sorted(request.partials)]
                ops = len(partial_rows) * len(spec.aggs)
                self.machine.hot_loads(self._merge_base, ops)
                self.machine.add(ops)
                request.result = merge_partials(spec.aggs, partial_rows)
            request.state = COMPLETED if missing == 0 else DEGRADED_PARTIAL
        else:
            request.state = FAILED
        request.finish_s = t
        self._terminal(request, t)

    # ------------------------------------------------------------ timeouts

    def _handle_timeout(self, t: float, attempt: SubAttempt) -> None:
        sub = attempt.subreq
        request = sub.request
        if sub.satisfied or sub.failed:
            # Shard already resolved; this attempt lost unless it won.
            if attempt.attempt_id != sub.winner_id:
                self.attempt_outcomes.setdefault(
                    attempt.attempt_id, self._loser_reason(attempt, sub))
            return
        sub.timed_out += 1
        self.timeouts += 1
        if self.breaker is not None:
            self.breaker.record(False, t)
        # Provisional judgement; coord_recv retracts it if a late
        # response from this very attempt ends up winning the shard.
        self.attempt_outcomes.setdefault(
            attempt.attempt_id, attempt.fate or "timeout")
        if sub.n_attempts < self.config.failover_attempts:
            self.failovers += 1
            sub.pending_dispatch = True
            self._push(t + self.config.failover_backoff_s, "dispatch", sub)
            return
        if sub.timed_out >= sub.n_attempts and not sub.pending_dispatch:
            # Every launched attempt timed out and no more are allowed:
            # the shard is unreachable.
            sub.failed = True
            request.pending -= 1
            if request.pending == 0:
                self._finalize(request, t)

    def _handle_dispatch(self, t: float, sub: SubRequest) -> None:
        sub.pending_dispatch = False
        if sub.satisfied or sub.failed:
            return
        self._dispatch(sub, t, hedge=False)

    def _handle_hedge(self, t: float, sub: SubRequest) -> None:
        if sub.satisfied or sub.failed or sub.n_attempts > 1:
            return
        self._dispatch(sub, t, hedge=True)

    # ------------------------------------------------------------ main loop

    def run(self) -> RequestLedger:
        """Run every request to a terminal state; returns the ledger."""
        self._run_events({
            "arrival": self._handle_arrival,
            "node_recv": self._handle_node_recv,
            "coord_recv": self._handle_coord_recv,
            "timeout": self._handle_timeout,
            "dispatch": self._handle_dispatch,
            "hedge": self._handle_hedge,
        })
        for node in self.nodes:
            node.machine.settle()
        return self.ledger
