"""Workload drivers: who issues queries, and when.

Two standard load-generation shapes, both fully deterministic given the
root seed (every random draw comes from a per-client RNG derived via
:mod:`repro.seeding`):

* **Open loop** (:class:`OpenLoopDriver`) — a Poisson arrival process:
  each client issues at exponential interarrival times regardless of
  completions, so queueing pressure is independent of service rate.
  All arrival times are pre-generated; the run replays them.
* **Closed loop** (:class:`ClosedLoopDriver`) — each client keeps
  exactly one request outstanding: it issues, waits for a terminal
  state (completion, rejection, or shed all count — a rejected client
  retries with its next query), thinks for an exponential think time,
  and issues again.

Clients cycle through their mix's job cycle and are assigned
round-robin to tenants, which is what makes per-tenant quotas and
per-tenant energy accounting meaningful downstream.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Optional

from repro.errors import ConfigError
from repro.seeding import derive_seed, seeded_rng
from repro.serve.request import JobTemplate
from repro.serve.workload import QueryMix

DRIVER_MODES = ("open", "closed")


def split_queries(n_queries: int, n_clients: int) -> list[int]:
    """Spread a query budget over clients as evenly as possible."""
    base, extra = divmod(n_queries, n_clients)
    return [base + (1 if i < extra else 0) for i in range(n_clients)]


class _ClientState:
    def __init__(self, index: int, jobs: tuple[JobTemplate, ...],
                 budget: int):
        self.index = index
        self.jobs = jobs
        self.budget = budget
        self.issued = 0

    def next_job(self) -> JobTemplate:
        job = self.jobs[self.issued % len(self.jobs)]
        self.issued += 1
        return job


class Driver:
    """Common shape: initial arrivals plus an optional reissue hook."""

    mode = "base"

    def __init__(self, mix: QueryMix, n_clients: int, n_queries: int,
                 seed: int, tenants: int):
        if n_clients < 1:
            raise ConfigError(f"need at least one client, got {n_clients}")
        if n_queries < 1:
            raise ConfigError(f"need at least one query, got {n_queries}")
        if tenants < 1:
            raise ConfigError(f"need at least one tenant, got {tenants}")
        self.mix = mix
        self.n_clients = n_clients
        self.n_queries = n_queries
        self.seed = seed
        self.tenants = tenants
        #: One name string per tenant, shared by all its requests.
        self._tenant_names = [f"tenant{i}" for i in range(tenants)]
        budgets = split_queries(n_queries, n_clients)
        self.clients = [
            _ClientState(i, mix.jobs_for_client(i), budgets[i])
            for i in range(n_clients)
        ]

    def tenant_of(self, client_index: int) -> str:
        return self._tenant_names[client_index % self.tenants]

    def initial_arrivals(self) -> list[tuple[float, int, JobTemplate]]:
        """``(arrival_s, client_index, job)`` triples known up front."""
        raise NotImplementedError

    def initial_arrival_entries(self) -> list[tuple]:
        """The initial arrivals as ready-made
        :class:`~repro.serve.loop.EventKernel` heap entries
        ``(arrival_s, 0, seq, "arrival", (client_index, job))``,
        generated in bulk.

        The list is sorted by ``(arrival_s, seq)`` with ``seq`` numbered
        in arrival order, so it is already a valid heap and the kernel
        can adopt it wholesale instead of pushing one entry at a time.
        """
        return [
            (t, 0, seq, "arrival", (client, job))
            for seq, (t, client, job) in enumerate(self.initial_arrivals())
        ]

    def on_terminal(self, client_index: int,
                    now: float) -> Optional[tuple[float, JobTemplate]]:
        """Called when a client's request reaches a terminal state.
        Returns the client's next ``(arrival_s, job)`` or None."""
        return None


class OpenLoopDriver(Driver):
    """Seeded-Poisson arrivals, issued independently of completions."""

    mode = "open"

    def __init__(self, mix: QueryMix, n_clients: int, n_queries: int,
                 seed: int, tenants: int, rate_qps: float):
        super().__init__(mix, n_clients, n_queries, seed, tenants)
        if rate_qps <= 0:
            raise ConfigError(f"arrival rate must be positive, got {rate_qps}")
        self.rate_qps = rate_qps

    def initial_arrivals(self):
        per_client_rate = self.rate_qps / self.n_clients
        arrivals = []
        for client in self.clients:
            rng = seeded_rng(
                derive_seed(self.seed, "serve", "open",
                            f"c{client.index}", "arrivals"),
                "open-loop arrivals",
            )
            # Draw the whole interarrival array at once, prefix-sum it,
            # then zip with the client's job cycle — bulk generation
            # instead of one append per draw.
            expovariate = rng.expovariate
            gaps = [expovariate(per_client_rate)
                    for _ in range(client.budget)]
            index = client.index
            arrivals.extend(zip(
                accumulate(gaps),
                repeat(index, client.budget),
                (client.next_job() for _ in range(client.budget)),
            ))
        arrivals.sort(key=lambda a: (a[0], a[1]))
        return arrivals


class ClosedLoopDriver(Driver):
    """One outstanding request per client, with think time between."""

    mode = "closed"

    def __init__(self, mix: QueryMix, n_clients: int, n_queries: int,
                 seed: int, tenants: int, think_s: float):
        super().__init__(mix, n_clients, n_queries, seed, tenants)
        if think_s < 0:
            raise ConfigError(f"think time must be >= 0, got {think_s}")
        self.think_s = think_s
        self._think_rngs = [
            seeded_rng(
                derive_seed(seed, "serve", "closed", f"c{i}", "think"),
                "closed-loop think time",
            )
            for i in range(n_clients)
        ]

    def _think(self, client_index: int) -> float:
        if self.think_s == 0:
            return 0.0
        return self._think_rngs[client_index].expovariate(1.0 / self.think_s)

    def initial_arrivals(self):
        arrivals = []
        for client in self.clients:
            if client.budget > 0:
                arrivals.append((0.0, client.index, client.next_job()))
        return arrivals

    def on_terminal(self, client_index: int, now: float):
        client = self.clients[client_index]
        if client.issued >= client.budget:
            return None
        return (now + self._think(client_index), client.next_job())


def make_driver(mode: str, mix: QueryMix, *, n_clients: int, n_queries: int,
                seed: int, tenants: int, rate_qps: float,
                think_s: float) -> Driver:
    if mode == "open":
        return OpenLoopDriver(mix, n_clients, n_queries, seed, tenants,
                              rate_qps)
    if mode == "closed":
        return ClosedLoopDriver(mix, n_clients, n_queries, seed, tenants,
                                think_s)
    raise ConfigError(f"unknown driver mode {mode!r}; known: {DRIVER_MODES}")
