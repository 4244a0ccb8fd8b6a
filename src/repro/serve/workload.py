"""Query mixes the serving layer's clients draw from.

Each mix assigns every client a deterministic *cycle* of
:class:`~repro.serve.request.JobTemplate`\\ s (clients loop over their
cycle).  Four mixes ship:

* ``basic`` — the seven Figure 6 basic operations, phase-shifted per
  client so concurrent clients exercise different operators;
* ``tpch`` — a light plan-backed TPC-H subset (Q1/Q3/Q6/Q12/Q14),
  phase-shifted the same way;
* ``thrash`` — the cache-thrashing mix: each client repeatedly scans
  one of three different large tables.  Interleaving clients (FIFO)
  alternates the tables and recycles the buffer pool and caches every
  query; batching same-table queries (the locality policy) keeps them
  warm.  This is the benchmark mix for the policy comparison;
* ``kv`` — YCSB-style operation batches against one shared LSM store
  (the §7 NoSQL follow-up), read-heavy to write-heavy per client;
* ``points`` — light point-lookup-shaped requests built directly from
  micro-ops (strided probes over a small per-client ring plus hot
  state and ALU work, no SQL layer).  Its work iterator implements the
  batched-quantum protocol (``run_rows``), so the serve engine's own
  overhead — not plan interpretation — dominates.  This is the mix the
  serve-scale benchmark scenario uses for million-request closed-loop
  runs.

All randomness (YCSB key choices) derives from the root seed via
:mod:`repro.seeding`; SQL and points mixes draw nothing at all.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.db.costs import EnergyModel, tables_used
from repro.db.engine import Database
from repro.db.exprs import Col
from repro.db.operators import AggSpec
from repro.db.planner import Aggregate, Logical, Scan
from repro.errors import ConfigError
from repro.seeding import derive_seed, seeded_rng
from repro.serve.request import JobTemplate
from repro.sim.machine import Machine
from repro.workloads.basic_ops import BASIC_OPERATIONS, basic_operation_plan
from repro.workloads.kvstore import LsmStore, build_store
from repro.workloads.tpch.queries import QUERIES

MIXES = ("basic", "tpch", "thrash", "kv", "points")

#: Plan-backed TPC-H subset used by the ``tpch`` mix (scan-, join-,
#: and index-heavy shapes, all light enough to serve many times).
TPCH_SERVE_QUERIES = (1, 3, 6, 12, 14)

#: The three tables the ``thrash`` mix alternates over, with a numeric
#: column each so the scan touches real data bytes.
THRASH_TABLES = (
    ("lineitem", "l_extendedprice"),
    ("orders", "o_totalprice"),
    ("partsupp", "ps_supplycost"),
)

#: Operations per key-value job (one ``next()`` each).
KV_OPS_PER_JOB = 64

#: Shape of one ``points`` job: rows per request (below the default
#: quantum so a request completes in one quantum) and the per-row
#: micro-op bundle.  The ring is sized to sit inside L1D at the default
#: cache scale (the 2 KiB, 8-way L1D has 4 sets; 24 lines fill 6 of the
#: 8 ways of each), so after the context switch's kernel walk evicts
#: part of it the first rotation re-fills it and the remaining
#: rotations fold to bulk L1 hits.
POINT_ROWS_PER_JOB = 48
POINT_PROBES_PER_ROW = 128
POINT_RING_LINES = 24
POINT_RING_STRIDE = 7


class QueryMix:
    """Deterministic per-client job cycles."""

    def __init__(self, name: str, client_cycles: Sequence[Sequence[JobTemplate]]):
        if not client_cycles or any(not cycle for cycle in client_cycles):
            raise ConfigError(f"mix {name!r} has an empty client cycle")
        self.name = name
        self._cycles = [tuple(cycle) for cycle in client_cycles]

    def jobs_for_client(self, client_index: int) -> tuple[JobTemplate, ...]:
        return self._cycles[client_index % len(self._cycles)]


def _sql_job(db: Database, model: EnergyModel, name: str,
             plan: Logical) -> JobTemplate:
    """A plan-backed job whose SJF cost is ``model``'s predicted J.

    Each mix builds one model with no statistics and no calibration, so
    plans are priced with Table-2 micro-op magnitudes."""
    return JobTemplate(
        name=name,
        tables=tables_used(plan),
        cost=model.plan_energy_j(plan),
        make=lambda slot, plan=plan: db.execute_iter(plan, slot=slot),
    )


def _rotated(jobs: Sequence[JobTemplate], n_clients: int):
    """Phase-shift one job cycle so client i starts at job i."""
    jobs = tuple(jobs)
    return [jobs[i % len(jobs):] + jobs[: i % len(jobs)]
            for i in range(max(1, n_clients))]


def _basic_mix(db: Database, n_clients: int) -> QueryMix:
    model = EnergyModel(db.catalog, db.profile)
    jobs = [_sql_job(db, model, name, basic_operation_plan(name))
            for name in BASIC_OPERATIONS]
    return QueryMix("basic", _rotated(jobs, n_clients))


def _tpch_mix(db: Database, n_clients: int) -> QueryMix:
    model = EnergyModel(db.catalog, db.profile)
    jobs = []
    for number in TPCH_SERVE_QUERIES:
        query = QUERIES[number]
        if query.plan is None:  # pragma: no cover - subset is plan-backed
            continue
        jobs.append(_sql_job(db, model, f"Q{number}", query.plan))
    return QueryMix("tpch", _rotated(jobs, n_clients))


def _thrash_plan(table: str, column: str) -> Logical:
    return Aggregate(
        Scan(table, access="seq"),
        (),
        (AggSpec("n", "count"), AggSpec("total", "sum", Col(column))),
    )


def _thrash_mix(db: Database, n_clients: int) -> QueryMix:
    model = EnergyModel(db.catalog, db.profile)
    cycles = []
    for i in range(max(1, n_clients)):
        table, column = THRASH_TABLES[i % len(THRASH_TABLES)]
        cycles.append([_sql_job(db, model, f"scan-{table}",
                                _thrash_plan(table, column))])
    return QueryMix("thrash", cycles)


def _kv_ops(store: LsmStore, flavor: str, rng, n_keys: int) -> Iterator[int]:
    """One job's operation stream: one ``next()`` per operation."""
    for op_index in range(KV_OPS_PER_JOB):
        roll = rng.random()
        if flavor == "c" or (flavor == "b" and roll < 0.95) or (
            flavor == "a" and roll < 0.5
        ):
            store.get(rng.randrange(n_keys))
        else:
            store.put(rng.randrange(n_keys), "u")
        yield op_index


class _KvRun:
    """Batched-quantum adapter over one ``kv`` job's operation stream.

    ``run_rows(n)`` executes up to ``n`` operations inside one call —
    literally ``n`` pulls of the same :func:`_kv_ops` generator, so it
    charges exactly what per-row ``next()`` would (the store's key
    choices come from the job's own seeded rng either way) — and
    returns how many ran; fewer than asked means the batch is done.
    """

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterator[int]):
        self._ops = ops

    def __iter__(self) -> "_KvRun":
        return self

    def __next__(self) -> int:
        return next(self._ops)

    def run_rows(self, n: int) -> int:
        ops = self._ops
        done = 0
        try:
            for _ in range(n):
                next(ops)
                done += 1
        except StopIteration:
            pass
        return done


def _kv_mix(machine: Machine, seed: int, n_clients: int) -> QueryMix:
    n_keys = 1024
    store = build_store(machine, n_keys=n_keys,
                        seed=derive_seed(seed, "serve", "kv-load"))
    flavors = ("c", "b", "a")  # read-only, read-heavy, update-heavy
    issue_counts = [0] * max(1, n_clients)
    cycles = []
    for i in range(max(1, n_clients)):
        flavor = flavors[i % len(flavors)]

        def make(slot, client=i, flavor=flavor):
            issue = issue_counts[client]
            issue_counts[client] += 1
            rng = seeded_rng(
                derive_seed(seed, "serve", "kv", f"c{client}", str(issue)),
                "kv job",
            )
            return _KvRun(_kv_ops(store, flavor, rng, n_keys))

        weight = {"c": 1.0, "b": 1.2, "a": 1.5}[flavor]
        cycles.append([JobTemplate(
            name=f"ycsb-{flavor}",
            tables=("kv",),
            cost=KV_OPS_PER_JOB * weight,
            make=make,
        )])
    return QueryMix("kv", cycles)


class _PointRun:
    """Work iterator of one ``points`` request.

    Implements the batched-quantum protocol: :meth:`run_rows` executes
    up to ``n`` rows as a handful of bulk executor calls and returns
    how many it did (fewer than asked = exhausted); ``__next__`` runs
    exactly one row's bundle.  Both paths charge identical micro-ops —
    the bulk ring walk touches the same lines in the same order, and
    the counter ops are pure adds — so a report is bit-identical
    whichever path the serve loop takes.
    """

    def __init__(self, machine: Machine, ring, state):
        self.machine = machine
        self.ring = ring
        self.state = state
        self.remaining = POINT_ROWS_PER_JOB
        self._cursor = 0

    def __iter__(self) -> "_PointRun":
        return self

    def _run(self, rows: int) -> None:
        machine = self.machine
        self._cursor = machine.exec.load_ring(
            self.ring.base, self._cursor, POINT_RING_STRIDE,
            rows * POINT_PROBES_PER_ROW, self.ring.n_lines,
        )
        machine.hot_loads(self.state.base, 4 * rows)
        machine.hot_stores(self.state.base, 2 * rows)
        machine.add(6 * rows)
        machine.cmp(2 * rows)
        machine.branch(2 * rows)
        machine.other(4 * rows)

    def run_rows(self, n: int) -> int:
        rows = min(n, self.remaining)
        if rows > 0:
            self._run(rows)
            self.remaining -= rows
        return rows

    def __next__(self) -> int:
        if self.remaining <= 0:
            raise StopIteration
        self._run(1)
        self.remaining -= 1
        return self.remaining


def _points_mix(machine: Machine, n_clients: int) -> QueryMix:
    cycles = []
    for i in range(max(1, n_clients)):
        ring = machine.address_space.alloc_lines(
            POINT_RING_LINES, f"points/ring{i}")
        state = machine.address_space.alloc(256, label=f"points/state{i}")

        def make(slot, ring=ring, state=state):
            return _PointRun(machine, ring, state)

        cycles.append([JobTemplate(
            name="points",
            tables=("points",),
            cost=float(POINT_ROWS_PER_JOB),
            make=make,
        )])
    return QueryMix("points", cycles)


def build_mix(name: str, db: Database, n_clients: int, seed: int) -> QueryMix:
    """Build one named mix bound to a loaded database."""
    if name == "basic":
        return _basic_mix(db, n_clients)
    if name == "tpch":
        return _tpch_mix(db, n_clients)
    if name == "thrash":
        return _thrash_mix(db, n_clients)
    if name == "kv":
        return _kv_mix(db.machine, seed, n_clients)
    if name == "points":
        return _points_mix(db.machine, n_clients)
    raise ConfigError(f"unknown workload mix {name!r}; known: {MIXES}")
