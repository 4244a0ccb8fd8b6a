"""Sampling aggregator: always-on telemetry that survives serve scale.

The PR 1 span tracer materialises one :class:`~repro.obs.span.Span` per
traced region.  That is the right tool for a single query, but a serve
run at production scale opens millions of quantum spans — the tree alone
would dwarf the simulated heap.  This module provides the always-on
alternative: :class:`SamplingAggregator` implements the same tracer duck
type (``enabled`` / ``span`` / ``open`` / ``enter`` / ``exit`` /
``wrap_rows``) but folds every settle-partitioned delta into **exact
streaming aggregates** instead of keeping spans:

* per **group** ``(phase, operator)`` — where the phase is the span
  category (``serve.quantum``, ``operator``, ``io``, ``fault``, ...) and
  the operator is the span's op/job name — energy, time, PMU counters
  (which carry the per-cache-level access/hit splits), and streaming
  histograms of per-span time and energy;
* per **meta tuple** ``(tenant, request, attempt, wasted)`` — the exact
  partition the serve report's tenant attribution and useful/wasted
  energy split are built on, kept in the compact columns of
  :class:`MetaEnergy` (a few dozen bytes per request, not a tuple, a
  list and four floats).

Aggregation is *exact*: every joule and every counter increment lands in
exactly one group (the one open when the work happened), so the PR 4
conservation invariant — ``useful_energy_j + wasted_energy_j ==
active_energy_j`` — holds to the joule at **any** exemplar sampling
rate.  Sampling applies only to *exemplars*: a seeded reservoir keeps a
bounded set of representative closed spans for debugging; admitting or
dropping an exemplar never touches the aggregates.

:class:`NullTelemetry` is the third mode (telemetry off): it records
nothing per span (``enabled`` is False, so instrumentation sites skip
their spans entirely) and prices only the whole window at finish, which
is what the obs-overhead CI job benchmarks the sampler against.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import ConfigError
from repro.fold import left_sum
from repro.obs.metrics import Histogram
from repro.obs.span import domain_energy_j
from repro.obs.tracer import NullTracer, SettlePartition
from repro.seeding import seeded_rng
from repro.sim.pmu import PmuCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: Span-meta keys a frame inherits from its parent (the same downward
#: inheritance :meth:`repro.obs.span.Trace.active_energy_by_metas` uses).
META_KEYS = ("tenant", "request", "attempt", "wasted")
_WASTED = META_KEYS.index("wasted")
#: The meta of the untagged system row.
_UNTAGGED = (None,) * len(META_KEYS)

#: Cache levels reported in per-group summaries.
CACHE_LEVELS = ("L1D", "L2", "L3", "mem")

#: A request id at least this far past the end of the dense columns
#: takes a sparse row instead of growing them.  Serve runs number
#: requests in issue order and tag them roughly in that order.
DENSE_SLACK = 4096


def _field_key(value) -> str:
    """One field's fold-key string: ``str``, None last."""
    return "1" if value is None else "0" + str(value)


def fold_key(meta: tuple) -> tuple:
    """The order every meta fold adds its rows in: each field by
    ``str``, None last — the order of ``(v is None, str(v))`` pairs,
    with one string per field."""
    return tuple(map(_field_key, meta))


class MetaEnergy:
    """``core_j, package_j, dram_j, time_s`` per meta tuple, in compact
    columns.

    A serve run tags each request's quanta with ``(tenant, request,
    attempt, wasted)``.  The first meta seen for an int request id
    ``r`` is *dense* row ``r``: four ``array('d')`` columns indexed by
    request id, plus a code into a table of ``(tenant, attempt,
    wasted)`` triples, which grows with tenants and attempts, not with
    requests.  Every other meta — the untagged system row, a retry's
    later attempts, a ``wasted`` tag, a request that is not an int — is
    *sparse* row ``j``, addressed as ``~j`` (a negative row).
    """

    def __init__(self) -> None:
        self.combos: list[tuple] = []
        self._combo_code: dict[tuple, int] = {}
        #: Dense row -> index into :attr:`combos`; -1 = unused id.
        self.code = array("i")
        self.dense = tuple(array("d") for _ in range(4))
        self.sparse_meta: list[tuple] = []
        self._sparse_row: dict[tuple, int] = {}
        self.sparse = tuple(array("d") for _ in range(4))

    def row(self, meta: tuple) -> int:
        """The row accumulating ``meta``'s totals, created if new."""
        tenant, request, attempt, wasted = meta
        code_col = self.code
        n = len(code_col)
        if type(request) is int and 0 <= request < n + DENSE_SLACK:
            combo = (tenant, attempt, wasted)
            code = self._combo_code.get(combo)
            if code is None:
                code = self._combo_code[combo] = len(self.combos)
                self.combos.append(combo)
            if request >= n:
                grow = request + 1 - n
                code_col.extend(repeat(-1, grow))
                for column in self.dense:
                    column.extend(repeat(0.0, grow))
            held = code_col[request]
            if held < 0:
                code_col[request] = code
                return request
            if held == code:
                return request
        row = self._sparse_row.get(meta)
        if row is None:
            row = self._sparse_row[meta] = ~len(self.sparse_meta)
            self.sparse_meta.append(meta)
            for column in self.sparse:
                column.append(0.0)
        return row

    def add(self, row: int, core_j: float, package_j: float,
            dram_j: float, time_s: float) -> None:
        columns = self.dense if row >= 0 else self.sparse
        i = row if row >= 0 else ~row
        columns[0][i] += core_j
        columns[1][i] += package_j
        columns[2][i] += dram_j
        columns[3][i] += time_s

    def entries(self, order: array) -> Iterator[tuple]:
        """``(meta, core_j, package_j, dram_j, time_s)`` of each row in
        ``order``."""
        combos = self.combos
        code_col = self.code
        sparse_meta = self.sparse_meta
        core, package, dram, time = self.dense
        s_core, s_package, s_dram, s_time = self.sparse
        for row in order:
            if row >= 0:
                tenant, attempt, wasted = combos[code_col[row]]
                yield ((tenant, row, attempt, wasted), core[row],
                       package[row], dram[row], time[row])
            else:
                i = ~row
                yield (sparse_meta[i], s_core[i], s_package[i], s_dram[i],
                       s_time[i])

    def fold_order(self) -> array:
        """Every row, sorted by :func:`fold_key` of its meta.

        Rows are bucketed by the first key field, the tenant string, and
        the buckets are visited in sorted order, each sorted by the
        remaining fields on its own, so live key objects are bounded by
        the largest tenant's rows, not the run's.  A bucket holds its
        dense rows in id order, then its sparse rows in creation order,
        and the sort is stable, so rows whose keys tie (distinct values
        with one ``str``, such as ``5`` and ``"5"``, which serve runs
        never tag) keep that order — the concatenation is the one sort
        of every row."""
        parts = [fold_key(combo) for combo in self.combos]
        buckets: dict = {}
        combo_bucket = [buckets.setdefault(tenant, array("q"))
                        for tenant, _, _ in parts]
        for row, code in enumerate(self.code):
            if code >= 0:
                combo_bucket[code].append(row)
        del combo_bucket  # so each bucket is freed once it is sorted
        for j, meta in enumerate(self.sparse_meta):
            buckets.setdefault(_field_key(meta[0]), array("q")).append(~j)
        code_col = self.code
        sparse_meta = self.sparse_meta

        def key(row: int) -> tuple:
            if row < 0:
                return tuple(map(_field_key, sparse_meta[~row][1:]))
            _, attempt, wasted = parts[code_col[row]]
            return ("0" + str(row), attempt, wasted)

        order = array("q")
        for tenant in sorted(buckets):
            order.extend(sorted(buckets.pop(tenant), key=key))
        return order


class _Frame:
    """One open region: group identity, inherited meta, self totals."""

    __slots__ = ("name", "category", "group", "meta", "row", "first_ts",
                 "last_ts", "time_s", "core_j", "package_j", "dram_j",
                 "enters")

    def __init__(self, name: str, category: str, group: tuple,
                 meta: tuple):
        self.name = name
        self.category = category
        self.group = group
        self.meta = meta
        #: This frame's :class:`MetaEnergy` row, bound at first credit.
        self.row: Optional[int] = None
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.time_s = 0.0
        self.core_j = 0.0
        self.package_j = 0.0
        self.dram_j = 0.0
        self.enters = 0


class GroupAggregate:
    """Exact streaming totals for one ``(phase, operator)`` group."""

    __slots__ = ("spans", "enters", "time_s", "busy_s", "idle_s",
                 "core_j", "package_j", "dram_j", "counters",
                 "time_hist", "energy_hist")

    def __init__(self) -> None:
        self.spans = 0
        self.enters = 0
        self.time_s = 0.0
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.core_j = 0.0
        self.package_j = 0.0
        self.dram_j = 0.0
        self.counters = PmuCounters()
        #: Per-closed-span self wall-clock seconds.
        self.time_hist = Histogram("span_time_s", {})
        #: Per-closed-span self package joules.
        self.energy_hist = Histogram("span_package_j", {})

    def cache_levels(self) -> dict:
        """Per-cache-level access/hit counts of this group's work."""
        c = self.counters
        return {
            "L1D": {"accesses": c.n_l1d, "hits": c.l1d_hits},
            "L2": {"accesses": c.n_l2, "hits": c.l2_hits},
            "L3": {"accesses": c.n_l3, "hits": c.l3_hits},
            "mem": {"accesses": c.n_mem, "hits": 0},
        }

    def microops(self) -> dict:
        """Instruction counts per micro-op class of this group's work."""
        c = self.counters
        return {
            "load": c.n_load_inst,
            "store": c.n_store_inst,
            "add": c.n_add,
            "nop": c.n_nop,
            "mul": c.n_mul,
            "cmp": c.n_cmp,
            "branch": c.n_branch,
            "other": c.n_other,
        }


class Exemplar:
    """A reservoir-sampled closed span (aggregates never depend on it)."""

    __slots__ = ("name", "category", "group", "meta", "first_ts", "last_ts",
                 "time_s", "package_j", "enters")

    def __init__(self, frame: _Frame, last_ts: float):
        self.name = frame.name
        self.category = frame.category
        self.group = frame.group
        self.meta = frame.meta
        self.first_ts = frame.first_ts
        self.last_ts = last_ts
        self.time_s = frame.time_s
        self.package_j = frame.package_j
        self.enters = frame.enters

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "operator": self.group[1],
            "meta": {k: v for k, v in zip(META_KEYS, self.meta)
                     if v is not None},
            "first_ts_s": self.first_ts,
            "last_ts_s": self.last_ts,
            "self_time_s": self.time_s,
            "self_package_j": self.package_j,
            "enters": self.enters,
        }


class TelemetrySummary:
    """The finished output of a sampling run.

    Quacks like :class:`~repro.obs.span.Trace` for everything the serve
    report needs — ``domain``, ``total_active_j``,
    ``active_energy_by_meta``, ``active_energy_by_metas``,
    ``active_energy_by_request``, ``energy_folds`` — but is built from
    the exact streaming aggregates, not a span tree.
    """

    def __init__(self, domain: str, background, groups: dict,
                 meta_energy: MetaEnergy, exemplars: list,
                 exemplar_rate: float, exemplars_offered: int):
        self.domain = domain
        self.background = background
        #: ``{(phase, operator): GroupAggregate}``
        self.groups = groups
        #: Energy and time per ``(tenant, request, attempt, wasted)``.
        self.meta_energy = meta_energy
        self.exemplars = exemplars
        self.exemplar_rate = exemplar_rate
        self.exemplars_offered = exemplars_offered
        self._fold_order: Optional[array] = None

    # ------------------------------------------------------------ energy

    def _background_w(self) -> float:
        if self.background is None:
            return 0.0
        return self.background.rate(self.domain)

    def _metas(self) -> Iterator[tuple]:
        """``(meta, active_j)`` per meta row, in :func:`fold_key` order
        (sorted once per summary), so every fold adds the same operands
        in the same order."""
        rows = self.meta_energy
        if self._fold_order is None:
            self._fold_order = rows.fold_order()
        background_w = self._background_w()
        domain = self.domain
        for meta, core_j, package_j, dram_j, time_s in rows.entries(
                self._fold_order):
            yield meta, (domain_energy_j(core_j, package_j, dram_j, domain)
                         - background_w * time_s)

    @property
    def total_active_j(self) -> float:
        """Measured Active energy of the whole window (exact sum of the
        meta-partition — the same partition the split reports)."""
        return left_sum(active for _, active in self._metas())

    def active_energy_by_meta(self, key: str) -> dict:
        """Partition Active energy by one inherited meta key (the
        one-key view of :meth:`active_energy_by_metas`)."""
        return {owner: joules for (owner,), joules
                in self.active_energy_by_metas((key,)).items()}

    def active_energy_by_metas(self, keys: tuple) -> dict:
        """Partition Active energy by a tuple of inherited meta keys
        (exactly :meth:`repro.obs.span.Trace.active_energy_by_metas`)."""
        indices = [META_KEYS.index(key) for key in keys]
        groups: dict = {}
        for meta, active in self._metas():
            owner = tuple(meta[i] for i in indices)
            groups[owner] = groups.get(owner, 0.0) + active
        return groups

    def active_energy_by_request(self) -> Iterator[tuple]:
        """``(request, active_j)`` per tagged request in ascending id
        order (exactly :meth:`repro.obs.span.Trace.active_energy_by_request`);
        the request fold of :meth:`energy_folds`."""
        return self.energy_folds("tenant")[2]

    def energy_folds(self, key: str) -> tuple:
        """``(active_energy_by_meta(key), total_active_j,
        active_energy_by_request())`` from one pass over the meta rows,
        each fold adding the same operands in the same order as on its
        own (:func:`~repro.fold.left_sum` consumes the pass, so the total
        is its float sum).

        The request fold adds each request's joules from 0.0 into an
        id-indexed column, with a presence byte per id, so it builds no
        per-request objects.  Ids outside the dense columns' range
        (negative, past :data:`DENSE_SLACK`, not an int), which serve
        runs never tag, fold in a dict that is merged in id order."""
        index = META_KEYS.index(key)
        groups: dict = {}
        n = len(self.meta_energy.code)
        joules = array("d", bytes(8 * n))
        seen = bytearray(n)
        others: dict = {}

        def actives() -> Iterator[float]:
            for meta, active in self._metas():
                owner = meta[index]
                groups[owner] = groups.get(owner, 0.0) + active
                rid = meta[1]
                if type(rid) is int and 0 <= rid < n:
                    joules[rid] += active
                    seen[rid] = 1
                elif rid is not None:
                    others[rid] = others.get(rid, 0.0) + active
                yield active

        total = left_sum(actives())
        dense = zip(compress(range(n), seen), compress(joules, seen))
        by_request = heapq.merge(
            dense, sorted(others.items(), key=itemgetter(0)),
            key=itemgetter(0))
        return groups, total, by_request

    # ------------------------------------------------------------ views

    def group_table(self) -> dict:
        """JSON-ready per-group aggregate table, sorted by energy."""
        rows = {}
        for (phase, operator), agg in self.groups.items():
            active = (domain_energy_j(agg.core_j, agg.package_j,
                                      agg.dram_j, self.domain)
                      - self._background_w() * agg.time_s)
            rows[f"{phase}:{operator}"] = {
                "phase": phase,
                "operator": operator,
                "spans": agg.spans,
                "enters": agg.enters,
                "time_s": agg.time_s,
                "busy_s": agg.busy_s,
                "idle_s": agg.idle_s,
                "active_j": active,
                "span_time_s": _hist_summary(agg.time_hist),
                "span_package_j": _hist_summary(agg.energy_hist),
                "cache_levels": agg.cache_levels(),
                "microops": agg.microops(),
            }
        return dict(sorted(rows.items(),
                           key=lambda kv: -kv[1]["active_j"]))

    def render_table(self, top: int = 20) -> str:
        """Human-readable ranked group table."""
        lines = [
            f"sampled telemetry: domain={self.domain}  "
            f"active={self.total_active_j:.4e} J  "
            f"groups={len(self.groups)}  "
            f"exemplars={len(self.exemplars)}/{self.exemplars_offered} "
            f"(rate {self.exemplar_rate:g})"
        ]
        for name, row in list(self.group_table().items())[:top]:
            lines.append(
                f"  {name:<40} {row['active_j']:.3e} J  "
                f"{row['time_s']:.3e} s  spans={row['spans']}"
            )
        return "\n".join(lines)


def _hist_summary(hist: Histogram) -> dict:
    return {
        "count": hist.count,
        "mean": hist.mean,
        "p50": _nan_none(hist.quantile(0.50)),
        "p95": _nan_none(hist.quantile(0.95)),
        "p99": _nan_none(hist.quantile(0.99)),
    }


def _nan_none(value: float):
    return None if isinstance(value, float) and math.isnan(value) else value


class SamplingAggregator(SettlePartition):
    """Settle-partitioned streaming aggregator bound to one machine.

    Same context-manager lifecycle as :class:`~repro.obs.tracer.Tracer`::

        sampler = SamplingAggregator(machine, background=bg, seed=seed)
        with sampler:
            server.run()
        summary = sampler.finish()

    Operators that reach :meth:`wrap_rows` (``repro trace --telemetry
    sampler``) are re-entered per row exactly like the full tracer, so
    the group table shows per-operator energy.  Serve and cluster plans
    run through ``ExecSession``, whose context never carries the
    telemetry, so their operator work is credited to the enclosing
    quantum's group.
    """

    def __init__(self, machine: "Machine", background=None, seed: int = 0,
                 exemplar_rate: float = 0.1, reservoir_size: int = 64,
                 name: str = "sampled"):
        if not 0.0 <= exemplar_rate <= 1.0:
            raise ConfigError(
                f"exemplar_rate must be in [0, 1], got {exemplar_rate}"
            )
        if reservoir_size < 1:
            raise ConfigError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.exemplar_rate = exemplar_rate
        self.reservoir_size = reservoir_size
        self._rng = seeded_rng(seed, "obs.sampler")
        self.groups: dict[tuple, GroupAggregate] = {}
        self.meta_energy = MetaEnergy()
        self.exemplars: list[Exemplar] = []
        self.exemplars_offered = 0
        super().__init__(machine, background,
                         _Frame(name, "trace", ("trace", name), _UNTAGGED))

    # ------------------------------------------------------------ accounting

    def _credit(self, frame: _Frame, counters, core_j: float,
                package_j: float, dram_j: float, time_s: float,
                busy_s: float, idle_s: float) -> None:
        """Fold one delta into the frame's group and meta aggregates."""
        frame.time_s += time_s
        frame.core_j += core_j
        frame.package_j += package_j
        frame.dram_j += dram_j

        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.time_s += time_s
        agg.busy_s += busy_s
        agg.idle_s += idle_s
        agg.core_j += core_j
        agg.package_j += package_j
        agg.dram_j += dram_j
        if counters is not None:
            agg.counters.accumulate(counters)

        row = frame.row
        if row is None:
            row = frame.row = self.meta_energy.row(frame.meta)
        self.meta_energy.add(row, core_j, package_j, dram_j, time_s)

    def _wasted(self, frame: _Frame):
        return frame.meta[_WASTED]

    # ------------------------------------------------------------ span API

    def open(self, name: str, category: str = "span", **meta) -> _Frame:
        parent = self._stack[-1]
        inherited = tuple(
            meta.get(key, parent.meta[i])
            for i, key in enumerate(META_KEYS)
        )
        operator = meta.get("op") or meta.get("job") or name
        return _Frame(name, category, (category, operator), inherited)

    def enter(self, frame: _Frame) -> None:
        # SettlePartition.enter inlined: the per-quantum hot path.
        self._credit_top()
        self._stack.append(frame)
        frame.enters += 1
        if frame.first_ts is None:
            frame.first_ts = self.machine.time_s
        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.enters += 1

    def _close(self, frame: _Frame, rows) -> None:
        """A span will not be re-entered: observe its self totals into
        the group histograms and offer it to the exemplar reservoir."""
        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.spans += 1
        agg.time_hist.observe(frame.time_s)
        agg.energy_hist.observe(frame.package_j)
        # Reservoir admission: one RNG draw per closed span regardless
        # of outcome, so the stream of draws (and therefore which spans
        # become exemplars) is a pure function of the seed and the
        # workload — never of the reservoir's current contents.
        admit = self._rng.random() < self.exemplar_rate
        slot = self._rng.randrange(max(1, self.exemplars_offered + 1))
        if admit:
            self.exemplars_offered += 1
            exemplar = Exemplar(frame, self.machine.time_s)
            if len(self.exemplars) < self.reservoir_size:
                self.exemplars.append(exemplar)
            elif slot < self.reservoir_size:
                self.exemplars[slot] = exemplar

    # ------------------------------------------------------------ lifecycle

    def _result(self) -> TelemetrySummary:
        self._close(self._stack[0], None)
        from repro.micro.measurement import select_domain

        total = PmuCounters()
        for agg in self.groups.values():
            total.accumulate(agg.counters)
        return TelemetrySummary(
            select_domain(total), self.background, self.groups,
            self.meta_energy, self.exemplars, self.exemplar_rate,
            self.exemplars_offered,
        )

    # The e2e layer trace hooks these in each class's own dict.
    exit = SettlePartition.exit
    wrap_rows = SettlePartition.wrap_rows
    finish = SettlePartition.finish


class NullTelemetry(NullTracer, SettlePartition):
    """Telemetry ``off``: whole-window totals only, zero per-span cost.

    A :class:`~repro.obs.tracer.NullTracer` first (``enabled`` is False,
    every span hook a no-op), so every instrumentation site skips its
    span work entirely — this is the baseline the obs-overhead CI job
    holds the sampler to.  The settle-partition core then credits the
    whole window, at finish, to the untagged system row.
    """

    def __init__(self, machine: "Machine", background=None):
        self._counters = PmuCounters()
        self.meta_energy = MetaEnergy()
        super().__init__(machine, background,
                         _Frame("off", "trace", ("trace", "off"), _UNTAGGED))

    def _credit(self, frame: _Frame, counters, core_j: float,
                package_j: float, dram_j: float, time_s: float,
                busy_s: float, idle_s: float) -> None:
        if counters is not None:
            self._counters.accumulate(counters)
        self.meta_energy.add(self.meta_energy.row(frame.meta), core_j,
                             package_j, dram_j, time_s)

    _wasted = SamplingAggregator._wasted

    def _result(self) -> TelemetrySummary:
        from repro.micro.measurement import select_domain

        return TelemetrySummary(select_domain(self._counters),
                                self.background, {}, self.meta_energy, [],
                                0.0, 0)
