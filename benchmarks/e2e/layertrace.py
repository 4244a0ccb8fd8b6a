"""Per-layer host time of one benchmark rep, measured from outside.

:class:`LayerTrace` replaces public functions of each simulator layer
with timing wrappers.  Nothing under ``src/`` changes: class attributes
are swapped for methods, and every module binding of a module-level
function is swapped for its wrapper (``from x import f`` copies the
binding, so patching only the defining module would miss callers).

Each wrapper counts calls, inclusive time and *self* time: the call's
duration minus the part covered by nested wrapped calls.  Self times of
all wrapped calls plus ``unattributed_s`` (the phase minus top-level
wrapped time) add up to the phase exactly, so a layer's share of the
timed phase is the ceiling on what speeding that layer up can add to
``ops_per_s``: the simulator is one thread and nothing waits.

Install before any ``Machine`` is built: ``Machine`` binds the
executor's ``load_one``/``store_one`` at construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _arg(index: int, name: str):
    """Units taken from a count argument."""
    def units(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[name]
    return units


def _len_arg(index: int, name: str):
    """Units taken from the length of a sequence argument (0 when the
    caller passed a one-shot iterator, whose length is unknown)."""
    def units(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[name]
        return len(value) if hasattr(value, "__len__") else 0
    return units


def _result(args, kwargs, result):
    return int(result)


def _len_result(args, kwargs, result):
    return len(result)


def _query_op(args, kwargs):
    db, number = args[0], (args[1] if len(args) > 1 else kwargs["number"])
    return f"{db.name}/Q{number}"


def _profile_op(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["name"]


def _load_op(args, kwargs):
    return args[0].name


class Boundary:
    """One wrapped layer entry point.

    ``key`` is ``<layer>.<function>``; ``targets`` are ``(module,
    attribute path)`` pairs sharing the key (overridden methods of one
    interface).  ``units`` maps ``(args, kwargs, result)`` to a count
    of work.  ``span`` keeps a full span per call (boundaries hit a few
    times per op only); ``op`` extracts an op id from the arguments.
    ``phase`` is the phase whose numbers the metrics report: the setup
    functions run before the timed phase.
    """

    def __init__(self, key, targets, units=None, span=False, op=None,
                 resume=False, phase="timed", metrics=("calls", "self_s")):
        self.key = key
        self.targets = targets
        self.units = units
        self.span = span
        self.op = op
        #: Generator function: time each resumption too (its body is the
        #: layer's own work, not a consumer's).
        self.resume = resume
        self.phase = phase
        self.metrics = metrics


def _batch(name, units=None):
    metrics = ("calls", "self_s", "units", "ns_per_unit") if units else ("calls", "self_s")
    return Boundary(f"sim.batch.{name}", [("repro.sim.batch", f"BatchExecutor.{name}")],
                    units=units, metrics=metrics)


#: Every wrapped boundary.  Which end-to-end metric each should move,
#: and on which workload, is tabulated in README.md.
BOUNDARIES = (
    _batch("scan_lines", _arg(2, "n_lines")),
    _batch("load_run", _len_arg(2, "offsets")),
    _batch("load_list", _len_arg(1, "addrs")),
    _batch("load_ring", _arg(4, "count")),
    _batch("load_bytes", _arg(2, "nbytes")),
    _batch("store_bytes", _arg(2, "nbytes")),
    _batch("store_repeat", _arg(2, "n")),
    _batch("load_one"),
    _batch("store_one"),
    Boundary("sim.hierarchy.load", [("repro.sim.hierarchy", "MemoryHierarchy.load")]),
    Boundary("sim.hierarchy.store", [("repro.sim.hierarchy", "MemoryHierarchy.store")]),
    Boundary("sim.cores.context_switch", [("repro.sim.cores", "CoreSet.context_switch")]),
    Boundary("sim.machine.settle", [("repro.sim.machine", "Machine.settle")]),
    Boundary("sim.machine.idle", [("repro.sim.machine", "Machine.idle")]),
    Boundary("sim.machine.governor_tick", [("repro.sim.machine", "Machine.governor_tick")]),
    Boundary("sim.network.send", [("repro.sim.network", "NetworkModel.send")],
             units=_arg(3, "nbytes"), metrics=("calls", "self_s", "bytes")),
    Boundary("db.engine.plan", [("repro.db.engine", "Database.plan")]),
    Boundary("db.engine.execute", [("repro.db.engine", "Database.execute")],
             units=_len_result, metrics=("calls", "self_s", "rows")),
    Boundary("db.engine.execute_iter", [("repro.db.engine", "Database.execute_iter")]),
    Boundary("db.engine.run_rows", [("repro.db.engine", "SessionRows.run_rows")],
             units=_result, span=True, metrics=("calls", "self_s", "rows")),
    Boundary("db.engine.fetch_all", [("repro.db.engine", "SessionRows.fetch_all")],
             units=_len_result, span=True, metrics=("calls", "self_s", "rows")),
    Boundary("db.engine.drain", [("repro.db.engine", "SessionRows.drain")],
             units=_result, span=True, metrics=("calls", "self_s", "rows")),
    Boundary("db.bufferpool.fetch", [("repro.db.bufferpool", "BufferPool.fetch")],
             metrics=("calls", "self_s", "hit_rate")),
    Boundary("db.btree.search", [("repro.db.btree", "BTree.search")]),
    Boundary("db.btree.range_scan", [("repro.db.btree", "BTree.range_scan")], resume=True),
    Boundary("db.btree.insert", [("repro.db.btree", "BTree.insert")]),
    Boundary("workloads.kvstore.get", [("repro.workloads.kvstore", "LsmStore.get")]),
    Boundary("workloads.kvstore.put", [("repro.workloads.kvstore", "LsmStore.put")]),
    Boundary("workloads.kvstore.flush", [("repro.workloads.kvstore", "LsmStore.flush")],
             span=True),
    Boundary("workloads.kvstore.compact", [("repro.workloads.kvstore", "LsmStore.compact")],
             span=True),
    Boundary("workloads.tpch.TpchData", [("repro.workloads.tpch.datagen", "TpchData.__init__")],
             phase="setup", metrics=("self_s",)),
    Boundary("workloads.tpch.load_into", [("repro.workloads.tpch.datagen", "load_into")],
             span=True, op=_load_op, phase="setup", metrics=("self_s",)),
    Boundary("workloads.tpch.run_query", [("repro.workloads.tpch.queries", "run_query")],
             span=True, op=_query_op),
    Boundary("core.calibration.calibrate", [("repro.core.calibration", "calibrate")],
             span=True, phase="setup", metrics=("self_s",)),
    Boundary("core.profiler.profile_workload", [("repro.core.profiler", "profile_workload")],
             span=True, op=_profile_op),
    Boundary("micro.measurement.measure_background",
             [("repro.micro.measurement", "measure_background")],
             phase="setup", metrics=("self_s",)),
    Boundary("serve.loop.run", [("repro.serve.loop", "QueryServer.run")],
             span=True, metrics=("self_s",)),
    Boundary("serve.admission.offer", [("repro.serve.admission", "AdmissionController.offer")]),
    Boundary("serve.admission.take", [("repro.serve.admission", "AdmissionController.take")]),
    Boundary("serve.admission.candidates",
             [("repro.serve.admission", "AdmissionController.candidates")]),
    Boundary("serve.admission.release",
             [("repro.serve.admission", "AdmissionController.release")]),
    Boundary("serve.policies.select", [("repro.serve.policies", f"{cls}.select")
                                       for cls in ("FifoPolicy", "SjfPolicy", "LocalityPolicy")]),
    Boundary("serve.resilience.admit_retry",
             [("repro.serve.resilience", "RetryManager.admit_retry")], metrics=("calls",)),
    Boundary("serve.resilience.record",
             [("repro.serve.resilience", "CircuitBreaker.record")], metrics=("calls",)),
    Boundary("faults.fire", [("repro.faults", "FaultInjector.fire")],
             units=_result, metrics=("calls", "fired")),
    Boundary("cluster.coordinator.run", [("repro.cluster.coordinator", "ClusterCoordinator.run")],
             span=True, metrics=("self_s",)),
    Boundary("cluster.topology.load_sharded", [("repro.cluster.topology", "load_sharded")],
             phase="setup", metrics=("self_s",)),
    Boundary("serve.report.build_report", [("repro.serve.report", "build_report")],
             span=True, metrics=("self_s",)),
    Boundary("cluster.report.build_cluster_report",
             [("repro.cluster.report", "build_cluster_report")], span=True, metrics=("self_s",)),
    Boundary("obs.sampler.enter", [("repro.obs.sampler", "SamplingAggregator.enter")]),
    Boundary("obs.sampler.exit", [("repro.obs.sampler", "SamplingAggregator.exit")]),
    Boundary("obs.sampler.wrap_rows", [("repro.obs.sampler", "SamplingAggregator.wrap_rows")],
             metrics=("self_s",)),
    Boundary("obs.sampler.finish", [("repro.obs.sampler", "SamplingAggregator.finish")],
             metrics=("self_s",)),
    Boundary("obs.tracer.enter", [("repro.obs.tracer", "Tracer.enter")]),
    Boundary("obs.tracer.exit", [("repro.obs.tracer", "Tracer.exit")]),
    Boundary("obs.tracer.wrap_rows", [("repro.obs.tracer", "Tracer.wrap_rows")],
             metrics=("self_s",)),
    Boundary("obs.tracer.finish", [("repro.obs.tracer", "Tracer.finish")], metrics=("self_s",)),
)

#: Unit of each per-boundary metric suffix.
SUFFIX_UNITS = {"calls": "count", "self_s": "s", "units": "count", "ns_per_unit": "ns",
                "bytes": "B", "rows": "count", "fired": "count", "hit_rate": "fraction"}

#: Metrics derived from the whole rep rather than one boundary.
DERIVED = {
    "sim.hierarchy.walks_per_unit": "ratio",
    "serve.attempts_per_request": "ratio",
    "cluster.subrequests_per_request": "ratio",
    "cluster.wasted_share": "fraction",
    "trace.setup_s": "s",
    "trace.timed_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    out = {}
    for boundary in BOUNDARIES:
        for suffix in boundary.metrics:
            out[f"{boundary.key}.{suffix}"] = SUFFIX_UNITS[suffix]
    out.update(DERIVED)
    return out


def _rebind(original, wrapper) -> None:
    """Point every module-level binding of ``original`` at ``wrapper``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTrace:
    """Timing wrappers over :data:`BOUNDARIES`, aggregated per phase.

    The rep runs in two phases, ``setup`` then ``timed``;
    :meth:`start_timed` switches between them and must be called with
    no wrapped call in flight.  Aggregates per boundary are
    ``[calls, inclusive_s, self_s, units]``.  Spans are kept in memory
    as ``(id, key, start_s, end_s, parent_id, op)`` and written by
    :meth:`write_spans`.
    """

    def __init__(self, boundaries=BOUNDARIES, clock=time.perf_counter):
        self.boundaries = boundaries
        self.clock = clock
        self.phase = "setup"
        self.table = self._fresh_table()
        self.top_s = 0.0
        self.phases: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._span_stack: list = []
        self._next_span = 0
        self._pools: dict = {}
        self._pool_marks: dict = {}
        self.t_phase = clock()
        self.t0 = self.t_phase

    def _fresh_table(self) -> dict:
        return {boundary.key: [0, 0.0, 0.0, 0] for boundary in self.boundaries}

    # ------------------------------------------------------------ wrappers

    def install(self) -> None:
        """Swap every boundary for its timing wrapper."""
        import repro.analysis.lab  # noqa: F401  (bind every caller module first)
        import repro.cluster  # noqa: F401
        import repro.serve  # noqa: F401

        for boundary in self.boundaries:
            for module_name, path in boundary.targets:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                wrapper = self.wrap(boundary, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(original, wrapper)

    def wrap(self, boundary: Boundary, fn):
        """A timing wrapper around ``fn`` recording under ``boundary``."""
        trace = self
        key = boundary.key
        units = boundary.units
        stack = self._stack
        clock = self.clock
        if "hit_rate" in boundary.metrics:
            units = self._see_pool

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec = trace.table[key]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    trace.top_s += dur
            if units is not None:
                rec[3] += units(args, kwargs, result)
            return result

        wrapper = timed
        if boundary.span:
            wrapper = self._spanned(boundary, timed)
        if boundary.resume:
            wrapper = self._resumed(key, wrapper)
        return functools.update_wrapper(wrapper, fn)

    def _spanned(self, boundary: Boundary, timed):
        trace = self
        key = boundary.key
        op = boundary.op
        span_stack = self._span_stack
        clock = self.clock

        def spanned(*args, **kwargs):
            span_id = trace._next_span
            trace._next_span += 1
            parent = span_stack[-1] if span_stack else None
            span_stack.append(span_id)
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                end = clock()
                span_stack.pop()
                trace.spans.append((span_id, key, start - trace.t0, end - trace.t0, parent,
                                    op(args, kwargs) if op is not None else None))

        return spanned

    def _resumed(self, key: str, create):
        trace = self
        stack = self._stack
        clock = self.clock

        def resume(gen):
            try:
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        child = stack.pop()
                        rec = trace.table[key]
                        rec[1] += dur
                        rec[2] += dur - child
                        if stack:
                            stack[-1] += dur
                        else:
                            trace.top_s += dur
                    yield item
            finally:
                gen.close()

        def generator(*args, **kwargs):
            return resume(create(*args, **kwargs))

        return generator

    def _see_pool(self, args, kwargs, result) -> int:
        # Hit rates come from each pool's own counters (BufferPool.stats),
        # so the fetch wrapper only has to learn which pools exist.
        pool = args[0]
        self._pools.setdefault(id(pool), pool)
        return 0

    # ------------------------------------------------------------ phases

    def _close_phase(self) -> None:
        now = self.clock()
        wall = now - self.t_phase
        hits = accesses = 0
        for pool_id, pool in self._pools.items():
            stats = pool.stats()
            mark = self._pool_marks.get(pool_id)
            if mark is not None:
                stats = stats.since(mark)
            hits += stats.hits
            accesses += stats.accesses
            self._pool_marks[pool_id] = pool.stats()
        layers = {}
        for key, (calls, incl, self_s, units) in self.table.items():
            if calls or incl:
                layers[key] = {"calls": calls, "inclusive_s": incl, "self_s": self_s,
                               "units": units}
        self_total = sum(entry["self_s"] for entry in layers.values())
        summary = {
            "wall_s": wall,
            "top_s": self.top_s,
            "self_total_s": self_total,
            "unattributed_s": wall - self.top_s,
            "bufferpool_hit_rate": hits / accesses if accesses else 0.0,
            "layers": layers,
        }
        self.phases[self.phase] = summary
        self.t_phase = now

    def start_timed(self) -> None:
        if self._stack:
            raise RuntimeError("phase switch inside a wrapped call")
        self._close_phase()
        self.phase = "timed"
        self.table = self._fresh_table()
        self.top_s = 0.0

    def finish(self) -> dict:
        """Close the timed phase; returns both phases' aggregates."""
        if self._stack:
            raise RuntimeError("trace finished inside a wrapped call")
        self._close_phase()
        return self.phases

    def write_spans(self, path: str, workload: str) -> None:
        """Append this rep's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, key, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "workload": workload, "id": span_id, "name": key,
                    "start_s": start, "end_s": end, "parent": parent, "op": op,
                }) + "\n")


def layer_metrics(phases: dict, extras: dict, overhead: float) -> dict:
    """Per-layer metric values from one traced rep.

    Each boundary reports the phase it runs in (``Boundary.phase``);
    ``extras`` carries the report-derived ratios.
    """
    values = {}
    batch_units = 0
    for boundary in BOUNDARIES:
        phase = phases[boundary.phase]
        entry = phase["layers"].get(boundary.key,
                                    {"calls": 0, "self_s": 0.0, "units": 0})
        if boundary.key.startswith("sim.batch."):
            batch_units += entry["units"] if boundary.units else entry["calls"]
        for suffix in boundary.metrics:
            name = f"{boundary.key}.{suffix}"
            if suffix == "calls":
                values[name] = entry["calls"]
            elif suffix == "self_s":
                values[name] = entry["self_s"]
            elif suffix == "ns_per_unit":
                values[name] = (entry["self_s"] * 1e9 / entry["units"]
                                if entry["units"] else 0.0)
            elif suffix == "hit_rate":
                values[name] = phase["bufferpool_hit_rate"]
            else:
                values[name] = entry["units"]
    timed = phases["timed"]["layers"]
    walks = sum(timed.get(key, {}).get("calls", 0)
                for key in ("sim.hierarchy.load", "sim.hierarchy.store"))
    values["sim.hierarchy.walks_per_unit"] = walks / batch_units if batch_units else 0.0
    for name in ("serve.attempts_per_request", "cluster.subrequests_per_request",
                 "cluster.wasted_share"):
        values[name] = extras.get(name, 0.0)
    values["trace.setup_s"] = phases["setup"]["wall_s"]
    values["trace.timed_s"] = phases["timed"]["wall_s"]
    values["trace.unattributed_s"] = phases["timed"]["unattributed_s"]
    values["trace.overhead"] = overhead
    return values
