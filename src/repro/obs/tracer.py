"""Span tracers: the live side of the observability layer.

One accounting core and two tracers built on it:

* :class:`SettlePartition` — the core every telemetry backend shares.
  It keeps a stack of open regions and, at every transition (region
  enter/exit, and finish), calls
  :meth:`~repro.sim.machine.Machine.settle` and credits the PMU/RAPL/
  clock delta since the previous transition to the region that was
  executing in between.  The partition is exact: every count and every
  joule lands in exactly one region.
* :class:`Tracer` — the full tracer: each region is a
  :class:`~repro.obs.span.Span` kept in a tree.  The sampler and
  telemetry ``off`` (:mod:`repro.obs.sampler`) are the other backends.
* :class:`NullTracer` — the default on every machine.  ``enabled`` is
  False and every method is a no-op, so the hot micro-op path stays
  branch-cheap and an untraced run is bit-identical to the seed
  behaviour (zero counter drift).

Pull-pipeline attribution: operators interleave (a parent's per-row work
happens between its child's yields), so wrapping a whole generator in
one enter/exit would credit the parent's work to the child.
:meth:`SettlePartition.wrap_rows` instead enters the operator's region
around each ``next()`` on the underlying generator — self time
accumulates across re-entries, and whatever a child pulls inside is
credited to the child by the same mechanism one stack level deeper.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.errors import TraceError
from repro.obs.span import CATEGORY_OPERATOR, Span, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

logger = logging.getLogger(__name__)


class _NullSpanContext:
    """Reusable no-op context manager (one instance for every span)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Do-nothing tracer: the default wired into every machine.

    Instrumentation sites test ``tracer.enabled`` (or simply use
    :meth:`span`, whose context manager is a shared no-op), so tracing
    costs nothing when off and touches no machine state — an untraced
    run accrues zero counter drift from the observability layer.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, category: str = "span", **meta):
        return _NULL_SPAN


#: Shared instance — stateless, safe to reuse across machines.
NULL_TRACER = NullTracer()


class SettlePartition:
    """Settle-partition core bound to one machine.

    Used as a context manager, it installs itself as ``machine.tracer``
    for the duration of a workload and finishes on a clean exit.  A
    backend decides only where a delta goes and what finishing returns:

    * ``open(name, category, **meta)`` makes a region (``enters`` and
      ``first_ts``/``last_ts`` fields) as a child of the open one;
    * ``_credit(region, counters, core_j, package_j, dram_j, time_s,
      busy_s, idle_s)`` takes one transition's delta (``counters`` is
      None when no counter moved, and is shared, so read it only);
    * ``_wasted(region)`` is the ``wasted`` tag the open region
      inherits, which feeds the timeline's wasted-energy split;
    * ``_close(region, rows)`` runs once a region will not be
      re-entered (``rows`` is an operator's row count, else None);
    * ``_result()`` builds the finished output.
    """

    enabled = True

    def __init__(self, machine: "Machine", background, root):
        self.machine = machine
        self.background = background
        self._stack: list = [root]
        self._finished = None
        self._prev_tracer = None
        self._baseline()

    # ------------------------------------------------------------ accounting

    def _baseline(self) -> None:
        """Settle and snapshot: work before this point is not credited."""
        machine = self.machine
        machine.settle()
        # settle() leaves a snapshot of the live counters in _settled
        # (shared across no-op settles, never mutated in place); reusing
        # it saves one full-field copy per transition.
        self._last_counters = machine._settled
        rapl = machine.rapl
        self._last_core = rapl.energy_core()
        self._last_package = rapl.energy_package()
        self._last_dram = rapl.energy_dram()
        self._last_time = machine.time_s
        self._last_busy = machine.busy_s
        self._last_idle = machine.idle_s
        self._stack[0].first_ts = machine.time_s

    def _credit_top(self) -> None:
        """Credit everything since the last transition to the open region."""
        machine = self.machine
        top = self._stack[-1]
        delta = machine.settled_since(self._last_counters)
        if delta is not None:
            self._last_counters = machine._settled
        rapl = machine.rapl
        core = rapl.energy_core()
        package = rapl.energy_package()
        dram = rapl.energy_dram()
        d_package = package - self._last_package
        now = machine.time_s
        busy = machine.busy_s
        idle = machine.idle_s
        d_time = now - self._last_time
        self._credit(top, delta, core - self._last_core, d_package,
                     dram - self._last_dram, d_time, busy - self._last_busy,
                     idle - self._last_idle)
        self._last_core, self._last_package, self._last_dram = (
            core, package, dram
        )
        self._last_time = now
        self._last_busy = busy
        self._last_idle = idle
        timeline = machine.timeline
        if timeline is not None and d_time > 0.0:
            tag = self._wasted(top)
            if tag is not None:
                timeline.add_wasted(now - d_time, now, tag, d_package)

    # ------------------------------------------------------------ region API

    def enter(self, span) -> None:
        self._credit_top()
        self._stack.append(span)
        span.enters += 1
        if span.first_ts is None:
            span.first_ts = self.machine.time_s

    def exit(self, span) -> None:
        self._credit_top()
        if self._stack[-1] is not span:
            raise TraceError(
                f"span exit mismatch: open={self._stack[-1].name!r}, "
                f"exiting={span.name!r}"
            )
        self._stack.pop()
        span.last_ts = self.machine.time_s

    @contextmanager
    def span(self, name: str, category: str = "span", **meta):
        """Open + enter a region for the duration of a ``with`` block."""
        span = self.open(name, category, **meta)
        self.enter(span)
        try:
            yield span
        finally:
            self.exit(span)
            self._close(span, None)

    def wrap_rows(self, op, ctx):
        """Trace one operator of a pull pipeline (see module docstring).

        Yields the operator's rows unchanged; the operator's region
        accumulates exactly the work done inside its own generator
        frame, children excluded.
        """
        span = self.open(op.describe(), CATEGORY_OPERATOR,
                         op=type(op).__name__)
        iterator = op.rows(ctx)
        n_rows = 0
        try:
            while True:
                self.enter(span)
                try:
                    row = next(iterator)
                except StopIteration:
                    self.exit(span)
                    return
                except BaseException:
                    self.exit(span)
                    raise
                self.exit(span)
                n_rows += 1
                yield row
        finally:
            self._close(span, n_rows)

    # ------------------------------------------------------------ lifecycle

    def __enter__(self):
        self._prev_tracer = self.machine.tracer
        self.machine.tracer = self
        self._baseline()
        return self

    def __exit__(self, *exc) -> bool:
        self.machine.tracer = self._prev_tracer
        if exc[0] is None:
            self.finish()
        return False

    def finish(self):
        """Close the run and return its result (idempotent)."""
        if self._finished is None:
            self._credit_top()
            if len(self._stack) != 1:
                open_names = [s.name for s in self._stack[1:]]
                raise TraceError(f"unclosed spans at finish: {open_names}")
            self._finished = self._result()
        return self._finished


class Tracer(SettlePartition):
    """Full span tracer: every region is a :class:`Span` in one tree.

    ::

        tracer = Tracer(machine, background=cal.background,
                        delta_e=cal.delta_e)
        with tracer:
            db.sql("SELECT ...")
        print(tracer.trace.render_tree())

    ``background`` and ``delta_e`` are optional pricing context carried
    into the finished :class:`~repro.obs.span.Trace`.
    """

    def __init__(self, machine: "Machine", background=None, delta_e=None,
                 name: str = "trace"):
        self.delta_e = delta_e
        self.root = Span(name=name, category="trace")
        super().__init__(machine, background, self.root)

    def _credit(self, span: Span, counters, core_j: float, package_j: float,
                dram_j: float, time_s: float, busy_s: float,
                idle_s: float) -> None:
        if counters is not None:
            span.self_counters.accumulate(counters)
        span.self_core_j += core_j
        span.self_package_j += package_j
        span.self_dram_j += dram_j
        span.self_time_s += time_s
        span.self_busy_s += busy_s
        span.self_idle_s += idle_s

    def _wasted(self, span: Span):
        # The tag inherits downward, same as the report's partition.
        for open_span in reversed(self._stack):
            tag = open_span.meta.get("wasted")
            if tag is not None:
                return tag
        return None

    def open(self, name: str, category: str = "span", **meta) -> Span:
        """Create a span as a child of the currently-open span.

        The span accrues nothing until :meth:`enter`; operators open
        once and re-enter per row.
        """
        span = Span(name=name, category=category, meta=meta)
        self._stack[-1].children.append(span)
        return span

    def _close(self, span: Span, rows) -> None:
        if rows is not None:
            span.meta["rows"] = rows

    def _result(self) -> Trace:
        self.root.last_ts = self.machine.time_s
        from repro.micro.measurement import select_domain

        domain = select_domain(self.root.inclusive_counters())
        logger.debug("trace finished: %d spans, domain=%s",
                     self.root.n_spans, domain)
        return Trace(self.root, domain, background=self.background,
                     delta_e=self.delta_e)

    # The e2e layer trace hooks these four in each class's own dict.
    enter = SettlePartition.enter
    exit = SettlePartition.exit
    wrap_rows = SettlePartition.wrap_rows
    finish = SettlePartition.finish

    @property
    def trace(self) -> Trace:
        return self.finish()
