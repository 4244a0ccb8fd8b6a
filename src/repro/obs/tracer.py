"""Span tracers: the live side of the observability layer.

Two implementations share one duck type:

* :class:`Tracer` — the real thing.  It keeps a stack of open spans and,
  at every transition (span enter/exit), calls
  :meth:`~repro.sim.machine.Machine.settle` and credits the PMU/RAPL/
  clock delta since the previous transition to the span that was
  executing in between.  The partition is exact: every count and every
  joule lands in exactly one span.
* :class:`NullTracer` — the default on every machine.  ``enabled`` is
  False and every method is a no-op, so the hot micro-op path stays
  branch-cheap and an untraced run is bit-identical to the seed
  behaviour (zero counter drift).

Pull-pipeline attribution: operators interleave (a parent's per-row work
happens between its child's yields), so wrapping a whole generator in
one enter/exit would credit the parent's work to the child.
:meth:`Tracer.wrap_rows` instead enters the operator's span around each
``next()`` on the underlying generator — self time accumulates across
re-entries, and whatever a child pulls inside is credited to the child
by the same mechanism one stack level deeper.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

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

    def open(self, name: str, category: str = "span", **meta) -> None:
        return None

    def enter(self, span) -> None:
        return None

    def exit(self, span) -> None:
        return None

    def wrap_rows(self, op, ctx):
        return op.rows(ctx)


#: Shared instance — stateless, safe to reuse across machines.
NULL_TRACER = NullTracer()


class Tracer:
    """Settle-partitioned span tracer bound to one machine.

    Use as a context manager to install it as ``machine.tracer`` for the
    duration of a workload::

        tracer = Tracer(machine, background=cal.background,
                        delta_e=cal.delta_e)
        with tracer:
            db.sql("SELECT ...")
        print(tracer.trace.render_tree())

    ``background`` and ``delta_e`` are optional pricing context carried
    into the finished :class:`~repro.obs.span.Trace`.
    """

    enabled = True

    def __init__(self, machine: "Machine", background=None, delta_e=None,
                 name: str = "trace"):
        self.machine = machine
        self.background = background
        self.delta_e = delta_e
        self.root = Span(name=name, category="trace")
        self._stack: list[Span] = [self.root]
        self._finished: Optional[Trace] = None
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
        self.root.first_ts = machine.time_s

    def _credit_top(self) -> None:
        """Credit everything since the last transition to the open span."""
        machine = self.machine
        top = self._stack[-1]
        delta = machine.settled_since(self._last_counters)
        if delta is not None:
            top.self_counters.accumulate(delta)
            self._last_counters = machine._settled
        rapl = machine.rapl
        core = rapl.energy_core()
        package = rapl.energy_package()
        dram = rapl.energy_dram()
        d_package = package - self._last_package
        top.self_core_j += core - self._last_core
        top.self_package_j += d_package
        top.self_dram_j += dram - self._last_dram
        self._last_core, self._last_package, self._last_dram = (
            core, package, dram
        )
        d_time = machine.time_s - self._last_time
        top.self_time_s += d_time
        top.self_busy_s += machine.busy_s - self._last_busy
        top.self_idle_s += machine.idle_s - self._last_idle
        self._last_time = machine.time_s
        self._last_busy = machine.busy_s
        self._last_idle = machine.idle_s
        timeline = machine.timeline
        if timeline is not None and d_time > 0.0:
            # Feed wasted-tagged work into the timeline's window split.
            # The tag inherits downward, same as the report's partition.
            for span in reversed(self._stack):
                tag = span.meta.get("wasted")
                if tag is not None:
                    timeline.add_wasted(machine.time_s - d_time,
                                        machine.time_s, tag, d_package)
                    break

    # ------------------------------------------------------------ span API

    def open(self, name: str, category: str = "span", **meta) -> Span:
        """Create a span as a child of the currently-open span.

        The span accrues nothing until :meth:`enter`; operators open
        once and re-enter per row.
        """
        span = Span(name=name, category=category, meta=meta)
        self._stack[-1].children.append(span)
        return span

    def enter(self, span: Span) -> None:
        self._credit_top()
        self._stack.append(span)
        span.enters += 1
        if span.first_ts is None:
            span.first_ts = self.machine.time_s

    def exit(self, span: Span) -> None:
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
        """Open + enter a span for the duration of a ``with`` block."""
        span = self.open(name, category, **meta)
        self.enter(span)
        try:
            yield span
        finally:
            self.exit(span)

    def wrap_rows(self, op, ctx):
        """Trace one operator of a pull pipeline (see module docstring).

        Yields the operator's rows unchanged; the operator's span
        accumulates exactly the work done inside its own generator
        frame, children excluded.
        """
        span = self.open(op.describe(), category=CATEGORY_OPERATOR,
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
            span.meta["rows"] = n_rows

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Tracer":
        self._prev_tracer = self.machine.tracer
        self.machine.tracer = self
        self._baseline()
        return self

    def __exit__(self, *exc) -> bool:
        self.machine.tracer = self._prev_tracer
        if exc[0] is None:
            self.finish()
        return False

    def finish(self) -> Trace:
        """Close the trace and return it (idempotent)."""
        if self._finished is None:
            self._credit_top()
            if len(self._stack) != 1:
                open_names = [s.name for s in self._stack[1:]]
                raise TraceError(f"unclosed spans at finish: {open_names}")
            self.root.last_ts = self.machine.time_s
            from repro.micro.measurement import select_domain

            domain = select_domain(self.root.inclusive_counters())
            self._finished = Trace(self.root, domain,
                                   background=self.background,
                                   delta_e=self.delta_e)
            logger.debug(
                "trace finished: %d spans, domain=%s",
                self.root.n_spans, domain,
            )
        return self._finished

    @property
    def trace(self) -> Trace:
        return self.finish()
