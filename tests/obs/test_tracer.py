"""Tests of the span tracer's partitioning semantics."""

import pytest

from repro.config import tiny_intel
from repro.errors import TraceError
from repro.obs import NULL_TRACER, SamplingAggregator, Tracer
from repro.obs.span import CATEGORY_OPERATOR
from repro.sim.machine import Machine
from repro.sim.pmu import PmuCounters


def _work(machine, n=64):
    base = machine.address_space.alloc(64 * 64, "work").base
    for i in range(n):
        machine.load(base + (i % 64) * 64)
    machine.add(n)


def _fresh_subtraction(machine, snapshot):
    """Credit by settling and subtracting, with no delta reuse."""
    machine.settle()
    settled = machine._settled
    return None if settled is snapshot else settled.minus(snapshot)


class TestCreditDelta:
    @pytest.mark.parametrize("kind", (Tracer, SamplingAggregator))
    def test_reused_settle_delta_equals_fresh_subtraction(self, kind,
                                                          monkeypatch):
        """Span credits reuse the delta ``settle`` took; with a second
        consumer settling in between, with empty transitions and across
        ``reset_measurements``, every span's counters match a credit
        that subtracts afresh each time."""
        def run() -> list:
            machine = Machine(tiny_intel())
            tracer = kind(machine)
            other = Tracer(machine, name="other")
            with tracer:
                with tracer.span("a"):
                    _work(machine)
                    other.enter(other.open("x"))
                    _work(machine, 8)
                    with tracer.span("empty"):
                        pass
                with tracer.span("b"):
                    _work(machine, 16)
                    # Credited with no work since the reset's settle.
                    machine.reset_measurements()
                    with tracer.span("c"):
                        _work(machine, 4)
            summary = tracer.finish()
            if kind is Tracer:
                return [(s.name, s.self_counters.as_dict())
                        for s in summary.spans()]
            return sorted((key, agg.counters.as_dict())
                          for key, agg in summary.groups.items())

        reused = run()
        monkeypatch.setattr(Machine, "settled_since", _fresh_subtraction)
        assert run() == reused


class TestSpanTree:
    def test_nested_spans_build_a_tree(self, quiet_machine):
        tracer = Tracer(quiet_machine, name="root")
        with tracer:
            with tracer.span("outer"):
                _work(quiet_machine)
                with tracer.span("inner"):
                    _work(quiet_machine)
        trace = tracer.trace
        assert trace.root.name == "root"
        names = [s.name for s in trace.spans()]
        assert names == ["root", "outer", "inner"]
        outer = trace.root.children[0]
        assert outer.children[0].name == "inner"

    def test_finish_is_idempotent(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        with tracer:
            with tracer.span("a"):
                _work(quiet_machine)
        assert tracer.finish() is tracer.finish()

    def test_exit_mismatch_raises(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.enter(a)
        with pytest.raises(TraceError):
            tracer.exit(b)

    def test_unclosed_span_fails_finish(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        tracer.enter(tracer.open("left-open"))
        with pytest.raises(TraceError):
            tracer.finish()

    def test_installs_itself_on_the_machine(self, quiet_machine):
        assert quiet_machine.tracer is NULL_TRACER
        tracer = Tracer(quiet_machine)
        with tracer:
            assert quiet_machine.tracer is tracer
        assert quiet_machine.tracer is NULL_TRACER


class TestAttributionSemantics:
    def test_self_excludes_children(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        with tracer:
            with tracer.span("outer"):
                _work(quiet_machine, 10)
                with tracer.span("inner"):
                    _work(quiet_machine, 1000)
        trace = tracer.trace
        outer, inner = list(trace.spans())[1:]
        # The inner span's heavy work must not pollute the outer's self.
        assert inner.self_counters.instructions > outer.self_counters.instructions
        inclusive = outer.inclusive_counters()
        assert inclusive.instructions == (
            outer.self_counters.instructions + inner.self_counters.instructions
        )

    def test_partition_is_exact(self, quiet_machine):
        machine = quiet_machine
        before = machine.pmu.snapshot()
        tracer = Tracer(machine)
        with tracer:
            with tracer.span("a"):
                _work(machine, 100)
            with tracer.span("b"):
                _work(machine, 200)
        machine.settle()
        window = machine.pmu.since(before)
        counted = tracer.trace.root.inclusive_counters()
        assert counted.n_l1d == window.n_l1d
        assert counted.instructions == window.instructions

    def test_reentry_accumulates(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        with tracer:
            span = tracer.open("op", category=CATEGORY_OPERATOR)
            for _ in range(5):
                tracer.enter(span)
                _work(quiet_machine, 8)
                tracer.exit(span)
        assert span.enters == 5
        assert span.self_counters.instructions > 0

    def test_never_entered_span_is_empty(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        with tracer:
            span = tracer.open("lazy-op")
            _work(quiet_machine)
        assert span.enters == 0
        assert span.first_ts is None
        assert span.self_counters.instructions == 0

    def test_time_partition(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        t0 = quiet_machine.time_s
        with tracer:
            with tracer.span("a"):
                _work(quiet_machine, 500)
        elapsed = quiet_machine.time_s - t0
        assert tracer.trace.root.inclusive_time_s == pytest.approx(elapsed)


class TestTraceViews:
    def test_render_tree(self, quiet_machine):
        tracer = Tracer(quiet_machine, name="q")
        with tracer:
            with tracer.span("child"):
                _work(quiet_machine)
        text = tracer.trace.render_tree()
        assert "q" in text and "child" in text
        assert "domain=" in text and "J" in text

    def test_render_tree_max_depth(self, quiet_machine):
        tracer = Tracer(quiet_machine, name="q")
        with tracer:
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    _work(quiet_machine)
        text = tracer.trace.render_tree(max_depth=1)
        assert "child" in text and "grandchild" not in text

    def test_breakdown_requires_delta_e(self, quiet_machine):
        tracer = Tracer(quiet_machine)
        with tracer:
            with tracer.span("a"):
                _work(quiet_machine)
        with pytest.raises(ValueError):
            tracer.trace.breakdown(tracer.trace.root)

    def test_breakdown_with_delta_e(self, quiet_machine):
        from repro.core.calibration import calibrate

        cal = calibrate(quiet_machine)
        tracer = Tracer(quiet_machine, background=cal.background,
                        delta_e=cal.delta_e)
        with tracer:
            with tracer.span("a"):
                _work(quiet_machine, 512)
        trace = tracer.trace
        b = trace.breakdown(trace.root, inclusive=True)
        assert b.total > 0


class TestNullTracer:
    def test_span_is_noop_context(self):
        with NULL_TRACER.span("anything", category="io", page="p1"):
            pass

    def test_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True


class _Boom:
    """A physical-operator stand-in that yields two rows, then raises."""

    def __init__(self, machine):
        self.machine = machine

    def describe(self) -> str:
        return "Boom"

    def rows(self, ctx):
        for i in range(2):
            _work(self.machine, 8)
            yield (i,)
        _work(self.machine, 8)
        raise RuntimeError("boom mid-pull")


class _Parent:
    """Pulls its child through the tracer, as real operators do."""

    def __init__(self, child):
        self.child = child

    def describe(self) -> str:
        return "Parent"

    def rows(self, ctx):
        for row in ctx.tracer.wrap_rows(self.child, ctx):
            _work(ctx.machine, 4)
            yield row


class TestOperatorError:
    """An operator that raises mid-pull: the error reaches the caller
    through every traced frame, each frame exits its region on the way
    out, and the run still finishes with an exact partition."""

    @pytest.mark.parametrize("make", [
        Tracer,
        SamplingAggregator,
    ], ids=["tracer", "sampler"])
    def test_error_propagates_and_leaves_the_stack_balanced(
            self, quiet_machine, make):
        from types import SimpleNamespace

        machine = quiet_machine
        before = machine.pmu.snapshot()
        tracer = make(machine)
        ctx = SimpleNamespace(tracer=tracer, machine=machine)
        pulled = []
        with tracer:
            with tracer.span("query") as query:
                rows = tracer.wrap_rows(_Parent(_Boom(machine)), ctx)
                with pytest.raises(RuntimeError, match="boom mid-pull"):
                    for row in rows:
                        pulled.append(row)
                assert tracer._stack[-1] is query
            assert len(tracer._stack) == 1
        result = tracer.finish()  # no TraceError
        assert pulled == [(0,), (1,)]
        machine.settle()
        window = machine.pmu.since(before)
        if isinstance(tracer, Tracer):
            (parent,) = result.root.children[0].children
            (boom,) = parent.children
            assert (parent.meta["rows"], boom.meta["rows"]) == (2, 2)
            assert boom.enters == 3
            counted = result.root.inclusive_counters()
        else:
            counted = PmuCounters()
            for agg in result.groups.values():
                counted.accumulate(agg.counters)
        assert counted.instructions == window.instructions
        assert counted.n_l1d == window.n_l1d
