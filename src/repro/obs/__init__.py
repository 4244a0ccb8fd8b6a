"""Observability: span tracing, metrics, and trace export.

The layer the paper's methodology was missing an engine-side half for:
§2 prices micro-ops and §3 breaks a *whole workload* down, but nothing
says which operator in a plan burned the L1D energy.  This package
attributes measured energy to plan nodes:

* :class:`Tracer` / :class:`NullTracer` — span tracer that partitions
  PMU counters, RAPL joules, and the clock across a span tree
  (``NullTracer`` is the no-op default wired into every machine);
* :class:`Span` / :class:`Trace` — the finished tree plus pricing;
* :class:`MetricsRegistry` — labelled counters/gauges/histograms fed by
  machine-level collectors (cache hit rates, pool residency, governor
  transitions);
* :mod:`repro.obs.export` / :mod:`repro.obs.flamegraph` — JSONL span
  logs, Chrome ``trace_event`` JSON (openable in Perfetto), and energy
  flamegraph SVGs.

Import discipline: :mod:`repro.sim.machine` imports this package, so
modules here must not import anything that imports the machine at
module scope (pricing helpers import lazily).
"""

from repro.obs.export import (
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_series_name,
)
from repro.obs.sampler import (
    NullTelemetry,
    SamplingAggregator,
    TelemetrySummary,
)
from repro.obs.span import Span, Trace
from repro.obs.timeline import (
    TIMELINE_FIELDS,
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    timeline_to_csv,
    timeline_to_jsonl,
    write_timeline,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "trace_to_chrome",
    "trace_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_series_name",
    "Span",
    "Trace",
    "NULL_TRACER",
    "NullTracer",
    "NullTelemetry",
    "SamplingAggregator",
    "TelemetrySummary",
    "TIMELINE_FIELDS",
    "TIMELINE_SCHEMA_VERSION",
    "TimelineRecorder",
    "Tracer",
    "timeline_to_csv",
    "timeline_to_jsonl",
    "write_timeline",
]


def write_flamegraph(trace, path, title: str = "Energy flamegraph"):
    """Lazy re-export of :func:`repro.obs.flamegraph.write_flamegraph`."""
    from repro.obs.flamegraph import write_flamegraph as write

    return write(trace, path, title)
