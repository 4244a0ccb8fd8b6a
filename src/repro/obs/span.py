"""Spans and finished traces: the data model of the observability layer.

A :class:`Span` is one named region of execution (a query, an operator,
a buffer-pool miss, an index build).  While a tracer is active the
machine's work is *partitioned* across spans: every PMU count, every
RAPL joule, and every second of wall clock is credited to exactly one
span — the one executing when the work happened.  A span therefore
carries **self** (exclusive) totals; inclusive totals are the self
totals summed over the subtree.

Because the partition is exact, the per-operator self energies of a
query plan sum to the query's measured Active energy — the attribution
property the paper's whole-workload breakdown lacks (§3 measures one
window per run; spans measure one window per plan node).

A :class:`Trace` wraps the finished span tree together with the RAPL
domain chosen for the run (§2.6's rule applied to the root counters),
the measured background rates, and optionally a calibrated dE table so
each span's counters can be priced into a per-span
:class:`~repro.core.model.EnergyBreakdown`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.fold import left_sum
from repro.sim.pmu import PmuCounters

#: RAPL domain names — must match :mod:`repro.micro.measurement`.
DOMAIN_CORE = "core"
DOMAIN_PACKAGE = "package"
DOMAIN_PACKAGE_DRAM = "package+dram"

#: Span categories used by the built-in instrumentation.
CATEGORY_TRACE = "trace"
CATEGORY_QUERY = "query"
CATEGORY_OPERATOR = "operator"
CATEGORY_IO = "io"
CATEGORY_INDEX = "index"


def domain_energy_j(core_j: float, package_j: float, dram_j: float,
                    domain: str) -> float:
    """Energy of one RAPL *measurement* domain from the three raw reads.

    The package read physically contains the core, so the package
    domain is just the package delta; only DRAM adds a second meter.
    """
    if domain == DOMAIN_CORE:
        return core_j
    if domain == DOMAIN_PACKAGE:
        return package_j
    if domain == DOMAIN_PACKAGE_DRAM:
        return package_j + dram_j
    raise ValueError(f"unknown RAPL domain {domain!r}")


@dataclass
class Span:
    """One region of traced execution with exclusive (self) totals."""

    name: str
    category: str = "span"
    meta: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: PMU counter delta credited to this span alone (children excluded).
    self_counters: PmuCounters = field(default_factory=PmuCounters)
    #: Raw RAPL read deltas credited to this span alone, in joules.
    self_core_j: float = 0.0
    self_package_j: float = 0.0
    self_dram_j: float = 0.0
    #: Wall-clock seconds credited to this span alone.
    self_time_s: float = 0.0
    self_busy_s: float = 0.0
    self_idle_s: float = 0.0
    #: Simulated timestamps of the first entry / last exit (None when the
    #: span was opened but never entered, e.g. an operator never pulled).
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    #: How many times execution entered the span (pull-pipeline operators
    #: re-enter once per row).
    enters: int = 0

    # ------------------------------------------------------------ traversal

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def n_spans(self) -> int:
        return sum(1 for _ in self.walk())

    # ------------------------------------------------------------ inclusive

    def inclusive_counters(self) -> PmuCounters:
        """Self counters plus every descendant's (the subtree's window)."""
        total = self.self_counters.copy()
        for child in self.children:
            total.accumulate(child.inclusive_counters())
        return total

    @property
    def inclusive_time_s(self) -> float:
        return left_sum(span.self_time_s for span in self.walk())

    def self_domain_j(self, domain: str) -> float:
        return domain_energy_j(
            self.self_core_j, self.self_package_j, self.self_dram_j, domain
        )


class Trace:
    """A finished span tree plus everything needed to price it.

    ``background`` (a :class:`~repro.micro.measurement.BackgroundRates`)
    turns raw domain joules into Active energy; ``delta_e`` (a
    :class:`~repro.core.model.DeltaE`) additionally lets each span's
    Active energy be decomposed along Eq. (1).
    """

    def __init__(self, root: Span, domain: str, background=None,
                 delta_e=None):
        self.root = root
        self.domain = domain
        self.background = background
        self.delta_e = delta_e

    # ------------------------------------------------------------ energy

    def _background_w(self) -> float:
        if self.background is None:
            return 0.0
        return self.background.rate(self.domain)

    def active_energy_j(self, span: Span) -> float:
        """Active energy credited to ``span`` alone (§2.6: domain energy
        minus background power times the span's wall-clock share)."""
        return (span.self_domain_j(self.domain)
                - self._background_w() * span.self_time_s)

    def inclusive_active_j(self, span: Span) -> float:
        return left_sum(self.active_energy_j(s) for s in span.walk())

    @property
    def total_active_j(self) -> float:
        """Measured Active energy of the whole traced window."""
        return self.inclusive_active_j(self.root)

    def breakdown(self, span: Span, inclusive: bool = False):
        """Price one span's counters into an Eq. (1) breakdown.

        Requires the trace to have been created with a dE table.
        Returns an :class:`~repro.core.model.EnergyBreakdown`.
        """
        from repro.core.breakdown import price_counters

        if self.delta_e is None:
            raise ValueError("trace has no dE table; pass delta_e to Tracer")
        counters = (span.inclusive_counters() if inclusive
                    else span.self_counters)
        active = (self.inclusive_active_j(span) if inclusive
                  else self.active_energy_j(span))
        return price_counters(counters, self.delta_e, active)

    def active_energy_by_meta(self, key: str) -> dict:
        """Partition the trace's Active energy by a span-meta value.

        Each span's *self* energy is credited to the value of ``key`` on
        the nearest enclosing span that carries it (spans inherit the
        tag downward: a buffer-pool miss inside a tenant's quantum bills
        that tenant).  Untagged energy — idle gaps, scheduler work —
        lands under ``None``.  Because every span is visited exactly
        once, the group sums add up to :attr:`total_active_j` exactly,
        the same partition invariant the span tree itself guarantees.
        This is the one-key view of :meth:`active_energy_by_metas`.
        """
        return {owner: joules for (owner,), joules
                in self.active_energy_by_metas((key,)).items()}

    def active_energy_by_metas(self, keys: tuple) -> dict:
        """Partition Active energy by a *tuple* of span-meta values.

        Multi-key variant of :meth:`active_energy_by_meta`: each span's
        self energy is credited to the tuple of per-key owners, where
        each key inherits downward independently (a ``wasted``-tagged
        repair span inside a request's quantum keeps the request tag but
        overrides the wasted tag).  Visiting every span exactly once
        keeps the invariant: the group sums equal :attr:`total_active_j`
        exactly — which is what lets the serve report split Active
        energy into useful and wasted joules with no residual.
        """
        groups: dict = {}

        def visit(span: Span, inherited: tuple) -> None:
            owner = tuple(
                span.meta.get(key, inherited[i])
                for i, key in enumerate(keys)
            )
            groups[owner] = groups.get(owner, 0.0) + self.active_energy_j(span)
            for child in span.children:
                visit(child, owner)

        visit(self.root, (None,) * len(keys))
        return groups

    def active_energy_by_request(self) -> Iterator[tuple]:
        """``(request, active_j)`` per tagged request in ascending id
        order: the ``"request"`` partition of
        :meth:`active_energy_by_meta` without the untagged share.  The
        joules are copied into an array so the dict is freed before a
        caller merges several machines' pairs."""
        groups = self.active_energy_by_meta("request")
        groups.pop(None, None)
        ids = sorted(groups)
        return zip(ids, array("d", map(groups.__getitem__, ids)))

    def energy_folds(self, key: str) -> tuple:
        """``(active_energy_by_meta(key), total_active_j,
        active_energy_by_request())``: the serve report's three folds
        (:meth:`repro.obs.sampler.TelemetrySummary.energy_folds` makes
        them in one pass)."""
        return (self.active_energy_by_meta(key), self.total_active_j,
                self.active_energy_by_request())

    # ------------------------------------------------------------ views

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def operator_spans(self) -> list[Span]:
        return [s for s in self.spans() if s.category == CATEGORY_OPERATOR]

    def render_tree(self, max_depth: Optional[int] = None) -> str:
        """Human-readable span tree with per-span energy attribution."""
        total = self.total_active_j
        lines = [
            f"trace: domain={self.domain}  "
            f"active={total:.4e} J  wall={self.root.inclusive_time_s:.4e} s  "
            f"spans={self.root.n_spans}"
        ]

        def emit(span: Span, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            inclusive = self.inclusive_active_j(span)
            share = 100.0 * inclusive / total if total > 0 else 0.0
            self_j = self.active_energy_j(span)
            label = "  " * depth + span.name
            rows = span.meta.get("rows")
            rows_part = f"  rows={rows}" if rows is not None else ""
            lines.append(
                f"{label:<44} {inclusive:.3e} J {share:5.1f}%  "
                f"self {self_j:.3e} J{rows_part}"
            )
            for child in span.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)
