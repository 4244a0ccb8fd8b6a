"""Serve-run accounting: latency percentiles, energy, and the report.

The report is a plain JSON-serialisable dict.  Two properties matter:

* **Determinism** — every value is a pure function of the run, so two
  runs with the same config and seed produce byte-identical JSON.
* **Exact attribution** — per-tenant Active energy comes from the span
  tree's partition (see
  :meth:`~repro.obs.span.Trace.active_energy_by_meta`), so the tenant
  shares plus the untagged system share sum to the run's measured
  Active energy to float precision.  ``energy.check_sum_j`` carries the
  recomputed sum so consumers can verify without re-walking spans.

Percentiles use the nearest-rank definition (no interpolation): the
p-th percentile of n sorted samples is the ``ceil(p/100 * n)``-th.

The energy split, state counts, per-request energy fold and summary
lines take any set of machines, so :mod:`repro.cluster.report` builds
its report from the same functions.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.fold import left_sum
from repro.obs.sampler import fold_key
from repro.obs.span import Trace
from repro.serve.loop import (
    BREAKER_FIELDS,
    RUN_FIELDS,
    QueryServer,
    ServeConfig,
)
from repro.serve.request import (
    COMPLETED,
    REJECTED_QUEUE,
    REJECTED_QUOTA,
    SHED_TIMEOUT,
    TERMINAL_STATES,
)

PERCENTILES = (50, 95, 99)

#: Version stamp on every serve report; ``repro diff`` refuses to
#: compare reports with different stamps.
SERVE_SCHEMA_VERSION = 1

#: Span-meta keys the wasted-energy partition groups by.
WASTE_KEYS = ("request", "attempt", "wasted")

#: Terminal states a plain run counts; a resilient run counts all of
#: :data:`~repro.serve.request.TERMINAL_STATES`, so a plain run's report
#: is byte-identical to the pre-resilience server's.
PLAIN_STATES = (COMPLETED, REJECTED_QUEUE, REJECTED_QUOTA, SHED_TIMEOUT)


def _ranked(ordered: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile of already sorted samples."""
    if not ordered:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty sample set."""
    return _ranked(sorted(samples), p)


def _summary(samples: list, unit: str) -> dict:
    """Count, mean and percentiles; value keys end in ``_{unit}``.

    The mean sums ``samples`` in the order given; then the list is
    sorted in place, so the percentiles need no second list."""
    out: dict = {"n": len(samples)}
    out[f"mean_{unit}"] = (left_sum(samples) / len(samples)
                           if samples else None)
    samples.sort()
    for p in PERCENTILES:
        out[f"p{p}_{unit}"] = _ranked(samples, p)
    return out


def latency_summary(latencies: list) -> dict:
    """:func:`_summary` in seconds; sorts ``latencies`` in place."""
    return _summary(latencies, "s")


def state_counts(request_states: Iterable[Optional[str]],
                 states: Sequence[str]) -> dict:
    """``issued`` plus one count per terminal state in ``states``, in
    that order.  ``request_states`` yields one state per issued request;
    any state not in ``states`` is not counted."""
    tally = Counter(request_states)
    return {"issued": sum(tally.values()),
            **{state: tally[state] for state in states}}


def energy_split(traces: dict,
                 state_of: Callable[[object], Optional[str]],
                 delivered: Sequence[str],
                 loser_reason: Callable[[object, object], Optional[str]],
                 ) -> dict:
    """Split every machine's Active energy into useful vs wasted joules.

    ``traces`` maps machine name -> :class:`~repro.obs.span.Trace`.
    Each machine's energy is partitioned by the span-meta keys
    ``(request, attempt, wasted)``
    (:meth:`~repro.obs.span.Trace.active_energy_by_metas`), so per
    machine ``useful_j + wasted_j`` is exactly the partition total (one
    float sum, split two ways).  Each group is classified by the first
    rule that applies:

    * its request did not end in a ``delivered`` state
      (``state_of(request_id)``): wasted under that terminal state;
    * its request was delivered but ``loser_reason(request, attempt)``
      names a reason for the attempt (a retried attempt, a hedge loser,
      a crashed node's partial work, ...): wasted under that reason;
    * its spans are tagged ``wasted`` (fault handling: transient-read
      idle, page repair, injected stalls): wasted under the tag;
    * otherwise — winning attempts, untagged system work such as idle
      gaps and scheduling — useful, the cost of running the service.
    """
    useful_j = 0.0
    wasted_j = 0.0
    by_reason: dict = {}
    per_machine: dict = {}
    for name in sorted(traces):
        groups = traces[name].active_energy_by_metas(WASTE_KEYS)
        m_useful = 0.0
        m_wasted = 0.0
        for key in sorted(groups, key=fold_key):
            req, attempt, tag = key
            joules = groups[key]
            reason = None
            if req is not None:
                state = state_of(req)
                if state not in delivered:
                    reason = state or "unknown"
                elif attempt is not None:
                    reason = loser_reason(req, attempt)
            if reason is None:
                reason = tag
            if reason is None:
                m_useful += joules
            else:
                m_wasted += joules
                by_reason[reason] = by_reason.get(reason, 0.0) + joules
        useful_j += m_useful
        wasted_j += m_wasted
        per_machine[name] = {"useful_j": m_useful, "wasted_j": m_wasted}
    return {
        "useful_j": useful_j,
        "wasted_j": wasted_j,
        "by_reason_j": dict(sorted(by_reason.items())),
        "per_machine": per_machine,
    }


def request_energy(traces: dict) -> dict:
    """Count, mean and percentiles of per-request Active energy.

    Each machine yields its per-request joules in id order
    (``active_energy_by_request``); see :func:`_request_energy`."""
    return _request_energy([traces[name].active_energy_by_request()
                            for name in sorted(traces)])


def _request_energy(per_machine: list) -> dict:
    """:func:`request_energy` over each machine's ``(request, joules)``
    pairs, machines in sorted name order: a stable merge adds each
    request's joules from 0.0 over the machines, so the sums are
    deterministic floats, read into the samples in id order."""
    merged = heapq.merge(*per_machine, key=itemgetter(0))
    samples: list = []
    last = None
    for rid, joules in merged:
        if rid == last:
            samples[-1] += joules
        else:
            samples.append(0.0 + joules)
            last = rid
    return _summary(samples, "j")


def build_report(config: ServeConfig, server: QueryServer,
                 trace: Trace, injector=None) -> dict:
    """Assemble the serve run's JSON report.

    Per-request figures are read from ``server.ledger``'s columns in
    request-id order — the order the retained request list had — so
    every float sum adds the same operands in the same order.  One
    per-request sequence is alive at a time: the latency summary is
    finished before the energy folds run.
    """
    ledger = server.ledger
    machine = server.machine
    resilient = config.resilient
    states = TERMINAL_STATES if resilient else PLAIN_STATES
    counts = state_counts(ledger.states(), states)
    latencies = ledger.latencies()
    n_completed = len(latencies)
    latency = latency_summary(latencies)
    del latencies

    by_meta, total_active_j, by_request = trace.energy_folds("tenant")
    system_j = by_meta.pop(None, 0.0)
    tenant_j = dict(sorted(by_meta.items()))
    energy_per_query_j = (total_active_j / n_completed
                          if n_completed else None)
    mean_latency = latency["mean_s"]
    edp = (energy_per_query_j * mean_latency
           if energy_per_query_j is not None and mean_latency is not None
           else None)
    request_energy_j = _request_energy([by_request])

    tenants: dict = {}
    by_tenant = ledger.by_tenant()
    rows = dict(zip(ledger.tenants, ledger.tenant_rows))
    for tenant in sorted(by_tenant.keys() | set(tenant_j)):
        t_states, t_latencies = by_tenant.pop(tenant, ((), ()))
        active_j = tenant_j.get(tenant, 0.0)
        tenants[tenant] = {
            "counts": state_counts(t_states, states),
            # One tenant's samples as float objects at a time.
            "latency_s": latency_summary(list(t_latencies)),
            "active_j": active_j,
            "energy_per_query_j": (active_j / len(t_latencies)
                                   if t_latencies else None),
            "rows": rows.get(tenant, 0),
        }

    snapshot = machine.metrics.snapshot()
    serve_counters = {
        name: value for name, value in sorted(snapshot.items())
        if name.startswith(("serve.", "cores.", "faults."))
        and isinstance(value, (int, float))
    }

    report = {
        "schema_version": SERVE_SCHEMA_VERSION,
        "config": config.report_fields(
            "workload", "policy", "dvfs", *RUN_FIELDS, "cores", "mpl",
            "quantum_rows", "max_queue", "tenant_quota", "queue_timeout_s"),
        "counts": counts,
        "latency_s": latency,
        "tenants": tenants,
        "energy": {
            "domain": trace.domain,
            "total_active_j": total_active_j,
            "system_active_j": system_j,
            "tenant_active_j": tenant_j,
            "check_sum_j": system_j + left_sum(tenant_j.values()),
            "energy_per_query_j": energy_per_query_j,
            "edp_js": edp,
            "request_energy_j": request_energy_j,
        },
        "clock": {
            "wall_s": machine.time_s,
            "busy_s": machine.busy_s,
            "idle_s": machine.idle_s,
            "context_switches": server.core_set.context_switches,
            "quanta": server.quanta,
        },
        "counters": serve_counters,
    }
    if resilient:
        report["config"].update(config.report_fields(
            *BREAKER_FIELDS, "retries", "retry_backoff_s", "retry_jitter",
            "retry_budget", "deadline_s"))
        final_attempt = ledger.attempts
        split = energy_split(
            {"serve": trace}, ledger.state_of, (COMPLETED,),
            lambda req, attempt: ("retried" if attempt < final_attempt[req]
                                  else None),
        )
        report["energy"].update({
            "useful_energy_j": split["useful_j"],
            "wasted_energy_j": split["wasted_j"],
            # The exact identity the chaos suite asserts: useful plus
            # wasted IS the active total, by construction.
            "active_energy_j": split["useful_j"] + split["wasted_j"],
            "wasted_by_reason_j": split["by_reason_j"],
        })
        disk_retries = sum(
            value for name, value in snapshot.items()
            if name.startswith("bufferpool.disk_retries")
            and isinstance(value, (int, float))
        )
        report["resilience"] = {
            "faults_injected": (injector.counts()
                                if injector is not None else {}),
            "retries_spent": (server.retry.spent
                              if server.retry is not None else 0),
            "breaker_trips": (server.breaker.trips
                              if server.breaker is not None else 0),
            "core_stalls": server.core_set.stalls,
            "disk_fault_errors": machine.disk.fault_errors,
            "disk_fault_slowdowns": machine.disk.fault_slowdowns,
            "disk_read_retries": disk_retries,
        }
    if config.telemetric:
        report["config"].update(config.report_fields(
            "telemetry", "exemplar_rate", "reservoir_size", "timeline_out",
            "timeline_window_s"))
        section: dict = {"mode": config.telemetry}
        if config.telemetry == "sampler":
            # Sampler mode: the summary carries the streaming aggregates.
            section["groups"] = trace.group_table()
            section["exemplars"] = {
                "rate": trace.exemplar_rate,
                "reservoir_size": config.reservoir_size,
                "offered": trace.exemplars_offered,
                "kept": len(trace.exemplars),
                "sample": [e.as_dict() for e in trace.exemplars[:5]],
            }
        report["telemetry"] = section
    return report


# ---------------------------------------------------------------- summaries
# One-line helpers shared by the serve and cluster text summaries.

#: Waste reasons a summary lists, largest first.
SUMMARY_REASONS = 6


def fmt(value, unit: str, precision: str = ".4g") -> str:
    return "n/a" if value is None else f"{value:{precision}} {unit}"


def counts_line(counts: dict) -> str:
    return "counts: " + "  ".join(f"{k}={v}" for k, v in counts.items())


def quantiles_line(label: str, section: dict, unit: str) -> str:
    """``label: p50=…  p95=…  p99=…  mean=…`` from a latency or energy
    section (keys ``p50_s`` / ``p50_j`` etc.)."""
    suffix = unit.lower()
    return f"{label}: " + "  ".join(
        f"{stat}={fmt(section[f'{stat}_{suffix}'], unit)}"
        for stat in ("p50", "p95", "p99", "mean")
    )


def engine_line(cfg: dict, elapsed_s: float, **totals: int) -> str:
    """Host wall time and per-host-second rates of the given totals."""
    rates = "  ".join(f"{name}/s={total / elapsed_s:.1f}"
                      for name, total in totals.items())
    return (f"engine: mode={cfg['exec_mode']}  host={elapsed_s:.3f} s  "
            f"{rates}")


def waste_line(energy: dict) -> str:
    """Useful vs wasted joules and the largest waste reasons."""
    ranked = sorted(energy["wasted_by_reason_j"].items(),
                    key=lambda item: (-item[1], item[0]))
    reasons = ", ".join(f"{reason}={joules:.3g} J"
                        for reason, joules in ranked[:SUMMARY_REASONS])
    active = energy["active_energy_j"]
    wasted = energy["wasted_energy_j"]
    share = 100.0 * wasted / active if active > 0 else 0.0
    return (f"waste: useful={energy['useful_energy_j']:.4g} J  "
            f"wasted={wasted:.4g} J ({share:.1f}%)  "
            f"reasons: {reasons or 'none'}")


def resilience_line(resilience: dict) -> str:
    """The resilience counters, then injected faults by site."""
    counters = "  ".join(f"{key}={value}"
                         for key, value in resilience.items()
                         if key != "faults_injected")
    faults = ", ".join(f"{site}={n}" for site, n in
                       resilience["faults_injected"].items())
    return f"resilience: {counters}  faults: {faults or 'none'}"


def render_serve_summary(report: dict, elapsed_s: float | None = None) -> str:
    """Human-readable one-screen summary of a serve report.

    The CLI prints this next to the JSON report; it surfaces what an
    operator looks at first — completion counts, latency percentiles,
    and joules per request, plus the useful/wasted split and the
    resilience counters of a chaos run.  ``elapsed_s`` is the *host*
    wall time of the run (measured by the caller, never stored in the
    report — the JSON stays a pure function of the config); when given,
    the summary adds an engine/throughput line with requests/s and
    quanta/s.
    """
    cfg = report["config"]
    counts = report["counts"]
    energy = report["energy"]
    clock = report["clock"]
    lines = [
        f"serve: workload={cfg['workload']} queries={cfg['queries']} "
        f"clients={cfg['clients']} policy={cfg['policy']} "
        f"dvfs={cfg['dvfs']} seed={cfg['seed']}",
        counts_line(counts),
    ]
    if elapsed_s is not None and elapsed_s > 0:
        lines.append(engine_line(cfg, elapsed_s, requests=counts["issued"],
                                 quanta=clock["quanta"]))
    lines += [
        quantiles_line("latency", report["latency_s"], "s"),
        quantiles_line("energy/request", energy["request_energy_j"], "J"),
        f"energy: active={energy['total_active_j']:.4g} J "
        f"({energy['domain']})  "
        f"per-query={fmt(energy['energy_per_query_j'], 'J')}  "
        f"wall={clock['wall_s']:.4g} s",
    ]
    if "useful_energy_j" in energy:
        lines.append(waste_line(energy))
    if "resilience" in report:
        lines.append(resilience_line(report["resilience"]))
    telemetry = report.get("telemetry")
    if telemetry is not None and "exemplars" in telemetry:
        exemplars = telemetry["exemplars"]
        lines.append(
            f"telemetry: mode={telemetry['mode']}  "
            f"groups={len(telemetry.get('groups', {}))}  "
            f"exemplars={exemplars['kept']}/{exemplars['offered']} "
            f"(rate {exemplars['rate']:g})"
        )
    elif telemetry is not None:
        lines.append(f"telemetry: mode={telemetry['mode']}")
    return "\n".join(lines)
