"""Cluster-run accounting: the scatter-gather report.

Built from the same pieces as :mod:`repro.serve.report` (one energy
split, one state counter, one per-request fold, one set of summary
lines), with the same two properties, cluster-wide:

* **Determinism** — the report is a pure function of the config, so two
  runs with the same seed produce byte-identical JSON, across
  ``exec_mode`` reference/batched too.
* **Exact attribution** — every machine's Active energy is partitioned
  by the span-meta keys ``(request, attempt, wasted)``; the coordinator
  supplies a waste reason per losing attempt, so hedge-loser joules, a
  crashed node's lost partial work, and every failover re-read are
  itemised by cause in ``wasted_by_reason_j``.  Per machine,
  ``useful_j + wasted_j`` is *exactly* the partition total (one float
  sum, split two ways); the reported cluster ``active_energy_j`` is
  defined as ``useful + wasted`` so the conservation identity holds by
  construction, and ``node_active_sum_j`` carries the independently
  measured total for cross-checking.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterCoordinator
from repro.fold import left_sum
from repro.serve.loop import BREAKER_FIELDS, RUN_FIELDS
from repro.serve.report import (
    counts_line,
    energy_split,
    engine_line,
    fmt,
    latency_summary,
    quantiles_line,
    request_energy,
    resilience_line,
    state_counts,
    waste_line,
)
from repro.serve.request import (
    COMPLETED,
    DEGRADED_PARTIAL,
    FAILED,
    SHED_DEGRADED,
)

#: Version stamp on every cluster report.
CLUSTER_SCHEMA_VERSION = 1

#: Request states whose results reached the client (energy spent on
#: their winning attempts is useful).
DELIVERED_STATES = (COMPLETED, DEGRADED_PARTIAL)

#: Terminal states a cluster request can end in, in report order.
CLUSTER_STATES = (COMPLETED, DEGRADED_PARTIAL, FAILED, SHED_DEGRADED)


def _machine_section(split: dict, machine, **extra) -> dict:
    """One machine's energy split and clock, plus ``extra`` fields."""
    return {
        "active_j": split["useful_j"] + split["wasted_j"],
        "useful_j": split["useful_j"],
        "wasted_j": split["wasted_j"],
        "wall_s": machine.time_s,
        "busy_s": machine.busy_s,
        "idle_s": machine.idle_s,
        **extra,
    }


def build_cluster_report(config, coordinator: ClusterCoordinator,
                         traces: dict, network, injector=None) -> dict:
    """Assemble the cluster run's JSON report.

    ``traces`` maps machine name ("coord", "node0", ...) to that
    machine's :class:`~repro.obs.span.Trace`.  Per-request figures are
    read from ``coordinator.ledger`` in request-id order, as
    :func:`~repro.serve.report.build_report` reads them.
    """
    ledger = coordinator.ledger
    counts = state_counts(ledger.states(), CLUSTER_STATES)
    latencies = ledger.latencies(DELIVERED_STATES)
    n_delivered = len(latencies)

    outcomes = coordinator.attempt_outcomes
    split = energy_split(traces, ledger.state_of, DELIVERED_STATES,
                         lambda _req, attempt: outcomes.get(attempt))
    node_active_sum_j = left_sum(traces[name].total_active_j
                                 for name in sorted(traces))
    active_energy_j = split["useful_j"] + split["wasted_j"]
    energy_per_query_j = (active_energy_j / n_delivered
                          if n_delivered else None)

    per_machine = split["per_machine"]
    nodes_section = {
        node.name: _machine_section(
            per_machine[node.name], node.machine,
            subreqs_served=node.subreqs_served,
            crashes=node.crashes,
            slowdowns=node.slowdowns,
        )
        for node in coordinator.nodes
    }
    coord_machine = coordinator.machine
    makespan_s = max(
        [coord_machine.time_s]
        + [node.machine.time_s for node in coordinator.nodes]
    )

    report = {
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "config": config.report_fields(
            "nodes", "replication", *RUN_FIELDS, "net_latency_s",
            "net_bytes_per_s", "net_payload_factor", "subreq_timeout_s",
            "failover_attempts", "failover_backoff_s", "hedge_quantile",
            "hedge_min_samples", "allow_partial", *BREAKER_FIELDS),
        "counts": counts,
        "latency_s": latency_summary(latencies),
        "subrequests": {
            "sent": coordinator.subreqs_sent,
            "hedges": coordinator.hedges,
            "hedge_wins": coordinator.hedge_wins,
            "failovers": coordinator.failovers,
            "timeouts": coordinator.timeouts,
        },
        "energy": {
            "domain": next(iter(traces.values())).domain,
            "useful_energy_j": split["useful_j"],
            "wasted_energy_j": split["wasted_j"],
            # The conservation identity the chaos suite asserts: useful
            # plus wasted IS the cluster active total, by construction.
            "active_energy_j": active_energy_j,
            "node_active_sum_j": node_active_sum_j,
            "wasted_by_reason_j": split["by_reason_j"],
            "energy_per_query_j": energy_per_query_j,
            "request_energy_j": request_energy(traces),
        },
        "coordinator": _machine_section(per_machine["coord"], coord_machine),
        "nodes": nodes_section,
        "network": {
            "messages": network.messages,
            "bytes_sent": network.bytes_sent,
            "dropped": network.dropped,
            "partitioned": network.partitioned,
            "partition_episodes": network.partition_episodes,
            "link_latencies": network.link_latencies(),
        },
        "resilience": {
            "faults_injected": (injector.counts()
                                if injector is not None else {}),
            "breaker_trips": (coordinator.breaker.trips
                              if coordinator.breaker is not None else 0),
            "shed_degraded": counts[SHED_DEGRADED],
        },
        "clock": {
            "makespan_s": makespan_s,
            "events": coordinator.events,
        },
    }
    return report


def render_cluster_summary(report: dict,
                           elapsed_s: float | None = None) -> str:
    """Human-readable one-screen summary of a cluster report."""
    cfg = report["config"]
    energy = report["energy"]
    subreqs = report["subrequests"]
    resilience = report["resilience"]
    lines = [
        f"cluster: nodes={cfg['nodes']} rf={cfg['replication']} "
        f"queries={cfg['queries']} clients={cfg['clients']} "
        f"seed={cfg['seed']}",
        counts_line(report["counts"]),
        f"subrequests: sent={subreqs['sent']}  "
        f"hedged={subreqs['hedges']} (won {subreqs['hedge_wins']})  "
        f"failovers={subreqs['failovers']}  "
        f"timeouts={subreqs['timeouts']}  "
        f"shed={resilience['shed_degraded']}",
        quantiles_line("latency", report["latency_s"], "s"),
        f"energy: active={energy['active_energy_j']:.4g} J "
        f"({energy['domain']})  "
        f"per-query={fmt(energy['energy_per_query_j'], 'J')}  "
        f"makespan={report['clock']['makespan_s']:.4g} s",
        waste_line(energy),
        resilience_line(resilience),
    ]
    if elapsed_s is not None and elapsed_s > 0:
        lines.append(engine_line(cfg, elapsed_s,
                                 events=report["clock"]["events"]))
    return "\n".join(lines)
