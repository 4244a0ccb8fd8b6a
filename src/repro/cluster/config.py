"""Configuration of one simulated cluster run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.serve.loop import RunConfig


@dataclass
class ClusterConfig(RunConfig):
    """Everything that parameterises one scatter-gather cluster run.

    Workload shape, machine, fault plan and circuit breaker come from
    :class:`~repro.serve.loop.RunConfig` (the same drivers generate
    arrivals as in :mod:`repro.serve`); the cluster adds topology
    (nodes, replication), the network model, and the coordinator's
    resilience knobs (sub-request timeout, bounded failover, hedging,
    partial results).  The breaker watches sub-request outcomes.
    """

    # --- workload defaults sized for a cluster ---
    clients: int = 8
    queries: int = 80
    rate_qps: float = 200.0
    # --- topology ---
    nodes: int = 4
    #: Replicas per shard (1 = no redundancy, no failover possible).
    replication: int = 2
    # --- network ---
    #: Base per-link propagation latency (each link draws ±20% once).
    net_latency_s: float = 2e-4
    #: Link bandwidth (bytes per simulated second); ~1 Gbit/s default.
    net_bytes_per_s: float = 1.25e8
    #: Scales the bytes charged as NIC energy per message (0 = free NIC,
    #: used by the single-node-equivalence tests).
    net_payload_factor: float = 1.0
    # --- resilience ---
    #: Coordinator-side timeout per sub-request attempt.
    subreq_timeout_s: float = 0.05
    #: Max attempts per sub-request, first try included.
    failover_attempts: int = 3
    #: Delay before a failover re-dispatch after a timeout.
    failover_backoff_s: float = 0.002
    #: Hedge a sub-request once it outlives this quantile of observed
    #: sub-request latencies (None = no hedging).
    hedge_quantile: Optional[float] = 0.95
    #: Completed sub-requests observed before hedging arms (cold start).
    hedge_min_samples: int = 16
    #: Complete with partial results when a shard is unreachable
    #: (degraded_partial) instead of failing the whole request.
    allow_partial: bool = True

    def validate(self) -> "ClusterConfig":
        super().validate()
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes}")
        if not 1 <= self.replication <= self.nodes:
            raise ConfigError(
                f"replication must be in [1, nodes={self.nodes}], "
                f"got {self.replication}"
            )
        if self.net_latency_s < 0:
            raise ConfigError("net_latency_s must be >= 0")
        if self.net_bytes_per_s <= 0:
            raise ConfigError("net_bytes_per_s must be positive")
        if self.net_payload_factor < 0:
            raise ConfigError("net_payload_factor must be >= 0")
        if self.subreq_timeout_s <= 0:
            raise ConfigError("subreq_timeout_s must be positive")
        if self.failover_attempts < 1:
            raise ConfigError(
                f"failover_attempts must be >= 1, got {self.failover_attempts}"
            )
        if self.failover_backoff_s < 0:
            raise ConfigError("failover_backoff_s must be >= 0")
        if self.hedge_quantile is not None and not (
            0.0 < self.hedge_quantile < 1.0
        ):
            raise ConfigError(
                f"hedge_quantile must be in (0, 1), got {self.hedge_quantile}"
            )
        if self.hedge_min_samples < 1:
            raise ConfigError("hedge_min_samples must be >= 1")
        return self
