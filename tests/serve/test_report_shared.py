"""The report pieces serve and cluster share: state counts, the summary
lines, and the validation of the shared config fields."""

import pytest

from repro.cluster import ClusterConfig, render_cluster_summary
from repro.errors import ConfigError
from repro.serve import ServeConfig, render_serve_summary
from repro.serve.report import (
    SUMMARY_REASONS,
    latency_summary,
    state_counts,
    waste_line,
)


class TestStateCounts:
    def test_counts_listed_states_in_order(self):
        counts = state_counts(["b", "a", "b", "other", None], ("a", "b"))
        assert list(counts.items()) == [("issued", 5), ("a", 1), ("b", 2)]


class TestLatencySummary:
    def test_mean_in_given_order_then_sorted_in_place(self):
        samples = [0.3, 0.1, 0.2, 0.1]
        summary = latency_summary(samples)
        assert summary["mean_s"] == sum([0.3, 0.1, 0.2, 0.1]) / 4
        assert samples == [0.1, 0.1, 0.2, 0.3]
        assert (summary["p50_s"], summary["p95_s"]) == (0.1, 0.3)


# Eight reasons; the largest sorts last by name.
REASONS = {
    "a_small": 1e-6,
    "b_small": 2e-6,
    "c_small": 3e-6,
    "d_small": 4e-6,
    "e_small": 5e-6,
    "f_small": 6e-6,
    "g_mid": 5e-3,
    "zz_largest": 9.0,
}

ENERGY = {
    "useful_energy_j": 1.0,
    "wasted_energy_j": sum(REASONS.values()),
    "active_energy_j": 1.0 + sum(REASONS.values()),
    "wasted_by_reason_j": dict(sorted(REASONS.items())),
    "total_active_j": 1.0 + sum(REASONS.values()),
    "domain": "package",
    "energy_per_query_j": 0.5,
    "request_energy_j": {"n": 2, "mean_j": 0.5, "p50_j": 0.5,
                         "p95_j": 0.5, "p99_j": 0.5},
}

SERVE_REPORT = {
    "config": {"workload": "basic", "queries": 2, "clients": 1,
               "policy": "fifo", "dvfs": "race", "seed": 0,
               "exec_mode": "batched"},
    "counts": {"issued": 2, "completed": 2},
    "latency_s": {"n": 2, "mean_s": 0.1, "p50_s": 0.1, "p95_s": 0.1,
                  "p99_s": 0.1},
    "energy": ENERGY,
    "clock": {"wall_s": 1.0, "quanta": 4},
    "resilience": {"faults_injected": {"request.error": 3},
                   "retries_spent": 3, "breaker_trips": 0},
}

CLUSTER_REPORT = {
    "config": {"nodes": 2, "replication": 1, "queries": 2, "clients": 1,
               "seed": 0, "exec_mode": "batched"},
    "counts": {"issued": 2, "completed": 2},
    "latency_s": SERVE_REPORT["latency_s"],
    "energy": ENERGY,
    "subrequests": {"sent": 4, "hedges": 0, "hedge_wins": 0,
                    "failovers": 0, "timeouts": 0},
    "resilience": {"faults_injected": {}, "breaker_trips": 0,
                   "shed_degraded": 0},
    "clock": {"makespan_s": 1.0, "events": 10},
}


def _line(text: str, prefix: str) -> str:
    return next(line for line in text.splitlines() if line.startswith(prefix))


class TestWasteLine:
    def test_ranks_reasons_by_joules_not_name(self):
        line = waste_line(ENERGY)
        assert line.index("zz_largest=") < line.index("g_mid=")
        # Capped: the two smallest reasons are the ones left out.
        assert len(line.split("reasons: ")[1].split(", ")) == SUMMARY_REASONS
        assert "a_small" not in line and "b_small" not in line

    def test_ties_break_by_name(self):
        line = waste_line({**ENERGY, "wasted_by_reason_j": {"b": 1.0,
                                                            "a": 1.0}})
        assert line.index("a=") < line.index("b=")

    @pytest.mark.parametrize("render,report", [
        (render_serve_summary, SERVE_REPORT),
        (render_cluster_summary, CLUSTER_REPORT),
    ])
    def test_both_summaries_show_the_largest_reason(self, render, report):
        text = render(report, elapsed_s=1.0)
        assert _line(text, "waste:") == waste_line(ENERGY)
        assert "zz_largest=9 J" in text
        assert _line(text, "resilience:").endswith(
            "faults: request.error=3"
            if report is SERVE_REPORT else "faults: none")


#: Overrides every shared-config subclass must reject in ``validate()``,
#: before any machine is built or data loaded.
SHARED_BAD = [
    {"mode": "bursty"},
    {"mode": "open", "rate_qps": 0.0},
    {"mode": "open", "rate_qps": -5.0},
    {"think_s": -0.1},
    {"clients": 0},
    {"breaker_threshold": 1.5},
    {"degrade_keep_tenants": 0},
]

SERVE_BAD = [
    {"workload": "nosuchmix"},
    {"policy": "lifo"},
    {"dvfs": "turbo"},
]


class TestSharedValidation:
    @pytest.mark.parametrize("config_cls", [ServeConfig, ClusterConfig])
    @pytest.mark.parametrize("overrides", SHARED_BAD, ids=str)
    def test_shared_fields_rejected(self, config_cls, overrides):
        with pytest.raises(ConfigError):
            config_cls(**overrides).validate()

    @pytest.mark.parametrize("overrides", SERVE_BAD, ids=str)
    def test_serve_fields_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ServeConfig(**overrides).validate()

    @pytest.mark.parametrize("config_cls", [ServeConfig, ClusterConfig])
    def test_closed_loop_ignores_rate(self, config_cls):
        config_cls(mode="closed", rate_qps=0.0).validate()

    def test_defaults_kept_per_run_kind(self):
        assert (ServeConfig().clients, ServeConfig().rate_qps) == (4, 50.0)
        assert (ClusterConfig().clients,
                ClusterConfig().rate_qps) == (8, 200.0)
