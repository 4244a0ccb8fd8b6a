"""Serving-policy comparison: locality batching vs FIFO vs SJF.

A cache-thrashing mix (clients cycling scans over lineitem, orders and
partsupp with a 16-frame buffer pool) is served under each scheduling
policy.  Interleaving tables FIFO-style forces lineitem's 51-page pass
to evict the small tables between every visit; batching by hot table
keeps them resident, so locality must come in at or below FIFO on
energy per query.  The whole run is simulated and seeded, so the
numbers are exact and reproducible.
"""

from repro.analysis.experiments import ExperimentResult
from repro.serve import ServeConfig, run_serve

POLICIES = ("fifo", "sjf", "locality")


def _config(policy: str) -> ServeConfig:
    return ServeConfig(
        workload="thrash",
        policy=policy,
        mode="open",
        rate_qps=5000.0,
        clients=6,
        queries=18,
        tenants=2,
        cores=1,
        mpl=1,
        seed=7,
        tier="100MB",
        setting="small",  # 16-frame pool: the paper's cache-pressure regime
    )


def serve_policies_experiment() -> ExperimentResult:
    reports = {policy: run_serve(_config(policy)) for policy in POLICIES}
    epq = {p: r["energy"]["energy_per_query_j"] for p, r in reports.items()}
    mean = {p: r["latency_s"]["mean_s"] for p, r in reports.items()}
    edp = {p: r["energy"]["edp_js"] for p, r in reports.items()}

    lines = [
        f"{'policy':<10} {'J/query':>12} {'mean lat (s)':>13} {'EDP (J*s)':>12}",
    ]
    for policy in POLICIES:
        lines.append(f"{policy:<10} {epq[policy]:>12.6e} "
                     f"{mean[policy]:>13.6e} {edp[policy]:>12.6e}")
    checks = {
        "locality_epq_le_fifo": epq["locality"] <= epq["fifo"],
        "sjf_mean_latency_le_fifo": mean["sjf"] <= mean["fifo"],
        "all_queries_completed": all(
            r["counts"]["completed"] == r["counts"]["issued"]
            for r in reports.values()
        ),
        "energy_attribution_balances": all(
            abs(r["energy"]["check_sum_j"] - r["energy"]["total_active_j"])
            <= 1e-12 * r["energy"]["total_active_j"]
            for r in reports.values()
        ),
    }
    return ExperimentResult(
        experiment_id="serve_policies",
        title="Energy per query under serving policies (thrash mix)",
        text="\n".join(lines),
        data={"energy_per_query_j": epq, "mean_latency_s": mean,
              "edp_js": edp},
        checks=checks,
    )


def test_serve_policies(benchmark, record_experiment):
    result = benchmark.pedantic(serve_policies_experiment,
                                rounds=1, iterations=1)
    record_experiment(result)
    assert result.all_checks_pass, result.failed_checks()
