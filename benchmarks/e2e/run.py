"""End-to-end benchmark of the simulator: five workloads, host metrics.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--trace-dir DIR] [--out FILE]
                                  [--smoke] [--record-digests]

Each workload runs :func:`rep_count` reps, one fresh process per rep and
one at a time.  The count follows from ``--seconds`` alone, never from
how fast the reps ran, so two commits given the same ``--seconds`` are
measured with the same estimator.  ``setup_s`` and ``peak_rss_mb`` are
medians over the reps; ``ops_per_s`` uses :func:`fastest_timed_s`.
Every metric is printed as ``workload.metric value unit``; the output
checks follow, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when a
check failed, 2 when the program is missing or the arguments are
wrong, 3 when a rep crashed (then no result is printed).

``--trace 1`` adds one traced rep per workload: it writes
``DIR/spans.jsonl`` and ``DIR/layers.json``, prints each layer's share
of the timed phase, and reports the per-layer metrics instead of the
end-to-end ones in the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layertrace import per_layer_metrics  # noqa: E402
from workloads import SIZES  # noqa: E402

WORKLOAD_NAMES = tuple(SIZES)
DEFAULT_SEED = 7
DEFAULT_SECONDS = 15
#: Nominal wall seconds of one full-size rep (the sizes in ``SIZES`` are
#: chosen to take about this long on the baseline host).
REP_SECONDS = 3
MIN_REPS = 3
#: Recorded report digests at the default seed.
DIGESTS = HERE / "digests.json"
#: A rep that takes longer than this is treated as hung.
REP_TIMEOUT_S = 150

#: End-to-end metrics and their units.
E2E_METRICS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MiB"}


class RepCrashed(RuntimeError):
    pass


def run_rep(spec: dict) -> dict:
    """Run one rep in a fresh process; returns its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RepCrashed(f"{spec['workload']}: rep exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepCrashed(f"{spec['workload']}: rep exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fastest_timed_s(reps: list) -> float:
    """The timed phase as if every segment ran at its fastest.

    The reps of one run do identical work (their report digests are
    equal), cut into segments at the same points of that work.  Host
    interference only ever slows a segment down and comes in episodes
    of seconds, so the minimum over reps of each segment, summed, is the
    steadiest estimate of the phase's CPU time on a quiet host.
    """
    return sum(min(times) for times in zip(*(rep["segments_cpu_s"] for rep in reps)))


def rep_count(seconds: float) -> int:
    """Reps per workload for a run of about ``seconds``: 5 at the default."""
    return max(MIN_REPS, round(seconds / REP_SECONDS))


def measure(name: str, args) -> dict:
    """Every rep of one workload, plus the traced rep when asked."""
    spec = {"workload": name, "seed": args.seed,
            "size": "smoke" if args.smoke else "full"}
    start = time.perf_counter()
    reps = [run_rep(spec) for _ in range(rep_count(args.seconds))]
    traced = None
    if args.trace:
        traced = run_rep({**spec, "trace_dir": args.trace_dir})
    return {"reps": reps, "traced": traced, "wall_s": time.perf_counter() - start}


def summarise(name: str, run: dict, args, expected_digest) -> dict:
    reps = run["reps"]
    metrics = {
        "setup_s": statistics.median(rep["setup_cpu_s"] for rep in reps),
        "ops_per_s": reps[0]["issued"] / fastest_timed_s(reps),
        "peak_rss_mb": statistics.median(rep["maxrss_kib"] / 1024 for rep in reps),
    }
    digests = {rep["digest"] for rep in reps}
    checks = {}
    for check in reps[0]["checks"]:
        checks[check] = all(rep["checks"][check] for rep in reps)
    checks["reps_identical"] = (len(digests) == 1 and
                                len({len(rep["segments_cpu_s"]) for rep in reps}) == 1)
    if args.seed == DEFAULT_SEED:
        checks["digest"] = expected_digest is not None and digests == {expected_digest}
    layers = None
    traced = run["traced"]
    if traced is not None:
        from layertrace import layer_metrics

        phases = traced["trace"]
        timed = phases["timed"]
        checks["trace_transparent"] = traced["digest"] in digests
        checks["trace_reconciles"] = abs(
            timed["self_total_s"] + timed["unattributed_s"] - timed["wall_s"]
        ) <= 1e-9 * timed["wall_s"]
        # Like with like: the traced rep against the median untraced rep,
        # both whole timed phases of the same work.
        overhead = (traced["timed_cpu_s"] /
                    statistics.median(rep["timed_cpu_s"] for rep in reps))
        layers = {"phases": phases,
                  "metrics": layer_metrics(phases, traced["extras"], overhead)}
    attempted = sum(rep["issued"] for rep in reps)
    if all(checks.values()):
        failed = sum(rep["issued"] - rep["succeeded"] for rep in reps)
    else:
        failed = attempted  # a failed output check discredits every op
    return {
        "workload": name,
        "seed": args.seed,
        "size": reps[0]["size"],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "checks": checks,
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "run_wall_s": run["wall_s"],
        "reps": [{key: rep[key] for key in ("setup_cpu_s", "timed_cpu_s", "timed_wall_s",
                                            "maxrss_kib", "issued", "succeeded")}
                 for rep in reps],
        "layers": layers,
    }


def print_layers(name: str, layers: dict) -> None:
    """The traced rep's self-time shares, timed phase first."""
    for phase in ("timed", "setup"):
        summary = layers["phases"][phase]
        wall = summary["wall_s"]
        print(f"{name}: {phase} phase {wall:.4f} s traced, self time by layer:")
        ranked = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for key, entry in ranked:
            if entry["self_s"] >= 0.001 * wall:
                print(f"  {key:<40} {entry['calls']:>9} calls {entry['self_s']:>9.4f} s"
                      f" {100 * entry['self_s'] / wall:>6.2f}%")
        print(f"  {'unattributed_s':<40} {'':>15} {summary['unattributed_s']:>9.4f} s"
              f" {100 * summary['unattributed_s'] / wall:>6.2f}%")
    print(f"{name}: tracing overhead {layers['metrics']['trace.overhead']:.3f}x"
          " (traced rep's timed CPU s / median untraced rep's)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length per workload; sets the rep count,"
                             f" seconds / {REP_SECONDS} (at least {MIN_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add a traced rep and report per-layer metrics")
    parser.add_argument("--trace-dir", default=".e2e_trace",
                        help="where --trace 1 writes spans.jsonl and layers.json")
    parser.add_argument("--out", help="write every rep and metric to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="overwrite the recorded digests with this run's")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    suffix = "@smoke" if args.smoke else ""
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if args.trace:
        os.makedirs(args.trace_dir, exist_ok=True)
        open(os.path.join(args.trace_dir, "spans.jsonl"), "w").close()

    summaries = {}
    try:
        for name in names:
            run = measure(name, args)
            if args.record_digests and len({rep["digest"] for rep in run["reps"]}) == 1:
                recorded[name + suffix] = run["reps"][0]["digest"]
            summaries[name] = summarise(name, run, args, recorded.get(name + suffix))
    except RepCrashed as crash:
        print(f"run.py: error: {crash}", file=sys.stderr)
        return 3

    layer_units = per_layer_metrics()
    result_metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in summary["metrics"].items():
            print(f"{name}.{metric} {value!r} {E2E_METRICS[metric]}")
            if not args.trace:
                result_metrics[prefix + metric] = {"value": value, "unit": E2E_METRICS[metric]}
        if summary["layers"] is not None:
            print_layers(name, summary["layers"])
            for metric, value in summary["layers"]["metrics"].items():
                print(f"{name}.{metric} {value!r} {layer_units[metric]}")
                result_metrics[prefix + metric] = {"value": value, "unit": layer_units[metric]}
        failing = [check for check, ok in summary["checks"].items() if not ok]
        print(f"{name}: {len(summary['reps'])} reps, {summary['attempted']} ops,"
              f" {summary['failed']} failed (failed_share {summary['failed_share']:g}),"
              + (f" FAILED checks: {', '.join(failing)}" if failing else " checks ok"))

    if args.trace:
        with open(os.path.join(args.trace_dir, "layers.json"), "w", encoding="utf-8") as handle:
            json.dump({name: s["layers"] for name, s in summaries.items()}, handle, indent=1)
    if args.record_digests:
        with open(DIGESTS, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summaries, handle, indent=1)

    correct = all(all(s["checks"].values()) for s in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
