"""Differential energy attribution: *what* regressed between two runs.

A bench gate that prints a bare ratio answers "did it regress"; this
module answers "where".  :func:`load_snapshot` reads any of the repo's
run artifacts —

* a **bench** report (``repro bench`` / ``BENCH_simperf.json``),
* a **serve** report (``repro serve --json``), or
* a **trace** span log (``repro trace --jsonl``)

— and normalises it into per-dimension attributions: energy and time
per *operator*, per *micro-op class*, and per *cache level* (where the
artifact carries them; a bench report carries per-section throughput
and wall time instead).  :func:`diff_snapshots` takes two snapshots of
the same kind and produces ranked Δ tables; :func:`render_diff` prints
them as a text report.

Energy attribution below the operator level uses count-weighted shares:
a span's (or group's) Active energy is split across micro-op classes in
proportion to their instruction counts, and across cache levels in
proportion to *terminal* access counts (each load terminates at exactly
one level: an L1D hit, an L2 hit, an L3 hit, or memory).  That is an
approximation — per-class energies differ — but it is deterministic,
sums exactly to the operator energy, and ranks regressions by the same
signal the paper's Eq. (1) weighs.

Snapshots refuse to compare across kinds or schema versions: a report
produced by a different schema may have renamed or re-scoped the very
field being diffed, so the comparison fails loudly
(:class:`~repro.errors.DiffError`) instead of producing a confident
wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DiffError
from repro.fold import left_sum

#: Micro-op instruction classes and their PMU counter fields.
MICROOP_FIELDS = {
    "load": "n_load_inst",
    "store": "n_store_inst",
    "add": "n_add",
    "nop": "n_nop",
    "mul": "n_mul",
    "cmp": "n_cmp",
    "branch": "n_branch",
    "other": "n_other",
}

#: Cache levels and the counter holding *terminal* accesses there.
TERMINAL_LEVEL_FIELDS = {
    "L1D": "l1d_hits",
    "L2": "l2_hits",
    "L3": "l3_hits",
    "mem": "n_mem",
}


@dataclass
class Snapshot:
    """One run artifact normalised for diffing."""

    path: str
    kind: str
    schema_version: object
    total_energy_j: Optional[float] = None
    total_time_s: Optional[float] = None
    #: ``{name: {"energy_j": float, "time_s": float}}``
    operators: dict = field(default_factory=dict)
    #: ``{class: {"count": float, "energy_j": float}}``
    microops: dict = field(default_factory=dict)
    #: ``{level: {"count": float, "energy_j": float}}``
    cache_levels: dict = field(default_factory=dict)
    #: Bench only: ``{section: {"mops": float, "wall_s": float}}``
    sections: dict = field(default_factory=dict)


# ------------------------------------------------------------------ loading


def load_snapshot(path: str) -> Snapshot:
    """Read and normalise one artifact (kind auto-detected)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise DiffError(f"{path}: empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        if doc.get("kind") == "optimizer":
            return _load_optimizer(path, doc)
        if "scan_path" in doc:
            return _load_bench(path, doc)
        if "energy" in doc and "counts" in doc:
            return _load_serve(path, doc)
        if "record" not in doc:
            raise DiffError(
                f"{path}: unrecognised JSON document (expected a bench "
                f"or serve report, or a trace/timeline JSONL file)"
            )
        # A one-record JSONL file parses as a whole-JSON dict; fall
        # through to the line-oriented handling below.
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DiffError(f"{path}: not JSON and not JSONL ({exc})") from exc
    record = header.get("record")
    if record == "trace":
        return _load_trace(path, header, lines[1:])
    if record == "timeline":
        raise DiffError(
            f"{path}: timelines are time series, not attribution "
            f"snapshots; diff the serve reports or traces that "
            f"produced them"
        )
    raise DiffError(f"{path}: unrecognised JSONL record {record!r}")


def _credit_weighted(target: dict, fields_map: dict, counters: dict,
                     energy_j: float) -> None:
    """Split ``energy_j`` across ``fields_map`` keys in proportion to
    their counts; accumulate counts alongside."""
    counts = {key: float(counters.get(fld, 0) or 0)
              for key, fld in fields_map.items()}
    total = left_sum(counts.values())
    for key, count in counts.items():
        entry = target.setdefault(key, {"count": 0.0, "energy_j": 0.0})
        entry["count"] += count
        if total > 0:
            entry["energy_j"] += energy_j * count / total


def _load_trace(path: str, header: dict, lines: list) -> Snapshot:
    snap = Snapshot(
        path=path,
        kind="trace",
        schema_version=header.get("schema_version", "unversioned"),
        total_energy_j=header.get("total_active_j"),
    )
    total_time = 0.0
    for line in lines:
        record = json.loads(line)
        meta = record.get("meta", {})
        name = meta.get("op") or meta.get("job") or record["name"]
        self_part = record["self"]
        energy = self_part["active_j"]
        time_s = self_part["time_s"]
        total_time += time_s
        op = snap.operators.setdefault(
            name, {"energy_j": 0.0, "time_s": 0.0}
        )
        op["energy_j"] += energy
        op["time_s"] += time_s
        counters = self_part.get("counters", {})
        _credit_weighted(snap.microops, MICROOP_FIELDS, counters, energy)
        _credit_weighted(snap.cache_levels, TERMINAL_LEVEL_FIELDS,
                         counters, energy)
    snap.total_time_s = total_time
    return snap


def _load_serve(path: str, doc: dict) -> Snapshot:
    snap = Snapshot(
        path=path,
        kind="serve",
        schema_version=doc.get("schema_version", "unversioned"),
        total_energy_j=doc["energy"]["total_active_j"],
        total_time_s=doc["clock"]["wall_s"],
    )
    groups = doc.get("telemetry", {}).get("groups", {})
    for name, row in groups.items():
        snap.operators[name] = {
            "energy_j": row["active_j"],
            "time_s": row["time_s"],
        }
        energy = row["active_j"]
        microops = row.get("microops", {})
        _credit_weighted(
            snap.microops,
            {cls: cls for cls in MICROOP_FIELDS},
            microops, energy,
        )
        levels = row.get("cache_levels", {})
        terminal = {
            "L1D": levels.get("L1D", {}).get("hits", 0),
            "L2": levels.get("L2", {}).get("hits", 0),
            "L3": levels.get("L3", {}).get("hits", 0),
            "mem": levels.get("mem", {}).get("accesses", 0),
        }
        _credit_weighted(
            snap.cache_levels,
            {lvl: lvl for lvl in terminal},
            terminal, energy,
        )
    if not groups:
        # No sampler telemetry: fall back to per-tenant attribution so
        # plain serve reports still diff at some granularity.
        for tenant, joules in doc["energy"]["tenant_active_j"].items():
            snap.operators[f"tenant:{tenant}"] = {
                "energy_j": joules, "time_s": 0.0,
            }
    return snap


def _load_bench(path: str, doc: dict) -> Snapshot:
    snap = Snapshot(
        path=path,
        kind="bench",
        schema_version=doc.get("schema_version", "unversioned"),
    )
    walls = doc.get("sections_wall_s", {})
    scan = doc.get("scan_path", {})
    for key, entry in scan.items():
        if key == "fig08_datasize_scan":
            for tier, tier_entry in entry.items():
                snap.sections[f"scan_path.fig08.{tier}"] = {
                    "mops": tier_entry.get("batched_mops"),
                    "wall_s": None,
                }
            continue
        snap.sections[f"scan_path.{key}"] = {
            "mops": entry.get("batched_mops"),
            "wall_s": None,
        }
    row = doc.get("row_load_run", {})
    if row:
        snap.sections["row_load_run"] = {
            "mops": row.get("batched_mops"), "wall_s": None,
        }
    for query, entry in doc.get("tpch", {}).items():
        snap.sections[f"tpch.{query}"] = {
            "mops": None, "wall_s": entry.get("batched_s"),
        }
    serve = doc.get("serve", {})
    if "batched" in serve:  # pre-v4 layout: one flat cross-mode entry
        snap.sections["serve"] = {
            "mops": None,
            "wall_s": serve.get("batched", {}).get("wall_s"),
        }
    else:  # v4+: named sub-benches (tpch, engine), each cross-mode
        for key, entry in serve.items():
            snap.sections[f"serve.{key}"] = {
                "mops": None,
                "wall_s": entry.get("batched", {}).get("wall_s"),
            }
    scale = doc.get("serve_scale", {})
    if scale:
        snap.sections["serve_scale"] = {
            "mops": None,
            "wall_s": scale.get("wall_s"),
        }
    for section, wall in walls.items():
        entry = snap.sections.setdefault(
            section, {"mops": None, "wall_s": None}
        )
        if entry.get("wall_s") is None:
            entry["wall_s"] = wall
    return snap


def _load_optimizer(path: str, doc: dict) -> Snapshot:
    """An optimizer-compare artifact (``repro optimize --compare``).

    Each (engine, query) entry becomes an "operator" row carrying the
    optimized plan's measured joules, so the generic ranked-Δ machinery
    surfaces which query's optimized energy moved between two runs.
    """
    snap = Snapshot(
        path=path,
        kind="optimizer",
        schema_version=doc.get("schema_version", "unversioned"),
    )
    total = 0.0
    for engine, per_engine in doc.get("engines", {}).items():
        for query, entry in per_engine.items():
            energy = entry.get("optimized_j")
            if energy is None:
                continue
            snap.operators[f"{engine}.{query}"] = {
                "energy_j": energy, "time_s": None,
            }
            total += energy
    snap.total_energy_j = total if snap.operators else None
    return snap


# ------------------------------------------------------------------ diffing


def _check_comparable(a: Snapshot, b: Snapshot) -> None:
    if a.kind != b.kind:
        raise DiffError(
            f"cannot diff a {a.kind} snapshot ({a.path}) against a "
            f"{b.kind} snapshot ({b.path})"
        )
    if a.schema_version != b.schema_version:
        raise DiffError(
            f"schema version mismatch: {a.path} is "
            f"{a.schema_version!r}, {b.path} is {b.schema_version!r}; "
            f"regenerate the older snapshot with the current tooling"
        )


def _delta_rows(a_dim: dict, b_dim: dict, value_keys: tuple) -> list:
    rows = []
    for name in sorted(set(a_dim) | set(b_dim)):
        row = {"name": name}
        for key in value_keys:
            va = a_dim.get(name, {}).get(key)
            vb = b_dim.get(name, {}).get(key)
            row[f"a_{key}"] = va
            row[f"b_{key}"] = vb
            row[f"delta_{key}"] = (
                vb - va if va is not None and vb is not None else None
            )
        rows.append(row)
    return rows


def _rank(rows: list, by: str) -> list:
    return sorted(
        rows,
        key=lambda row: (-(abs(row[by]) if row[by] is not None else 0.0),
                         row["name"]),
    )


def _shared_query_totals(a_ops: dict, b_ops: dict) -> dict:
    """Optimizer totals over the queries both artifacts measured.

    A query on one side only reflects a different ``--query`` list, not
    an energy change: it is counted (``only_a``/``only_b``) but left
    out of both sums, which keep each artifact's order.  With no query
    in common there is no total to compare.
    """
    shared = a_ops.keys() & b_ops.keys()
    totals = {"only_a": len(a_ops) - len(shared),
              "only_b": len(b_ops) - len(shared),
              "a_energy_j": None, "b_energy_j": None,
              "delta_energy_j": None}
    if shared:
        a_j = left_sum(row["energy_j"] for name, row in a_ops.items()
                       if name in shared)
        b_j = left_sum(row["energy_j"] for name, row in b_ops.items()
                       if name in shared)
        totals.update(a_energy_j=a_j, b_energy_j=b_j,
                      delta_energy_j=b_j - a_j)
    return totals


def diff_snapshots(a: Snapshot, b: Snapshot) -> dict:
    """Ranked per-dimension deltas ``b - a`` (A is the baseline)."""
    _check_comparable(a, b)
    out: dict = {
        "kind": a.kind,
        "a": a.path,
        "b": b.path,
        "totals": {
            "a_energy_j": a.total_energy_j,
            "b_energy_j": b.total_energy_j,
            "delta_energy_j": (
                b.total_energy_j - a.total_energy_j
                if a.total_energy_j is not None
                and b.total_energy_j is not None else None
            ),
            "a_time_s": a.total_time_s,
            "b_time_s": b.total_time_s,
            "delta_time_s": (
                b.total_time_s - a.total_time_s
                if a.total_time_s is not None
                and b.total_time_s is not None else None
            ),
        },
        "dims": {},
    }
    if a.kind == "optimizer":
        out["totals"].update(_shared_query_totals(a.operators, b.operators))
    if a.operators or b.operators:
        out["dims"]["operator"] = _rank(
            _delta_rows(a.operators, b.operators, ("energy_j", "time_s")),
            "delta_energy_j",
        )
    if a.microops or b.microops:
        out["dims"]["microop"] = _rank(
            _delta_rows(a.microops, b.microops, ("energy_j", "count")),
            "delta_energy_j",
        )
    if a.cache_levels or b.cache_levels:
        out["dims"]["cache_level"] = _rank(
            _delta_rows(a.cache_levels, b.cache_levels,
                        ("energy_j", "count")),
            "delta_energy_j",
        )
    if a.sections or b.sections:
        rows = _delta_rows(a.sections, b.sections, ("mops", "wall_s"))
        for row in rows:
            va, vb = row["a_mops"], row["b_mops"]
            row["mops_ratio"] = (vb / va if va and vb is not None else None)
        out["dims"]["section"] = sorted(
            rows,
            key=lambda row: (row["mops_ratio"]
                             if row["mops_ratio"] is not None else 1.0,
                             row["name"]),
        )
    return out


def top_regressor(diff: dict) -> Optional[dict]:
    """The single worst-regressing entry of a diff, or None.

    For bench diffs: the section with the lowest B/A throughput ratio
    below 1.0.  For trace/serve diffs: the operator with the largest
    energy increase.
    """
    sections = diff["dims"].get("section")
    if sections:
        worst = None
        for row in sections:
            ratio = row.get("mops_ratio")
            if ratio is not None and ratio < 1.0:
                if worst is None or ratio < worst["mops_ratio"]:
                    worst = row
        return worst
    operators = diff["dims"].get("operator")
    if operators:
        worst = operators[0]
        if worst["delta_energy_j"] and worst["delta_energy_j"] > 0:
            return worst
    return None


def bench_top_regressor(current: dict, baseline: dict) -> Optional[dict]:
    """The worst-regressing section between two in-memory bench docs.

    Used by ``repro bench --check`` to *name* the responsible section
    when the gate fails.  Schema mismatch is tolerated here (the gate
    itself already compared like-for-like fields); only the ranking
    borrows this module's machinery.
    """
    a = _load_bench("<baseline>", baseline)
    b = _load_bench("<current>", current)
    a.schema_version = b.schema_version = "in-memory"
    return top_regressor(diff_snapshots(a, b))


# ---------------------------------------------------------------- rendering


def _fmt(value, unit: str = "") -> str:
    if value is None:
        return "n/a"
    return f"{value:+.3e}{unit}" if unit == " J" else f"{value:.4g}{unit}"


def render_diff(diff: dict, top: int = 10) -> str:
    """The ranked text report ``repro diff`` prints."""
    totals = diff["totals"]
    lines = [
        f"diff ({diff['kind']}): A={diff['a']}  B={diff['b']}",
    ]
    if totals["delta_energy_j"] is not None:
        pct = (100.0 * totals["delta_energy_j"] / totals["a_energy_j"]
               if totals["a_energy_j"] else 0.0)
        lines.append(
            f"total energy: {totals['a_energy_j']:.4e} J -> "
            f"{totals['b_energy_j']:.4e} J "
            f"({totals['delta_energy_j']:+.3e} J, {pct:+.1f}%)"
        )
    if "only_a" in totals:
        lines.append(
            f"queries: {totals['only_a']} only in A, "
            f"{totals['only_b']} only in B (not in the totals)"
        )
    if totals["delta_time_s"] is not None:
        lines.append(
            f"total time:   {totals['a_time_s']:.4e} s -> "
            f"{totals['b_time_s']:.4e} s "
            f"({totals['delta_time_s']:+.3e} s)"
        )
    dim_titles = (
        ("operator", "Δ energy by operator", "delta_energy_j", " J"),
        ("microop", "Δ energy by micro-op class", "delta_energy_j", " J"),
        ("cache_level", "Δ energy by cache level", "delta_energy_j", " J"),
    )
    for dim, title, key, unit in dim_titles:
        rows = diff["dims"].get(dim)
        if not rows:
            continue
        lines.append(f"-- {title} (top {min(top, len(rows))}) --")
        for row in rows[:top]:
            extra = ""
            if dim == "operator" and row["delta_time_s"] is not None:
                extra = f"  Δt {row['delta_time_s']:+.3e} s"
            elif dim in ("microop", "cache_level") and (
                row.get("delta_count") is not None
            ):
                extra = f"  Δn {row['delta_count']:+.4g}"
            lines.append(
                f"  {row['name']:<32} {_fmt(row[key], unit)}{extra}"
            )
    sections = diff["dims"].get("section")
    if sections:
        lines.append("-- bench sections (worst ratio first) --")
        for row in sections[:top]:
            ratio = row.get("mops_ratio")
            ratio_part = (f"{ratio:.3f}x" if ratio is not None else " n/a ")
            wall = ""
            if row["delta_wall_s"] is not None:
                wall = f"  Δwall {row['delta_wall_s']:+.3g} s"
            lines.append(
                f"  {row['name']:<28} throughput B/A {ratio_part}"
                f"  ({_fmt(row['a_mops'])} -> {_fmt(row['b_mops'])} "
                f"Mops/s){wall}"
            )
    worst = top_regressor(diff)
    if worst is not None:
        if "mops_ratio" in worst:
            lines.append(
                f"top regressor: {worst['name']} "
                f"({worst['mops_ratio']:.3f}x baseline throughput)"
            )
        else:
            lines.append(
                f"top regressor: {worst['name']} "
                f"({worst['delta_energy_j']:+.3e} J)"
            )
    return "\n".join(lines)
