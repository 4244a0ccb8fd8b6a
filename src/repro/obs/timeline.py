"""Timeline recorder: fixed-interval windows over *simulated* time.

A single end-of-run total hides exactly what Niemann et al. showed
matters: energy behaviour is workload-phase-dependent.  The
:class:`TimelineRecorder` turns one run into a time series — contiguous
fixed-width windows over the machine's simulated clock, each capturing
power draw, P-state residency, per-level cache miss rates, prefetcher
activity, queue depth, admission/terminal outcomes, and the
useful/wasted energy split by reason.

This is the sensor input the future online energy controller consumes,
so the row schema (:data:`TIMELINE_FIELDS`) is a versioned contract
(:data:`TIMELINE_SCHEMA_VERSION`) with a golden test.

Mechanics.  The machine calls :meth:`TimelineRecorder.on_advance` from
:meth:`~repro.sim.machine.Machine.settle` and
:meth:`~repro.sim.machine.Machine.idle` whenever simulated time moves.
Each advance delivers one *chunk* — the cumulative-counter delta since
the previous advance, priced at a single P-state (``settle`` runs
before every P-state switch, so a chunk never straddles one).  A chunk
that crosses window boundaries is prorated linearly across the windows
it overlaps: exact for time, busy/idle, residency, and energy (the
chunk's power is constant), an even-rate approximation for event counts
like cache misses (documented; counts within a chunk are not
timestamped individually).

Time axis: windows are over **machine time** — the serial
energy-pricing clock — not the per-core virtual clocks of
:class:`~repro.sim.cores.CoreSet`.  Serve events (admissions,
terminals, queue samples) are recorded against the machine clock at the
moment they are processed, keeping one consistent axis between power
and load.

Energy columns use the **package** RAPL domain throughout:
``active_j = package_j - background_package_w * (busy_s + idle_s)``.
``useful_j + wasted_j == active_j`` holds per window by construction
(useful is the remainder); the wasted feed comes from the telemetry
layer's wasted-tagged spans, background-subtracted the same way.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: Version of the row schema below.  Bump on any field change; the
#: future online controller refuses timelines it does not understand.
TIMELINE_SCHEMA_VERSION = 1

#: Ordered row fields — the contract (golden-tested).
TIMELINE_FIELDS = (
    "window",
    "t_start_s",
    "t_end_s",
    "duration_s",
    "power_w",
    "core_w",
    "dram_w",
    "busy_s",
    "idle_s",
    "l1d_miss_rate",
    "l2_miss_rate",
    "l3_miss_rate",
    "pf_l2_lines",
    "pf_l3_lines",
    "pf_hit_rate",
    "pstate_switches",
    "residency_s",
    "queue_depth_last",
    "queue_depth_max",
    "admitted",
    "completed",
    "failed",
    "deadline_exceeded",
    "rejected",
    "shed",
    "active_j",
    "useful_j",
    "wasted_j",
    "wasted_by_reason_j",
)

#: CSV carries only flat scalars: the two dict-valued fields are
#: replaced by ``pstate_mode`` (the window's dominant P-state).  Full
#: residency and per-reason waste need the JSONL form.
TIMELINE_CSV_FIELDS = tuple(
    field for field in TIMELINE_FIELDS
    if field not in ("residency_s", "wasted_by_reason_j")
) + ("pstate_mode",)

#: Request terminal states folded into the ``rejected`` / ``shed``
#: columns (string literals to keep this module import-light: the
#: machine imports ``repro.obs`` at module scope, and the serve layer
#: imports the machine).
_REJECTED_STATES = ("rejected_queue", "rejected_quota")
_SHED_STATES = ("shed_timeout", "shed_degraded")

#: Cumulative-counter keys tracked per chunk.
_SCALARS = (
    "core_j", "package_j", "dram_j", "busy_s", "idle_s",
    "l1d_hits", "l1d_misses", "l2_hits", "l2_misses",
    "l3_hits", "l3_misses", "pf_l2", "pf_l3",
)


def _new_window() -> dict:
    return {
        "scalars": dict.fromkeys(_SCALARS, 0.0),
        "residency": {},
        "pstate_switches": 0,
        "queue_depth_last": 0,
        "queue_depth_max": 0,
        "events": {},
        "wasted_j": 0.0,
        "wasted_by_reason": {},
    }


class TimelineRecorder:
    """Window accumulator installed as ``machine.timeline``.

    Use as a context manager around the measured region::

        with TimelineRecorder(machine, window_s=0.01, background=bg) as tl:
            server.run()
        write_timeline(tl.finish(), "timeline.jsonl", tl.window_s)
    """

    def __init__(self, machine: "Machine", window_s: float = 0.01,
                 background=None):
        if window_s <= 0:
            raise ConfigError(
                f"timeline window_s must be positive, got {window_s}"
            )
        self.machine = machine
        self.window_s = window_s
        self.background = background
        self._bg_package_w = (background.package_w
                              if background is not None else 0.0)
        self._windows: dict[int, dict] = {}
        self._rows: Optional[list] = None
        self._t0 = 0.0
        self._last_t = 0.0
        self._last: Optional[tuple] = None

    # ------------------------------------------------------------ sampling

    def _cumulatives(self) -> tuple:
        machine = self.machine
        hierarchy = machine.hierarchy
        prefetcher = machine.prefetcher
        values = {
            "core_j": machine.rapl.energy_core(),
            "package_j": machine.rapl.energy_package(),
            "dram_j": machine.rapl.energy_dram(),
            "busy_s": machine.busy_s,
            "idle_s": machine.idle_s,
            "l1d_hits": float(hierarchy.l1d.hits),
            "l1d_misses": float(hierarchy.l1d.misses),
            "l2_hits": 0.0,
            "l2_misses": 0.0,
            "l3_hits": 0.0,
            "l3_misses": 0.0,
            "pf_l2": float(prefetcher.n_pf_l2_issued),
            "pf_l3": float(prefetcher.n_pf_l3_issued),
        }
        if hierarchy.l2 is not None:
            values["l2_hits"] = float(hierarchy.l2.hits)
            values["l2_misses"] = float(hierarchy.l2.misses)
        if hierarchy.l3 is not None:
            values["l3_hits"] = float(hierarchy.l3.hits)
            values["l3_misses"] = float(hierarchy.l3.misses)
        return values, self.machine.residency.snapshot()

    def _window(self, index: int) -> dict:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _new_window()
        return window

    def _chunks(self, t_a: float, t_b: float):
        """Yield ``(window_index, fraction)`` covering ``[t_a, t_b)``."""
        total = t_b - t_a
        if total <= 0:
            yield max(0, int((t_a - self._t0) / self.window_s)), 1.0
            return
        t = t_a
        while t < t_b:
            index = max(0, int((t - self._t0) / self.window_s))
            edge = self._t0 + (index + 1) * self.window_s
            chunk_end = min(t_b, edge)
            if chunk_end <= t:
                # Float-precision backstop: dump the remainder here
                # rather than looping on a degenerate boundary.
                yield index, (t_b - t) / total
                return
            yield index, (chunk_end - t) / total
            t = chunk_end

    def on_advance(self) -> None:
        """Machine hook: simulated time moved; bank the chunk."""
        now = self.machine.time_s
        if now <= self._last_t:
            return
        current, current_res = self._cumulatives()
        last, last_res = self._last
        delta = {key: current[key] - last[key] for key in _SCALARS}
        delta_res = {
            pstate: seconds - last_res.get(pstate, 0.0)
            for pstate, seconds in current_res.items()
            if seconds != last_res.get(pstate, 0.0)
        }
        for index, fraction in self._chunks(self._last_t, now):
            window = self._window(index)
            scalars = window["scalars"]
            for key, value in delta.items():
                scalars[key] += value * fraction
            residency = window["residency"]
            for pstate, seconds in delta_res.items():
                residency[pstate] = (residency.get(pstate, 0.0)
                                     + seconds * fraction)
        self._last = (current, current_res)
        self._last_t = now

    # ------------------------------------------------------------ events

    def _event_window(self) -> dict:
        return self._window(
            max(0, int((self.machine.time_s - self._t0) / self.window_s))
        )

    def note_pstate_switch(self) -> None:
        self._event_window()["pstate_switches"] += 1

    def count(self, key: str) -> None:
        """Count one serve event (admission outcome or terminal state)
        in the current window."""
        events = self._event_window()["events"]
        events[key] = events.get(key, 0) + 1

    def sample_queue_depth(self, depth: int) -> None:
        window = self._event_window()
        window["queue_depth_last"] = depth
        if depth > window["queue_depth_max"]:
            window["queue_depth_max"] = depth

    def add_wasted(self, t_a: float, t_b: float, reason: str,
                   package_j: float) -> None:
        """Telemetry feed: ``package_j`` raw joules of wasted-tagged work
        over ``[t_a, t_b)``.  Background-subtracted here so the window
        split matches the report's Active-energy semantics."""
        active = package_j - self._bg_package_w * max(0.0, t_b - t_a)
        for index, fraction in self._chunks(t_a, t_b):
            window = self._window(index)
            window["wasted_j"] += active * fraction
            by_reason = window["wasted_by_reason"]
            by_reason[reason] = by_reason.get(reason, 0.0) + active * fraction

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        machine = self.machine
        machine.settle()
        self._t0 = machine.time_s
        self._last_t = machine.time_s
        self._last = self._cumulatives()
        machine.timeline = self

    def __enter__(self) -> "TimelineRecorder":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        if exc[0] is None:
            self.finish()
        else:
            self.machine.timeline = None
        return False

    def finish(self) -> list:
        """Detach from the machine and build the rows (idempotent)."""
        if self._rows is None:
            self.machine.settle()
            self.on_advance()
            self.machine.timeline = None
            self._rows = self._build_rows()
        return self._rows

    # ------------------------------------------------------------ rows

    def _build_rows(self) -> list:
        end = self._last_t
        n_windows = max(self._windows.keys(), default=-1) + 1
        if end > self._t0:
            covered = int(math.ceil((end - self._t0) / self.window_s))
            n_windows = max(n_windows, covered)
        rows = []
        for index in range(n_windows):
            window = self._windows.get(index) or _new_window()
            scalars = window["scalars"]
            t_start = self._t0 + index * self.window_s
            t_end = min(self._t0 + (index + 1) * self.window_s, end)
            duration = max(0.0, t_end - t_start)
            events = window["events"]
            covered_s = scalars["busy_s"] + scalars["idle_s"]
            active_j = (scalars["package_j"]
                        - self._bg_package_w * covered_s)
            wasted_j = window["wasted_j"]
            rows.append({
                "window": index,
                "t_start_s": t_start,
                "t_end_s": t_end,
                "duration_s": duration,
                "power_w": (scalars["package_j"] / duration
                            if duration > 0 else 0.0),
                "core_w": (scalars["core_j"] / duration
                           if duration > 0 else 0.0),
                "dram_w": (scalars["dram_j"] / duration
                           if duration > 0 else 0.0),
                "busy_s": scalars["busy_s"],
                "idle_s": scalars["idle_s"],
                "l1d_miss_rate": _rate(scalars["l1d_misses"],
                                       scalars["l1d_hits"]),
                "l2_miss_rate": _rate(scalars["l2_misses"],
                                      scalars["l2_hits"]),
                "l3_miss_rate": _rate(scalars["l3_misses"],
                                      scalars["l3_hits"]),
                "pf_l2_lines": scalars["pf_l2"],
                "pf_l3_lines": scalars["pf_l3"],
                # Demand hit rate at the prefetch-fed levels (L2+L3).
                # Per-line prefetch provenance is not tracked (doing so
                # would perturb the batch-equivalence contract), so this
                # is the observable proxy: when the prefetcher works,
                # demand accesses at the levels it fills start hitting.
                "pf_hit_rate": _rate(
                    scalars["l2_hits"] + scalars["l3_hits"],
                    scalars["l2_misses"] + scalars["l3_misses"],
                ),
                "pstate_switches": window["pstate_switches"],
                "residency_s": {
                    f"P{pstate}": seconds
                    for pstate, seconds in sorted(window["residency"].items())
                },
                "queue_depth_last": window["queue_depth_last"],
                "queue_depth_max": window["queue_depth_max"],
                "admitted": events.get("admitted", 0),
                "completed": events.get("completed", 0),
                "failed": events.get("failed", 0),
                "deadline_exceeded": events.get("deadline_exceeded", 0),
                "rejected": sum(events.get(s, 0) for s in _REJECTED_STATES),
                "shed": sum(events.get(s, 0) for s in _SHED_STATES),
                "active_j": active_j,
                "useful_j": active_j - wasted_j,
                "wasted_j": wasted_j,
                "wasted_by_reason_j": dict(
                    sorted(window["wasted_by_reason"].items())
                ),
            })
        return rows


def _rate(part: float, complement: float) -> Optional[float]:
    total = part + complement
    return part / total if total > 0 else None


# ------------------------------------------------------------ writers


def timeline_to_jsonl(rows: list, window_s: float) -> str:
    """Header record plus one record per window, one JSON doc per line."""
    header = {
        "record": "timeline",
        "schema_version": TIMELINE_SCHEMA_VERSION,
        "window_s": window_s,
        "n_windows": len(rows),
        "fields": list(TIMELINE_FIELDS),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for row in rows:
        doc = {"record": "window"}
        doc.update(row)
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + "\n"


def _pstate_mode(row: dict) -> Optional[int]:
    residency = row["residency_s"]
    if not residency:
        return None
    label = max(sorted(residency), key=lambda k: residency[k])
    return int(label[1:])


def timeline_to_csv(rows: list) -> str:
    """Flat-scalar CSV form (see :data:`TIMELINE_CSV_FIELDS`)."""
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TIMELINE_CSV_FIELDS)
    for row in rows:
        record = []
        for field in TIMELINE_CSV_FIELDS:
            if field == "pstate_mode":
                value = _pstate_mode(row)
            else:
                value = row[field]
            record.append("" if value is None else value)
        writer.writerow(record)
    return buffer.getvalue()


def write_timeline(rows: list, path, window_s: float) -> None:
    """Write a finished timeline; ``.csv`` selects CSV, anything else
    the JSONL form (the schema contract's native shape)."""
    text = (timeline_to_csv(rows) if str(path).endswith(".csv")
            else timeline_to_jsonl(rows, window_s))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
