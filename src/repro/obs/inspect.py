"""Journal inspector: the engine room of the ``repro trace`` subcommand.

Turns a flight-recorder journal back into the paper's analyses:

* **per-phase time table** — compute / partition-sort / communicate /
  merge / spill / checkpoint, per worker and merged (Fig. 5's overlap
  story, from a *real* run);
* **coverage** — each worker's disjoint phase buckets over its wall
  time (the acceptance band is 95–105%: an over-count is as wrong as a
  gap);
* **top-N slowest tasks** — from the per-task metrics table;
* **failure timeline** — supervision records and fault-injector firings
  in timestamp order.

Works from the driver-written summary record when present; a journal
from a crashed run (no summary line) still yields a report — its wall
time, slowest tasks and failures from the events, an empty phase table.
"""

from __future__ import annotations

from typing import Any

from repro.core.metrics import COVERAGE_PHASES, OVERLAY_PHASES
from repro.obs.journal import Journal

__all__ = [
    "COVERAGE_PHASES",
    "OVERLAY_PHASES",
    "coverage",
    "format_report",
    "phase_table",
    "summarize_journal",
]


def phase_table(journal: Journal) -> dict[str, float]:
    """Merged per-phase seconds, from the summary record: the buckets are
    the ranks' phase clocks, which no span reproduces, so a journal
    without a summary has none (as its :func:`coverage` is 0.0)."""
    return {
        k: float(v) for k, v in (journal.summary.get("phase_times") or {}).items()
    }


def coverage(journal: Journal) -> float:
    """Mean over workers of disjoint-bucket seconds per second of wall.

    1.0 means the recorder accounted for every second each worker spent
    exactly once; above it, some second was charged twice.  Returns 0.0
    when the journal has no per-worker summary.
    """
    workers = journal.summary.get("workers") or []
    fractions: list[float] = []
    for worker in workers:
        wall = float(worker.get("wall_seconds", 0.0))
        if wall <= 0:
            continue
        phases = worker.get("phase_times", {})
        explained = sum(
            float(phases.get(name, 0.0)) for name in COVERAGE_PHASES
        )
        fractions.append(explained / wall)
    if not fractions:
        return 0.0
    return sum(fractions) / len(fractions)


def top_tasks(journal: Journal, n: int = 10) -> list[dict]:
    """The N slowest task attempts, slowest first."""
    tasks = journal.summary.get("tasks")
    if not tasks:
        tasks = [
            {
                "kind": (e.get("args") or {}).get("kind", "?"),
                "task_id": (e.get("args") or {}).get("task", -1),
                "duration": float(e.get("dur", 0.0)),
                "worker": e.get("rank", -1),
                "records_emitted": (e.get("args") or {}).get("emitted", 0),
                "records_received": (e.get("args") or {}).get("received", 0),
            }
            for e in journal.spans
            if e.get("cat") == "task"
        ]
    return sorted(tasks, key=lambda t: -float(t.get("duration", 0.0)))[:n]


def failure_timeline(journal: Journal) -> list[dict]:
    """Failure / fault / recovery instants in time order.  The summary's
    ``failures`` list is not merged in: each of its records is already a
    ``failure.<kind>`` instant, stamped when its attempt closed."""
    return sorted((
        {
            "ts": float(e.get("ts", 0.0)),
            "kind": e.get("name", "?"),
            "cat": e.get("cat", ""),
            "rank": e.get("rank", -1),
            "detail": e.get("args") or {},
        }
        for e in journal.instants
        if e.get("cat") in ("failure", "fault", "recovery")
    ), key=lambda f: f["ts"])


def summarize_journal(journal: Journal, n_tasks: int = 10) -> dict[str, Any]:
    """Everything the CLI report prints, as one dict (JSON-friendly)."""
    events = journal.events
    wall = journal.summary.get("wall_seconds")
    if wall is None and events:
        t0 = min(e.get("ts", 0.0) for e in events)
        t1 = max(
            e.get("ts", 0.0) + e.get("dur", 0.0) for e in events
        )
        wall = t1 - t0
    return {
        "job": journal.meta.get("job", "?"),
        "nprocs": journal.summary.get("nprocs", journal.meta.get("nprocs", 0)),
        "wall_seconds": float(wall or 0.0),
        "events": len(events),
        "spans": len(journal.spans),
        "phase_times": phase_table(journal),
        "coverage": coverage(journal),
        "top_tasks": top_tasks(journal, n_tasks),
        "failures": failure_timeline(journal),
        "restarts": journal.summary.get("restarts", 0),
        "recovery": {
            counter: int(journal.summary.get(counter, 0))
            for counter in (
                "respawns", "redelivered_frames", "stale_frames_dropped",
                "replays_dropped",
            )
        },
        "series": sorted({e.get("name", "?") for e in journal.counters}),
    }


def _fmt_seconds(s: float) -> str:
    return f"{s * 1000:.1f}ms" if s < 1.0 else f"{s:.2f}s"


def format_report(summary: dict[str, Any]) -> str:
    """Human-readable report for the terminal."""
    lines: list[str] = []
    lines.append(
        f"job {summary['job']}  wall={_fmt_seconds(summary['wall_seconds'])}  "
        f"nprocs={summary['nprocs']}  events={summary['events']}  "
        f"restarts={summary['restarts']}"
    )
    recovery = summary.get("recovery") or {}
    if any(recovery.values()):
        lines.append(
            "rank recovery: "
            f"respawns={recovery.get('respawns', 0)}  "
            f"redelivered_frames={recovery.get('redelivered_frames', 0)}  "
            f"stale_frames_dropped={recovery.get('stale_frames_dropped', 0)}  "
            f"replays_dropped={recovery.get('replays_dropped', 0)}"
        )
    phases = summary["phase_times"]
    if phases:
        lines.append("")
        lines.append("phase times (summed across workers):")
        total = sum(v for k, v in phases.items() if k in COVERAGE_PHASES) or 1.0
        order = [p for p in (*COVERAGE_PHASES, *OVERLAY_PHASES) if p in phases]
        order += [p for p in sorted(phases) if p not in order]
        for name in order:
            seconds = phases[name]
            overlay = " (overlaps)" if name in OVERLAY_PHASES else ""
            share = f"{seconds / total * 100:5.1f}%" if not overlay else "      "
            lines.append(
                f"  {name:<15} {_fmt_seconds(seconds):>10}  {share}{overlay}"
            )
        lines.append(
            f"  coverage of worker wall time: {summary['coverage'] * 100:.1f}%"
        )
    tasks = summary["top_tasks"]
    if tasks:
        lines.append("")
        lines.append(f"top {len(tasks)} slowest task attempts:")
        for t in tasks:
            lines.append(
                f"  {t.get('kind', '?')}-task {t.get('task_id', -1):>4}  "
                f"{_fmt_seconds(float(t.get('duration', 0.0))):>10}  "
                f"emitted={t.get('records_emitted', 0)} "
                f"received={t.get('records_received', 0)}"
            )
    failures = summary["failures"]
    if failures:
        lines.append("")
        lines.append("failure timeline:")
        for f in failures:
            stamp = f"t+{_fmt_seconds(f['ts'])}"
            detail = f["detail"]
            text = detail.get("error", "") if isinstance(detail, dict) else ""
            lines.append(f"  {stamp:>12}  [{f['cat']}] {f['kind']} {text}".rstrip())
    if summary["series"]:
        lines.append("")
        lines.append(
            "metric series: " + ", ".join(summary["series"])
        )
    return "\n".join(lines)
