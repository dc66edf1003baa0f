"""Repro doctor: automatic straggler and stall diagnosis.

The telemetry plane reports symptoms (straggler score, queue depth,
phase buckets); the profiler explains mechanisms (where the samples
land).  The :class:`Doctor` closes the loop on the driver side: it evaluates
:class:`~repro.obs.telemetry.TelemetryHub` rollups each time the hub
files a record (and once more for a live report and at the job's end)
for **stall signatures** —

* *straggler*: the hub's straggler score (max busy / median busy, where
  busy = compute + partition-sort + merge + checkpoint; waiting phases
  are excluded because ranks blocked *on* the straggler mirror its
  wall) over a threshold; the finding attributes the slow rank's time
  using the profile document riding its telemetry records ("82% of
  samples in sorter.merge under merge");
* *stall*: a live rank whose records keep arriving but which made no
  *progress* for longer than the stall window — its busy buckets stood
  still and it sent, received and finished nothing.  A rank's phase
  clock always advances (a blocked rank accrues ``communicate``), so
  the clock's total says nothing; frozen busy time and flat counters
  are the shape of a rank wedged inside a shuffle wait, and a rank
  entering the stall (or silent) set triggers one **all-rank stack
  capture**: the live stacks every running rank's newest pulse carried;
* *silent*: a rank that stopped reporting entirely (records aged out);
* *redelivery churn*: recovery counters (respawns, redelivered frames,
  replays dropped) still climbing between evaluations;
* *shuffle skew*: max rank bytes-sent over the median, above threshold.

Findings are ranked by severity into a structured report surfaced three
ways: written to ``doctor.json``, attached to ``JobResult.doctor``, and
served live over the job's telemetry RPC endpoint for
``repro doctor <endpoint>``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable

from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import WorkerMetrics, busy_seconds
from repro.core.modes import default_of
from repro.obs.profiler import hottest

__all__ = ["Doctor", "render_report"]

#: keep at most this many capture records in a report
MAX_CAPTURES = 8
#: busy-time ratio over the median that flags a straggler
STRAGGLER_THRESHOLD = 2.0
#: bytes-sent ratio over the median that flags shuffle skew
SKEW_THRESHOLD = 2.0

# severity bands: stalls are acute, stragglers chronic, the rest hints
_SEV_STALL = 100.0
_SEV_SILENT = 90.0
_SEV_STRAGGLER = 10.0
_SEV_REDELIVERY = 5.0
_SEV_SKEW = 1.0


def _phase_attribution(record: WorkerMetrics) -> dict[str, Any]:
    """Attribute a rank's time: prefer profiler samples (mechanism),
    fall back to phase-bucket wall times (symptom)."""
    profile = record.profile or {}
    samples = profile.get("samples", 0)
    if samples > 0:
        phases, entries = hottest(profile)
        top_phase = max(phases, key=phases.get) if phases else ""
        top_stack = next(
            (stack.rsplit(";", 1)[-1] for _n, phase, stack in entries
             if phase == top_phase), "",
        )
        return {
            "source": "profile",
            "phase": top_phase,
            "phase_pct": round(100.0 * phases.get(top_phase, 0) / samples, 1),
            "top_stack": top_stack,
            "samples": samples,
        }
    phases_s: dict[str, float] = dict(record.phase_times)
    phases_s.pop("spill", None)  # overlay, not wall coverage
    wall = sum(phases_s.values())
    top_phase = max(phases_s, key=phases_s.get) if phases_s else ""
    return {
        "source": "phases",
        "phase": top_phase,
        "phase_pct": round(100.0 * phases_s.get(top_phase, 0.0) / wall, 1)
        if wall > 0
        else 0.0,
        "top_stack": "",
        "samples": 0,
    }


class Doctor:
    """Driver-side diagnosis engine over a live :class:`TelemetryHub`.

    Keeps no thread: mpidrun installs :meth:`evaluate` as the hub's
    watcher, so the record stream is the doctor's clock."""

    def __init__(
        self,
        hub: Any,
        stall_seconds: float = default_of(K.DOCTOR_STALL_SECONDS),
        job: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.hub = hub
        self.stall_seconds = stall_seconds
        self.job = job
        self._clock = clock
        # re-entrant: an evaluation that fires a capture holds it already
        self._lock = threading.RLock()
        #: rank -> (last observed progress signal, clock when it last moved)
        self._progress: dict[int, tuple[tuple, float]] = {}
        self._recovery_last: dict[str, int] = {}
        #: ranks in the stall/silent set at the last evaluation
        self._stuck: set[int] = set()
        self._captures: list[dict] = []
        self._findings: list[dict] = []
        self.evaluations = 0

    # -- diagnosis -------------------------------------------------------------
    def evaluate(self) -> list[dict]:
        """One evaluation pass; returns (and stores) ranked findings.  A
        rank entering the stall/silent set fires one capture: a rank that
        stays wedged is captured once, not once per record."""
        with self._lock:
            rows = self.hub.per_rank()
            rollups = self.hub.rollups()
            findings: list[dict] = []
            findings.extend(self._check_stalls(rows, self._clock()))
            findings.extend(self._check_straggler(rows, rollups))
            findings.extend(self._check_redelivery(rollups))
            findings.extend(self._check_skew(rollups))
            findings.sort(key=lambda f: -f["severity"])
            self._findings = findings
            self.evaluations += 1
            stuck = {
                f["rank"] for f in findings if f["kind"] in ("stall", "silent")
            }
            entered, self._stuck = stuck - self._stuck, stuck
            if entered:
                self.capture("stall detected")
        return findings

    def _check_stalls(self, rows: list[dict], now: float) -> list[dict]:
        findings: list[dict] = []
        for row in rows:
            rank = row["rank"]
            if row["status"] == "done":
                self._progress.pop(rank, None)
                continue
            # work done or data moved, all from the row: busy-phase seconds,
            # bytes out, records in, tasks finished
            progress = (
                busy_seconds(row["phase_times"]), row["bytes_sent"],
                row["records_received"], row["o_tasks_run"], row["a_tasks_run"],
            )
            held = self._progress.get(rank)
            if held is None or progress != held[0]:
                self._progress[rank] = (progress, now)
                continue
            stuck_for = now - held[1]
            if stuck_for < self.stall_seconds:
                continue
            wall = float(row["wall_seconds"])
            silent = row["age_s"] > max(self.stall_seconds, 3.0)
            kind = "silent" if silent else "stall"
            attribution = self._attribution_for(rank)
            findings.append({
                "kind": kind,
                "rank": rank,
                "severity": (_SEV_SILENT if silent else _SEV_STALL) + stuck_for,
                "summary": (
                    f"rank {rank}: "
                    + (
                        "stopped reporting"
                        if silent
                        else "no progress"
                    )
                    + f" for {stuck_for:.1f}s at wall {wall:.2f}s"
                    + (
                        f" (last seen in {attribution['phase']})"
                        if attribution["phase"]
                        else ""
                    )
                ),
                "details": {
                    "stuck_for_s": round(stuck_for, 3),
                    "wall_s": wall,
                    "age_s": row["age_s"],
                    "pending": row["queue"].get("pending", 0),
                    **attribution,
                },
            })
        return findings

    def _check_straggler(self, rows: list[dict], rollups: dict) -> list[dict]:
        # the hub's score (busy time, slowest over median): the number
        # `repro top` and the Prometheus family show
        score = float(rollups.get("straggler_score", 0.0) or 0.0)
        if not rows or score < STRAGGLER_THRESHOLD:
            return []
        slow = max(rows, key=lambda row: busy_seconds(row["phase_times"]))
        attribution = self._attribution_for(slow["rank"])
        shuffle_skew = float(rollups.get("shuffle_skew", 0.0) or 0.0)
        pct = attribution["phase_pct"]
        where = attribution["top_stack"] or attribution["phase"] or "unknown"
        summary = (
            f"rank {slow['rank']}: {pct:.0f}% of "
            + ("samples" if attribution["source"] == "profile" else "wall time")
            + f" in {where}"
            + (
                f" under {attribution['phase']}"
                if attribution["top_stack"]
                else ""
            )
            + f" — straggler score {score:.1f}x"
        )
        if shuffle_skew >= SKEW_THRESHOLD:
            summary += f", shuffle skew {shuffle_skew:.1f}x"
        return [{
            "kind": "straggler",
            "rank": slow["rank"],
            # cap the score's contribution so an extreme straggler still
            # ranks below an acute stall
            "severity": _SEV_STRAGGLER + min(score, 50.0),
            "summary": summary,
            "details": {
                "straggler_score": score,
                "busy_s": round(busy_seconds(slow["phase_times"]), 4),
                "shuffle_skew": shuffle_skew,
                "wall_s": slow["wall_seconds"],
                "phases": slow["phase_times"],
                **attribution,
            },
        }]

    def _check_redelivery(self, rollups: dict) -> list[dict]:
        recovery = {
            k: int(v or 0) for k, v in (rollups.get("recovery") or {}).items()
        }
        churn = {
            k: v - self._recovery_last.get(k, 0)
            for k, v in recovery.items()
            if v > self._recovery_last.get(k, 0)
        }
        self._recovery_last = recovery
        if not churn:
            return []
        desc = ", ".join(f"{k} +{v}" for k, v in sorted(churn.items()))
        return [{
            "kind": "redelivery-churn",
            "rank": -1,
            "severity": _SEV_REDELIVERY + sum(churn.values()),
            "summary": f"recovery counters climbing: {desc}",
            "details": {"delta": churn, "totals": recovery},
        }]

    def _check_skew(self, rollups: dict) -> list[dict]:
        skew = float(rollups.get("shuffle_skew", 0.0) or 0.0)
        if skew < SKEW_THRESHOLD:
            return []
        return [{
            "kind": "shuffle-skew",
            "rank": -1,
            "severity": _SEV_SKEW + skew,
            "summary": (
                f"shuffle skew {skew:.1f}x: one rank ships "
                f"{skew:.1f}x the median bytes — check the partitioner"
            ),
            "details": {"shuffle_skew": skew},
        }]

    def _attribution_for(self, rank: int) -> dict[str, Any]:
        record = self.hub.latest().get(rank)
        if record is None:
            return {
                "source": "none", "phase": "", "phase_pct": 0.0,
                "top_stack": "", "samples": 0,
            }
        return _phase_attribution(record)

    # -- capture ---------------------------------------------------------------
    def capture(self, reason: str = "manual") -> dict:
        """All-rank stack/queue capture, read off each running rank's
        newest pulse (at most one telemetry interval old); a finished
        rank's last record is its report, which carries no stacks."""
        record = {
            "ts": time.time(),
            "reason": reason,
            "dumps": [
                {
                    "rank": rank, "epoch": latest.epoch, "pid": latest.pid,
                    "ts": latest.ts, "queue": dict(latest.queue),
                    "threads": list(latest.stacks),
                }
                for rank, latest in sorted(self.hub.latest().items())
                if latest.stacks
            ],
        }
        with self._lock:
            self._captures.append(record)
            del self._captures[:-MAX_CAPTURES]
        return record

    # -- reporting -------------------------------------------------------------
    def report(self) -> dict:
        """The structured doctor.json payload (ranked findings first)."""
        with self._lock:
            findings = list(self._findings)
            captures = list(self._captures)
            evaluations = self.evaluations
        try:
            rollups = self.hub.rollups()
        except Exception:  # noqa: BLE001
            rollups = {}
        return {
            "job": self.job,
            "ts": time.time(),
            "evaluations": evaluations,
            "thresholds": {
                "straggler": STRAGGLER_THRESHOLD,
                "stall_seconds": self.stall_seconds,
                "skew": SKEW_THRESHOLD,
            },
            "findings": findings,
            "captures": captures,
            "rollups": rollups,
        }

    def write_report(self, path: str) -> str:
        """Write doctor.json atomically; returns the path."""
        report = self.report()
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    def rpc_target(self) -> dict[str, Callable]:
        """Extra handlers merged into the telemetry RPC endpoint.  A live
        report evaluates first: a rank silent since the last record
        filed shows up."""
        def report_now() -> dict:
            self.evaluate()
            return self.report()

        return {
            "doctor_report": report_now,
            "doctor_capture": lambda: self.capture("rpc request"),
        }


def render_report(report: dict) -> str:
    """Human-readable rendering of a doctor report (CLI + logs)."""
    lines = [
        f"doctor report — job {report.get('job') or '?'} "
        f"({report.get('evaluations', 0)} evaluations)"
    ]
    findings = report.get("findings", [])
    if not findings:
        lines.append("  no findings: all ranks healthy")
    for i, finding in enumerate(findings, 1):
        lines.append(
            f"  {i}. [{finding.get('kind')}] {finding.get('summary')}"
        )
    captures = report.get("captures", [])
    if captures:
        last = captures[-1]
        lines.append(
            f"  captures: {len(captures)} (last: {last.get('reason')}, "
            f"{len(last.get('dumps', []))} rank dumps)"
        )
        for dump in last.get("dumps", []):
            for thread in dump.get("threads", []):
                stack = thread.get("stack") or ["<no frames>"]
                lines.append(
                    f"    rank {dump.get('rank')} {thread.get('name')} "
                    f"[{thread.get('phase')}] {stack[-1]}"
                )
    rollups = report.get("rollups", {})
    if rollups:
        lines.append(
            f"  rollups: straggler {rollups.get('straggler_score', 0)}x, "
            f"shuffle skew {rollups.get('shuffle_skew', 0)}x, "
            f"{rollups.get('ranks_done', 0)}/{rollups.get('ranks_expected', 0)}"
            f" ranks done"
        )
    return "\n".join(lines)
