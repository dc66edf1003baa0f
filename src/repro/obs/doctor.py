"""Repro doctor: automatic straggler and stall diagnosis.

The telemetry plane reports symptoms (straggler score, queue depth,
phase buckets); the profiler explains mechanisms (where the samples
land).  The :class:`Doctor` closes the loop on the driver side: a daemon
thread watches :class:`~repro.obs.telemetry.TelemetryHub` rollups for
**stall signatures** —

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
  are the shape of a rank wedged inside a shuffle wait, and
  automatically trigger an **all-rank stack capture**: the live stacks
  every running rank's newest pulse carried;
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
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.logging import get_logger
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import WorkerMetrics, busy_seconds
from repro.core.modes import default_of
from repro.obs.profiler import hottest

_log = get_logger("obs.doctor")

__all__ = ["Doctor", "DoctorConfig", "render_report"]

#: keep at most this many capture records in a report
MAX_CAPTURES = 8

# severity bands: stalls are acute, stragglers chronic, the rest hints
_SEV_STALL = 100.0
_SEV_SILENT = 90.0
_SEV_STRAGGLER = 10.0
_SEV_REDELIVERY = 5.0
_SEV_SKEW = 1.0


@dataclass
class DoctorConfig:
    #: evaluation period: every second telemetry record
    interval: float = 2 * default_of(K.TELEMETRY_INTERVAL_SECONDS)
    #: busy-time ratio over the median that flags a straggler
    straggler_threshold: float = 2.0
    stall_seconds: float = default_of(K.DOCTOR_STALL_SECONDS)
    skew_threshold: float = 2.0
    #: minimum seconds between automatic captures
    capture_backoff: float = 2.0


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
    """Driver-side diagnosis engine over a live :class:`TelemetryHub`."""

    def __init__(
        self,
        hub: Any,
        config: DoctorConfig | None = None,
        job: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.hub = hub
        self.config = config or DoctorConfig()
        self.job = job
        self._clock = clock
        self._lock = threading.Lock()
        #: rank -> (last observed progress signal, clock when it last moved)
        self._progress: dict[int, tuple[tuple, float]] = {}
        self._recovery_last: dict[str, int] = {}
        self._recovery_churn: dict[str, int] = {}
        self._captures: list[dict] = []
        self._findings: list[dict] = []
        self._last_capture = 0.0
        self.evaluations = 0
        self._stop: threading.Event | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "Doctor":
        # interval <= 0: telemetry is off, there is nothing to watch until
        # the final evaluation of ``close``
        if self._thread is None and self.config.interval > 0:
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._loop, args=(self._stop,),
                name="datampi-doctor", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        stop, thread = self._stop, self._thread
        self._stop = self._thread = None
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=5)

    def close(self) -> dict:
        """Stop the loop, run one final evaluation, return the report."""
        self.stop()
        try:
            self.evaluate()
        except Exception:  # noqa: BLE001 - a report beats a perfect report
            _log.exception("doctor: final evaluation failed")
        return self.report()

    def _loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.config.interval):
            try:
                findings = self.evaluate()
            except Exception:  # noqa: BLE001 - diagnosis never kills the driver
                _log.exception("doctor: evaluation failed")
                continue
            if any(f["kind"] == "stall" for f in findings):
                now = self._clock()
                if now - self._last_capture >= self.config.capture_backoff:
                    self._last_capture = now
                    try:
                        self.capture("stall detected")
                    except Exception:  # noqa: BLE001
                        _log.exception("doctor: capture failed")

    # -- diagnosis -------------------------------------------------------------
    def evaluate(self) -> list[dict]:
        """One evaluation pass; returns (and stores) ranked findings."""
        rows = self.hub.per_rank()
        rollups = self.hub.rollups()
        now = self._clock()
        findings: list[dict] = []
        findings.extend(self._check_stalls(rows, now))
        findings.extend(self._check_straggler(rows, rollups))
        findings.extend(self._check_redelivery(rollups))
        findings.extend(self._check_skew(rollups))
        findings.sort(key=lambda f: -f["severity"])
        with self._lock:
            self._findings = findings
            self.evaluations += 1
        return findings

    def _check_stalls(self, rows: list[dict], now: float) -> list[dict]:
        cfg = self.config
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
            if stuck_for < cfg.stall_seconds:
                continue
            wall = float(row["wall_seconds"])
            silent = row["age_s"] > max(cfg.stall_seconds, 3.0)
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
        if not rows or score < self.config.straggler_threshold:
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
        if shuffle_skew >= self.config.skew_threshold:
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
        if churn:
            self._recovery_churn = churn
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
        if skew < self.config.skew_threshold:
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
                "straggler": self.config.straggler_threshold,
                "stall_seconds": self.config.stall_seconds,
                "skew": self.config.skew_threshold,
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
        """Extra handlers merged into the telemetry RPC endpoint."""
        return {
            "doctor_report": self.report,
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
