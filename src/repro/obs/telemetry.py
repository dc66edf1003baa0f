"""Live telemetry plane: in-flight per-rank metrics and cluster rollups.

The flight recorder (:mod:`repro.obs.journal`) is post-hoc — nothing is
inspectable until ``mpidrun`` returns.  This module is the *live* half:
while a job runs, each rank folds its
:class:`~repro.core.metrics.WorkerMetrics` record (counters, phase
buckets, mailbox depth, process CPU/RSS) on an interval
(``mpi.d.telemetry.interval.seconds``, or more often when the heartbeat
deadline asks for it) and sends a copy of it, task table left out, in
its heartbeat: the ``("hb", rank, record)`` pulse on the parent
intercommunicator's control tag.  mpidrun's serve loop beats the rank's
liveness clock and files the record in the hub, on both launchers: one
channel, so whatever cuts a rank's traffic (a severed rank, a dead
connection) cuts its telemetry too.  The rank's final report is the
last record the hub files for it.

The driver-side :class:`TelemetryHub` keeps the newest record per
``(rank, epoch)`` series — a reincarnated rank gets a *new* series, so
its counters never clobber its predecessor's — and merges them into
cluster rollups: per-phase p50/p99, a straggler score
(slowest rank's busy time vs median), shuffle skew (max bytes sent vs
median) and live recovery counts read off the runtime at scrape time.

Two read paths, both served by a :class:`repro.rpc.server.SocketRpcServer`
the driver starts next to the job (its address is written to
``mpi.d.telemetry.endpoint.file``):

* ``telemetry_scrape`` — Prometheus text exposition (``datampi_*``
  families), for scrapers;
* ``telemetry_ranks`` / ``telemetry_rollups`` — structured dicts, polled
  by the ``repro top <endpoint>`` CLI.  A rank's row is the journal's
  worker row (:meth:`WorkerMetrics.as_dict`) plus ``queue``, ``age_s``
  and ``status``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable

from repro.common.logging import get_logger
from repro.common.stats import percentile
from repro.core.metrics import (
    COVERAGE_PHASES,
    WorkerMetrics,
    busy_seconds,
    recovery_counts,
)

__all__ = ["TelemetryHub", "format_top_table", "COVERAGE_PHASES"]

_log = get_logger("obs.telemetry")


def _escape_label_value(value: Any) -> str:
    """Prometheus 0.0.4 label-value escaping: backslash, double-quote
    and newline must be escaped inside the quoted label value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any, fmt: str = "{:.6f}", fallback: float = 0.0) -> str:
    """Render one sample value per the exposition format: non-numbers
    fall back, NaN/inf become the spellings Prometheus parses."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = fallback
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return fmt.format(number)


class TelemetryHub:
    """Driver-side aggregator of per-rank :class:`WorkerMetrics` series.

    Series are keyed by ``(rank, epoch)``, and each holds its newest
    record: a respawned rank reports under a bumped epoch and therefore
    under a *fresh* key, so the dead incarnation's last counters survive
    next to (not under) its successor's.  ``latest()`` surfaces the
    highest epoch per rank.

    Thread-safe: the driver ingests while RPC handler threads scrape.
    ``watcher`` (mpidrun installs the doctor's ``evaluate``) runs after
    every filed record, outside the hub's lock.
    """

    def __init__(self, job: str = "") -> None:
        self._lock = threading.Lock()
        #: newest record per (rank, epoch), and how many were filed
        self._series: dict[tuple[int, int], WorkerMetrics] = {}
        self._filed: dict[tuple[int, int], int] = {}
        self._done: set[int] = set()
        self._expected = 0
        self._runtime: Any = None
        #: called with no argument after each filed record (None = none)
        self.watcher: Callable[[], Any] | None = None
        self.job = job
        self.snapshots_ingested = 0
        self._t0 = time.time()

    # -- wiring ---------------------------------------------------------------
    def expect(self, nprocs: int, runtime: Any = None) -> None:
        """The scheduler announces an attempt: its world size (rollup
        denominators) and its runtime, whose live recovery counters the
        rollups read at scrape time."""
        with self._lock:
            self._expected = nprocs
            self._runtime = runtime
            self._done.clear()

    def mark_done(self, rank: int) -> None:
        """The scheduler saw this rank's final report."""
        with self._lock:
            self._done.add(rank)

    # -- write path -----------------------------------------------------------
    def ingest(self, record: WorkerMetrics) -> None:
        """File one record (mpidrun's serve loop: a pulse's, or the
        rank's final report), then run the watcher; a failing watcher
        costs its evaluation, never the driver."""
        if not isinstance(record, WorkerMetrics):
            return
        key = (record.rank, record.epoch)
        with self._lock:
            self._series[key] = record
            self._filed[key] = self._filed.get(key, 0) + 1
            self.snapshots_ingested += 1
        if self.watcher is not None:
            try:
                self.watcher()
            except Exception:  # noqa: BLE001 - diagnosis never kills the driver
                _log.exception("telemetry watcher failed")

    # -- read path ------------------------------------------------------------
    def latest(self) -> dict[int, WorkerMetrics]:
        """Newest record per rank, from that rank's highest epoch."""
        with self._lock:  # in (rank, epoch) order: a later epoch overwrites
            return {rank: r for (rank, _e), r in sorted(self._series.items())}

    def per_rank(self) -> list[dict[str, Any]]:
        """One row per rank, for ``repro top`` and the doctor: the
        journal's worker row plus what only a live view has — the
        mailbox, the record's age and whether the final report arrived."""
        with self._lock:
            done = set(self._done)
        now = time.time()
        return [
            {
                **record.as_dict(),
                "queue": dict(record.queue),
                "age_s": round(now - record.ts, 3),
                "status": "done" if rank in done else "running",
            }
            for rank, record in sorted(self.latest().items())
        ]

    def rollups(self) -> dict[str, Any]:
        """Cluster-level view computed from the latest record per rank."""
        latest = self.latest().values()
        phase_q: dict[str, dict[str, float]] = {}
        for phase in COVERAGE_PHASES:
            values = [r.phase_times.get(phase, 0.0) for r in latest]
            values = [v for v in values if v > 0.0]
            if values:
                phase_q[phase] = {
                    "p50": round(percentile(values, 50.0), 6),
                    "p99": round(percentile(values, 99.0), 6),
                    "max": round(max(values), 6),
                    "ranks": len(values),
                }
        # busy time, not wall: ranks *waiting* on a straggler accrue the same
        # wall in communicate as the straggler does working
        busys = [busy_seconds(r.phase_times) for r in latest]
        straggler = 0.0
        if busys and max(busys) > 0.0:
            # ranks that did (almost) no work can push the median to zero —
            # floor it at 1ms so the score stays finite and comparable
            straggler = round(max(busys) / max(percentile(busys, 50.0), 1e-3), 4)
        recovery = recovery_counts(self._runtime)
        for name in ("replays_dropped", "duplicates_dropped"):
            recovery[name] = sum(getattr(r, name) for r in latest)

        def skew(values: list[float]) -> float:
            positive = [v for v in values if v > 0.0]
            if not positive:
                return 0.0
            med = percentile(positive, 50.0)
            return round(max(positive) / med, 4) if med > 0 else 0.0

        with self._lock:
            done, expected = len(self._done), self._expected
            ingested = self.snapshots_ingested
        return {
            "ranks_reporting": len(latest),
            "ranks_done": done,
            "ranks_expected": expected,
            "snapshots_ingested": ingested,
            "uptime_s": round(time.time() - self._t0, 3),
            "phases": phase_q,
            "straggler_score": straggler,
            "shuffle_skew": skew([r.bytes_sent for r in latest]),
            "recovery": recovery,
        }

    # -- Prometheus text exposition -------------------------------------------
    def prometheus_text(self) -> str:
        """Text exposition format, 0.0.4 (the format every Prometheus
        scraper speaks); served over the job's SocketRpcServer."""
        lines: list[str] = []

        def family(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        family("datampi_job_info", "gauge",
               "Constant 1; the job label carries the (escaped) job name.")
        lines.append(
            f'datampi_job_info{{job="{_escape_label_value(self.job)}"}} 1'
        )
        latest = self.latest()
        family("datampi_phase_seconds", "gauge",
               "Cumulative seconds per engine phase bucket, per rank.")
        for rank, record in sorted(latest.items()):
            for phase, seconds in sorted(record.phase_times.items()):
                lines.append(
                    f'datampi_phase_seconds{{rank="{rank}",'
                    f'phase="{_escape_label_value(phase)}"}}'
                    f" {_fmt_value(seconds)}"
                )
        rollups = self.rollups()
        family("datampi_phase_quantile_seconds", "gauge",
               "Cross-rank phase time quantiles (latest record per rank).")
        for phase, quantiles in sorted(rollups["phases"].items()):
            for q_name in ("p50", "p99"):
                quantile = "0.5" if q_name == "p50" else "0.99"
                lines.append(
                    f'datampi_phase_quantile_seconds'
                    f'{{phase="{_escape_label_value(phase)}",'
                    f'quantile="{quantile}"}} {_fmt_value(quantiles[q_name])}'
                )
        family("datampi_shuffle_bytes_sent_total", "counter",
               "Shuffle payload bytes sent, per rank.")
        family("datampi_shuffle_records_received_total", "counter",
               "Shuffle records received, per rank.")
        family("datampi_queue_pending", "gauge",
               "Envelopes pending in the rank's mailbox.")
        family("datampi_queue_bytes", "gauge",
               "Payload bytes pending in the rank's mailbox.")
        family("datampi_process_cpu_seconds_total", "counter",
               "Process CPU time (user+system), per rank.")
        family("datampi_process_rss_bytes", "gauge",
               "Current resident set size, per rank.")
        family("datampi_telemetry_snapshots_total", "counter",
               "Records received from each (rank, epoch) series.")
        for rank, record in sorted(latest.items()):
            label = f'rank="{rank}"'
            lines.append(
                f"datampi_shuffle_bytes_sent_total{{{label}}} {record.bytes_sent}"
            )
            lines.append(
                f"datampi_shuffle_records_received_total{{{label}}}"
                f" {record.records_received}"
            )
            lines.append(
                f"datampi_queue_pending{{{label}}}"
                f" {record.queue.get('pending', 0)}"
            )
            lines.append(
                f"datampi_queue_bytes{{{label}}} {record.queue.get('bytes_in', 0)}"
            )
            lines.append(
                f"datampi_process_cpu_seconds_total{{{label}}}"
                f" {_fmt_value(record.process_cpu_seconds, '{:.3f}')}"
            )
            lines.append(
                f"datampi_process_rss_bytes{{{label}}}"
                f" {_fmt_value(record.process_rss_bytes, '{:.0f}')}"
            )
        with self._lock:
            per_series = dict(sorted(self._filed.items()))
        for (rank, epoch), count in per_series.items():
            lines.append(
                f'datampi_telemetry_snapshots_total{{rank="{rank}",'
                f'epoch="{epoch}"}} {count}'
            )
        family("datampi_rank_counter_total", "counter",
               "Every counter of the rank's metrics record, by name.")
        for rank, record in sorted(latest.items()):
            for name, value in sorted(record.counters().items()):
                lines.append(
                    f'datampi_rank_counter_total{{rank="{rank}",'
                    f'counter="{_escape_label_value(name)}"}} {value}'
                )
        family("datampi_straggler_score", "gauge",
               "Slowest rank busy time over the median (1.0 = balanced).")
        lines.append(
            f"datampi_straggler_score {_fmt_value(rollups['straggler_score'], '{:.4f}')}"
        )
        family("datampi_shuffle_skew", "gauge",
               "Max rank shuffle bytes sent over the median.")
        lines.append(
            f"datampi_shuffle_skew {_fmt_value(rollups['shuffle_skew'], '{:.4f}')}"
        )
        recovery = rollups["recovery"]
        family("datampi_recovery_total", "counter",
               "Rank-recovery event counts (live, from the runtime).")
        for counter, value in sorted(recovery.items()):
            lines.append(
                f'datampi_recovery_total{{event="{_escape_label_value(counter)}"}}'
                f" {value}"
            )
        family("datampi_ranks_reporting", "gauge",
               "Ranks with at least one telemetry record.")
        lines.append(f"datampi_ranks_reporting {rollups['ranks_reporting']}")
        family("datampi_ranks_done", "gauge",
               "Ranks whose final report reached the scheduler.")
        lines.append(f"datampi_ranks_done {rollups['ranks_done']}")
        return "\n".join(lines) + "\n"

    def rpc_target(self) -> dict[str, Callable]:
        """Handler dict for :class:`repro.rpc.server.SocketRpcServer`."""
        return {
            "telemetry_scrape": self.prometheus_text,
            "telemetry_ranks": self.per_rank,
            "telemetry_rollups": self.rollups,
        }


def format_top_table(rows: list[dict], rollups: dict) -> str:
    """Render one refresh of the ``repro top`` per-rank table."""
    lines: list[str] = []
    lines.append(
        f"ranks {rollups.get('ranks_reporting', 0)}"
        f"/{rollups.get('ranks_expected', 0) or '?'} reporting  "
        f"done={rollups.get('ranks_done', 0)}  "
        f"snapshots={rollups.get('snapshots_ingested', 0)}  "
        f"straggler={rollups.get('straggler_score', 0.0):.2f}  "
        f"skew={rollups.get('shuffle_skew', 0.0):.2f}"
    )
    recovery = rollups.get("recovery") or {}
    if any(recovery.values()):
        lines.append(
            "recovery: " + "  ".join(
                f"{k}={v}" for k, v in sorted(recovery.items()) if v
            )
        )
    header = (
        f"{'rank':>4} {'ep':>2} {'st':>7} {'wall':>8} {'cpu':>7} "
        f"{'rss_mb':>7} {'sent_mb':>8} {'recv':>8} {'pend':>5} "
        f"{'o/a':>7} {'age':>5}"
    )
    lines.append(header)
    for row in sorted(rows, key=lambda r: r["rank"]):
        lines.append(
            f"{row['rank']:>4} {row['epoch']:>2} {row['status']:>7} "
            f"{row['wall_seconds']:>7.2f}s {row['process_cpu_seconds']:>6.2f}s "
            f"{row['process_rss_bytes'] / 2**20:>7.1f} "
            f"{row['bytes_sent'] / 1e6:>8.2f} "
            f"{row['records_received']:>8} "
            f"{row['queue'].get('pending', 0):>5} "
            f"{row['o_tasks_run']:>3}/{row['a_tasks_run']:<3} "
            f"{row['age_s']:>4.1f}s"
        )
    return "\n".join(lines)
