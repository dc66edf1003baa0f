"""Job and task metrics: one record per rank, every report a view of it.

:class:`WorkerMetrics` is the only thing a rank writes.  The driver sums
the workers' :class:`Counters` into :class:`JobMetrics`; the telemetry
snapshot, the journal summary, ``--metrics-json``, ``repro top`` and the
Prometheus exposition are all derived from those two records, so a
counter declared in :class:`Counters` reaches every one of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any

#: disjoint main-thread phase buckets; their sum explains a worker's wall
COVERAGE_PHASES = (
    "compute", "partition-sort", "communicate", "merge", "checkpoint", "control",
)
#: buckets measured on background threads; they overlap the ones above
OVERLAY_PHASES = ("spill",)


@dataclass
class TaskMetrics:
    """Counters for one task attempt."""

    task_id: int = -1
    kind: str = ""  # "O" or "A"
    records_emitted: int = 0
    records_received: int = 0
    duration: float = 0.0
    #: worker process the attempt ran on (-1 before it is assigned)
    worker: int = -1
    #: O/A round the attempt belongs to (Iteration mode)
    round_no: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Counters:
    """The per-rank counters the driver sums, each declared exactly once.

    The shuffle-side ones carry the names of ``ShuffleService.stats()``
    keys: the engine folds that dict in by name.
    """

    o_tasks_run: int = 0
    a_tasks_run: int = 0
    records_sent: int = 0
    bytes_sent: int = 0
    blocks_sent: int = 0
    #: coalesced shuffle envelopes that carried those blocks
    envelopes_sent: int = 0
    records_received: int = 0
    blocks_received: int = 0
    spilled_bytes: int = 0
    combined_away: int = 0
    checkpointed_records: int = 0
    reloaded_records: int = 0
    local_a_tasks: int = 0  # A tasks that ran where their data lived
    #: re-sent blocks a receiver had already staged (exactly-once)
    duplicates_dropped: int = 0
    #: whole replayed shuffle streams dropped (rank recovery exactly-once)
    replays_dropped: int = 0

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTER_NAMES}


COUNTER_NAMES = tuple(f.name for f in fields(Counters))


@dataclass
class WorkerMetrics(Counters):
    """The one record a rank writes; merged into :class:`JobMetrics`."""

    rank: int = -1
    #: wall-clock seconds of this worker's engine loop
    wall_seconds: float = 0.0
    #: seconds per phase bucket — :data:`COVERAGE_PHASES` on the main
    #: thread, :data:`OVERLAY_PHASES` concurrently; docs/OBSERVABILITY.md
    phase_times: dict = field(default_factory=dict)
    #: every task attempt this worker executed, in execution order
    tasks: list = field(default_factory=list)

    def add_phase(self, phase: str, seconds: float) -> None:
        if seconds <= 0:
            return
        self.phase_times[phase] = self.phase_times.get(phase, 0.0) + seconds

    def as_dict(self) -> dict:
        """Everything but the per-task table (the journal's worker rows)."""
        return {
            "rank": self.rank,
            "wall_seconds": self.wall_seconds,
            **self.counters(),
            "phase_times": dict(self.phase_times),
        }

    def merge_into(self, job: "JobMetrics") -> None:
        for name in COUNTER_NAMES:
            setattr(job, name, getattr(job, name) + getattr(self, name))
        for phase, seconds in self.phase_times.items():
            job.phase_times[phase] = job.phase_times.get(phase, 0.0) + seconds
        job.tasks.extend(self.tasks)


@dataclass
class JobMetrics(Counters):
    """The workers' counters summed, plus the job-level fields."""

    duration: float = 0.0
    #: automatic supervised restarts it took to produce this result
    restarts: int = 0
    #: surgical single-rank respawns (process backend; no job restart)
    respawns: int = 0
    #: frames replayed to reborn ranks from the redelivery buffer
    redelivered_frames: int = 0
    #: zombie-incarnation frames fenced at the router by epoch
    stale_frames_dropped: int = 0
    #: per-phase seconds summed across workers (Fig. 5's breakdown)
    phase_times: dict = field(default_factory=dict)
    #: :class:`TaskMetrics` for every task attempt across all workers
    tasks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-friendly dump (``--metrics-json`` and the journal)."""
        return asdict(self)


def recovery_counts(runtime: Any) -> dict[str, int]:
    """One runtime's rank-recovery counters, keyed by the
    :class:`JobMetrics` field each feeds; zeros for ``None`` (a hub
    nobody bound a runtime to)."""
    if runtime is None:
        return {"respawns": 0, "redelivered_frames": 0, "stale_frames_dropped": 0}
    return {
        "respawns": runtime.respawns,
        "redelivered_frames": runtime.redelivered_frames,
        "stale_frames_dropped": runtime.stale_frames_dropped,
    }


@dataclass
class JobResult:
    """What ``mpidrun`` returns."""

    name: str
    success: bool
    metrics: JobMetrics = field(default_factory=JobMetrics)
    error: str = ""
    #: automatic restarts consumed (0 = succeeded or failed first try)
    restarts: int = 0
    #: structured :class:`~repro.common.errors.FailureRecord` history across
    #: all attempts — empty for a clean run, populated even on success when
    #: the job recovered from failures
    failures: list = field(default_factory=list)
    #: flight-recorder journal path ("" when tracing was off)
    trace_path: str = ""
    #: final doctor report (ranked findings, captures, rollups) when the
    #: diagnosis engine ran — empty dict otherwise
    doctor: dict = field(default_factory=dict)
    #: doctor.json path ("" when the doctor was off)
    doctor_path: str = ""

    @property
    def a_data_locality(self) -> float:
        """Fraction of A tasks that ran on the process holding their data.

        The data-centric scheduler should keep this at 1.0 (§IV-B).
        """
        if self.metrics.a_tasks_run == 0:
            return 1.0
        return self.metrics.local_a_tasks / self.metrics.a_tasks_run

    @property
    def task_metrics(self) -> list[TaskMetrics]:
        """Per-task-attempt table (duration, records in/out, worker)."""
        return list(self.metrics.tasks)
