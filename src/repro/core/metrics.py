"""Job and task metrics: one record per rank, every report a view of it.

:class:`WorkerMetrics` is the only thing a rank writes, and the only
thing it sends: a copy rides every pulse to the telemetry hub, and the
final report is the last record the hub files.  The driver sums the
workers' :class:`Counters` into :class:`JobMetrics`; the journal
summary, ``--metrics-json``, ``repro top`` and the Prometheus exposition
are all derived from those two records, so a counter declared in
:class:`Counters` reaches every one of them.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Iterator

try:  # not on every platform; gate instead of hard-requiring
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

#: the phases of a rank's main-thread lane: disjoint, and their sum is the
#: worker's wall
COVERAGE_PHASES = (
    "compute", "partition-sort", "communicate", "merge", "checkpoint", "control",
)
#: the ones counted as *work*, for the straggler score and as progress for
#: the doctor's stall check — communicate and control are waiting: waiting
#: ranks mirror the straggler's wall, and a wedged rank waits forever
BUSY_PHASES = ("compute", "partition-sort", "merge", "checkpoint")
#: buckets measured on background threads; they overlap the ones above
OVERLAY_PHASES = ("spill",)


def busy_seconds(phases: dict[str, float]) -> float:
    """The :data:`BUSY_PHASES` share of a rank's phase buckets."""
    return sum(phases.get(name, 0.0) for name in BUSY_PHASES)


def _process_cpu_seconds() -> float:
    """CPU time (user + system) of the calling process."""
    t = os.times()
    return t.user + t.system


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # non-POSIX
    _PAGE_SIZE = 4096


def _process_rss_bytes() -> float:
    """Resident set size of the calling process, in bytes."""
    # /proc/self/statm field 2 is *current* resident pages — the reading
    # can go down after frees.  ru_maxrss is the lifetime high-water
    # mark, kept only as the non-Linux fallback.
    try:
        with open("/proc/self/statm", "rb") as f:
            return float(int(f.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        pass
    if _resource is None:
        return 0.0
    # ru_maxrss is bytes on macOS, KiB everywhere else
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return float(rss if sys.platform == "darwin" else rss * 1024)


class PhaseClock:
    """One thread lane's time: at every instant it is in exactly one
    phase, so the buckets are disjoint and sum to the time since it
    started.  The owning thread is the only one to :meth:`switch`; any
    thread may :meth:`read` (the pulse, for a snapshot) or look at
    :attr:`current` (the sampling profiler)."""

    def __init__(
        self, phase: str, now: Callable[[], float] = time.perf_counter
    ) -> None:
        self._now = now  # a test seam, not a setting
        self._lock = threading.Lock()
        self._closed: dict[str, float] = {}
        #: the phase the lane is in; ``None`` once stopped
        self.current: str | None = phase
        self._since = now()

    def switch(self, phase: str | None) -> str | None:
        """Enter ``phase`` (``None`` stops the clock); returns the phase left."""
        with self._lock:
            t, left = self._now(), self.current
            if left is not None:
                self._closed[left] = self._closed.get(left, 0.0) + (t - self._since)
            self.current, self._since = phase, t
        return left

    def read(self) -> dict[str, float]:
        """Seconds per phase so far, the open interval included."""
        with self._lock:
            out = dict(self._closed)
            if self.current is not None:
                out[self.current] = out.get(self.current, 0.0) + (
                    self._now() - self._since
                )
        return out


_LANE = threading.local()


def bind_clock(clock: PhaseClock | None) -> None:
    """Make ``clock`` the calling thread's lane (``None`` unbinds)."""
    _LANE.clock = clock


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Spend the body in ``name`` on the calling thread's lane, then return
    to the phase it left.  A no-op on a thread no engine bound a lane to."""
    clock = getattr(_LANE, "clock", None)
    if clock is None:
        yield
        return
    left = clock.switch(name)
    try:
        yield
    finally:
        clock.switch(left)


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
    #: the rank's incarnation (bumped by a surgical respawn)
    epoch: int = 0
    #: the OS process the rank runs in
    pid: int = 0
    #: ``time.time()`` of the last fold
    ts: float = 0.0
    #: :func:`_process_cpu_seconds` and :func:`_process_rss_bytes` at the
    #: last fold
    process_cpu_seconds: float = 0.0
    process_rss_bytes: float = 0.0
    #: wall-clock seconds of this worker's engine loop: the total of its
    #: main-thread :class:`PhaseClock`
    wall_seconds: float = 0.0
    #: seconds per phase bucket — that clock's ``read()``
    #: (:data:`COVERAGE_PHASES`) plus the concurrent :data:`OVERLAY_PHASES`;
    #: docs/OBSERVABILITY.md
    phase_times: dict = field(default_factory=dict)
    #: every task attempt this worker executed, in execution order
    tasks: list = field(default_factory=list)
    #: the mailbox's ``Endpoint.stats()`` at the last fold
    queue: dict = field(default_factory=dict)
    #: the sampling profiler's document at the last fold (None unprofiled)
    profile: dict | None = None
    #: the rank's live stacks (``StackSampler.dump_stacks``): filled in a
    #: pulse's copy while the doctor is on, empty in the folded record
    stacks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """The journal's worker row: no task table, queue, profile or stacks."""
        return {
            "rank": self.rank,
            "epoch": self.epoch,
            "pid": self.pid,
            "wall_seconds": self.wall_seconds,
            "process_cpu_seconds": self.process_cpu_seconds,
            "process_rss_bytes": self.process_rss_bytes,
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
    #: zombie-incarnation frames fenced at the router (their connection
    #: no longer holds the rank)
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
    def restarts(self) -> int:
        """Automatic restarts consumed (0 = succeeded or failed first
        try), as the metrics record them."""
        return self.metrics.restarts

    @property
    def a_data_locality(self) -> float:
        """Fraction of A tasks that ran on the process holding their data.

        1.0 by construction (§IV-B): a rank runs the A tasks whose
        partitions its Partition Window gives it.
        """
        if self.metrics.a_tasks_run == 0:
            return 1.0
        return self.metrics.local_a_tasks / self.metrics.a_tasks_run
