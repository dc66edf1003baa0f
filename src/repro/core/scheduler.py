"""mpidrun's task scheduler (§IV-B, Figure 4).

The driver owns two task queues (communicator O & A) and serves workers'
pull requests over the parent intercommunicator:

* **Dichotomic**: separate queues per communicator.
* **Dynamic**: O tasks (MapReduce/Common/Streaming) are handed out
  first-come-first-served, so fast processes naturally take more tasks.
* **Data-centric**: A tasks are assigned *only* to the process that
  hosts their partition (the Partition Window ownership), giving every
  A task reduce-side data locality.  Iteration-mode O tasks are pinned
  the same way so cross-round process-local state stays local.
* **Diversified**: the job's mode changes the loop structure (rounds,
  streaming overlap) on the worker side; the scheduler just serves
  queues keyed by (phase, round).
"""

from __future__ import annotations

from collections import deque
from time import monotonic as _now
from typing import Any

from repro.common.errors import DataMPIError, FailureRecord, JobFailedError
from repro.common.logging import get_logger
from repro.core.checkpoint import checkpoint_location, write_rank_manifest
from repro.core.constants import CONTROL_TAG, Mode, MPI_D_Constants as K
from repro.core.job import DataMPIJob
from repro.core.metrics import JobMetrics, WorkerMetrics
from repro.core.modes import profile_for
from repro.core.partition import PartitionWindow
from repro.mpi.datatypes import ANY_SOURCE
from repro.obs.tracer import TRACER as _T

_log = get_logger("core.scheduler")


class TaskScheduler:
    """Queue state for one job."""

    def __init__(self, job: DataMPIJob, nprocs: int) -> None:
        self.job = job
        self.nprocs = nprocs
        self.window_fwd = PartitionWindow(job.a_tasks, nprocs)
        self.window_bwd = PartitionWindow(job.o_tasks, nprocs)
        #: (phase, round) -> shared FIFO deque (dynamic O scheduling)
        self._shared: dict[tuple[str, int], deque[int]] = {}
        #: (phase, round, worker) -> pinned deque (data-centric scheduling)
        self._pinned: dict[tuple[str, int, int], deque[int]] = {}
        #: (phase, round, worker) -> replay deque (surgical rank recovery);
        #: drained ahead of the regular queues and pinned to the reborn
        #: worker — replay must land on the same rank so its re-sent
        #: shuffle streams mirror the originals partition-for-partition
        self._replay: dict[tuple[str, int, int], deque[int]] = {}
        self.assigned: list[tuple[str, int, int, int]] = []  # audit trail

    def _o_is_pinned(self) -> bool:
        return self.job.mode is Mode.ITERATION

    def requeue_worker(self, worker: int) -> int:
        """Re-enqueue every task ever assigned to ``worker`` (its failure
        domain, nothing more) for replay by its reborn incarnation;
        returns the number of tasks requeued."""
        for key in [k for k in self._replay if k[2] == worker]:
            del self._replay[key]
        seen: set[tuple[str, int, int]] = set()
        requeued = 0
        for phase, round_no, w, task_id in self.assigned:
            if w != worker:
                continue
            key = (phase, round_no, task_id)
            if key in seen:
                continue
            seen.add(key)
            self._replay.setdefault(
                (phase, round_no, worker), deque()
            ).append(task_id)
            requeued += 1
        return requeued

    def next_task(self, phase: str, round_no: int, worker: int) -> int | None:
        if phase not in ("O", "A"):
            raise DataMPIError(f"unknown phase {phase!r}")
        queue = self._replay.get((phase, round_no, worker))
        if not queue:
            if phase == "A" or self._o_is_pinned():
                queue = self._pinned_queue(phase, round_no, worker)
            else:
                queue = self._shared_queue(phase, round_no)
        if not queue:
            return None
        task_id = queue.popleft()
        self.assigned.append((phase, round_no, worker, task_id))
        if _T.enabled:
            _T.instant(
                "sched.assign", cat="scheduler",
                args={
                    "phase": phase, "round": round_no,
                    "worker": worker, "task": task_id,
                },
            )
        _log.debug(
            "assign %s task %d (round %d) -> worker %d",
            phase, task_id, round_no, worker,
        )
        return task_id

    def _shared_queue(self, phase: str, round_no: int) -> deque[int]:
        key = (phase, round_no)
        if key not in self._shared:
            count = self.job.o_tasks if phase == "O" else self.job.a_tasks
            self._shared[key] = deque(range(count))
        return self._shared[key]

    def _pinned_queue(self, phase: str, round_no: int, worker: int) -> deque[int]:
        key = (phase, round_no, worker)
        if key not in self._pinned:
            window = self.window_fwd if phase == "A" else self.window_bwd
            self._pinned[key] = deque(window.owned_by(worker))
        return self._pinned[key]


class WorkerSupervisor:
    """Liveness + assignment tracking for the spawned worker world.

    Every control message doubles as a heartbeat; a dedicated worker
    thread also beats on an interval, so a worker deep in a long shuffle
    wait still proves it is alive.  A worker silent past ``deadline`` is
    declared lost with a structured record naming its last assignment.
    """

    def __init__(self, nprocs: int, deadline: float, attempt: int = 1) -> None:
        self.deadline = deadline
        self.attempt = attempt
        now = _now()
        self.last_seen: dict[int, float] = {w: now for w in range(nprocs)}
        #: worker -> (phase, round, task) of its most recent assignment
        self.last_assignment: dict[int, tuple[str, int, int]] = {}
        self.done: set[int] = set()

    def beat(self, worker: int) -> None:
        self.last_seen[worker] = _now()

    def note(self, worker: int, phase: str, round_no: int, task_id: int | None) -> None:
        if task_id is not None:
            self.last_assignment[worker] = (phase, round_no, task_id)

    def finish(self, worker: int) -> None:
        self.done.add(worker)

    def reset(self, worker: int) -> None:
        """A reborn incarnation of ``worker`` is coming up: restart its
        liveness clock and forget its last assignment."""
        self.last_seen[worker] = _now()
        self.done.discard(worker)
        self.last_assignment.pop(worker, None)

    def check(self) -> FailureRecord | None:
        """The ``heartbeat`` record of the stalest expired worker, if any."""
        if self.deadline <= 0:
            return None
        now = _now()
        lost: tuple[float, int] | None = None
        for worker, seen in self.last_seen.items():
            if worker in self.done:
                continue
            silent = now - seen
            if silent > self.deadline and (lost is None or silent > lost[0]):
                lost = (silent, worker)
        if lost is None:
            return None
        silent, worker = lost
        phase, round_no, task_id = self.last_assignment.get(worker, ("", -1, -1))
        return FailureRecord(
            kind="heartbeat",
            worker=worker,
            phase=phase,
            task_id=task_id,
            round_no=round_no,
            attempt=self.attempt,
            error=(
                f"worker {worker} silent for {silent:.1f}s "
                f"(heartbeat deadline {self.deadline:.1f}s)"
            ),
        )


def driver_main(
    comm: Any, job: DataMPIJob, nprocs: int, attempt: int
) -> dict[int, WorkerMetrics]:
    """The mpidrun process: spawn workers, serve the control protocol.

    Runs as rank 0 of a single-rank world; workers are spawned as a child
    world connected by an intercommunicator (Figure 4's process tree).

    The serve loop is supervised: receives are bounded so worker
    heartbeat deadlines are enforced even when no traffic arrives, a
    failure the driver itself detects (a lost heartbeat) raises
    :class:`JobFailedError` with the record built for it
    — a task's failure is not reported here, its rank hands the record to
    the runtime — and *any* driver-side failure aborts the worker world
    before propagating: workers can never be left blocked on a dead
    driver.
    """
    from repro.core.engine import worker_main

    conf = profile_for(job.mode, job.conf)
    deadline = conf.get_float(K.HEARTBEAT_DEADLINE_SECONDS)
    poll = max(0.02, min(1.0, deadline / 5)) if deadline > 0 else None
    inter = comm.spawn(
        worker_main, nprocs, args=(job, nprocs, attempt), name=f"{job.name}-w"
    )
    scheduler = TaskScheduler(job, nprocs)
    supervisor = WorkerSupervisor(nprocs, deadline, attempt=attempt)
    reports: dict[int, WorkerMetrics] = {}
    runtime = comm.runtime
    # -- live telemetry: the hub tracks world size and rank completion so
    # `repro top` can show a status column and honest rollup denominators
    telemetry_hub = runtime.telemetry_hub
    if telemetry_hub is not None:
        telemetry_hub.expect(nprocs)
    # -- surgical rank recovery plumbing ---------------------------------------
    worker_gids = dict(enumerate(inter.remote_group))
    gid_to_worker = {gid: w for w, gid in worker_gids.items()}

    def _try_respawn(worker: int, gid: int) -> bool:
        """Fork a replacement for one dead rank and replay only its
        failure domain; False when surgical recovery is off/exhausted."""
        t0 = _now()
        epoch = runtime.respawn_rank(gid)
        if epoch is None:
            return False
        requeued = scheduler.requeue_worker(worker)
        supervisor.reset(worker)
        if conf.get_bool(K.FT_ENABLED):
            write_rank_manifest(
                *checkpoint_location(conf, job.name),
                worker,
                {
                    "gid": gid,
                    "epoch": epoch,
                    "attempt": attempt,
                    "tasks_requeued": requeued,
                },
            )
        if _T.enabled:
            _T.instant(
                "recovery.respawn", cat="recovery",
                args={
                    "worker": worker, "gid": gid, "epoch": epoch,
                    "tasks_requeued": requeued,
                    "driver_latency_s": round(_now() - t0, 6),
                },
            )
        _log.warning(
            "respawned worker %d (global rank %d) at epoch %d; "
            "%d task(s) requeued for replay", worker, gid, epoch, requeued,
        )
        return True

    def _supervise() -> None:
        """Heartbeat check + respawn servicing, recovery-aware: a dead
        rank is respawned in place when the budget allows; otherwise the
        job degrades to a whole-job restart."""
        for gid in runtime.pending_respawns():
            worker = gid_to_worker.get(gid)
            if worker is not None and worker not in supervisor.done:
                # (done = already reported: no successor needed.)  A
                # refusal is not worded again here: the runtime filed the
                # dead rank's record and aborted the world, so the next
                # receive unwinds this loop
                _try_respawn(worker, gid)
        lost = supervisor.check()
        if lost is not None and not _try_respawn(
            lost.worker, worker_gids[lost.worker]
        ):
            raise JobFailedError(lost.error, [lost])

    try:
        while len(reports) < nprocs:
            try:
                message = inter.recv(source=ANY_SOURCE, tag=CONTROL_TAG, timeout=poll)
            except TimeoutError:
                _supervise()
                continue
            kind = message[0]
            if kind == "req":
                _, phase, round_no, worker = message
                supervisor.beat(worker)
                task_id = scheduler.next_task(phase, round_no, worker)
                supervisor.note(worker, phase, round_no, task_id)
                reply = ("task", task_id) if task_id is not None else ("none", None)
                inter.send(reply, dest=worker, tag=CONTROL_TAG)
            elif kind == "hb":
                supervisor.beat(message[1])
            elif kind == "report":
                _, worker, metrics = message
                supervisor.beat(worker)
                supervisor.finish(worker)
                reports[worker] = metrics
                if telemetry_hub is not None:
                    telemetry_hub.mark_done(worker)
                if _T.enabled:
                    _T.instant(
                        "worker.done", cat="scheduler", args={"worker": worker}
                    )
            else:
                raise DataMPIError(f"unknown control message {message[0]!r}")
            _supervise()
    except BaseException as exc:
        # never leave workers blocked on a driver that is about to die; a
        # JobFailedError names its cause, an ``abort`` record would restate it
        runtime.abort(
            f"driver failed: {exc!r}", record=not isinstance(exc, JobFailedError)
        )
        raise
    return reports


def merge_reports(reports: dict[int, WorkerMetrics]) -> JobMetrics:
    job_metrics = JobMetrics()
    for metrics in reports.values():
        metrics.merge_into(job_metrics)
    return job_metrics
