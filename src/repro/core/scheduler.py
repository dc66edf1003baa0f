"""mpidrun's task scheduler (§IV-B, Figure 4).

The driver deals O tasks and serves workers' pull requests over the
parent intercommunicator:

* **Dichotomic**: O and A tasks are placed by separate rules.
* **Dynamic**: O tasks (MapReduce/Common/Streaming) are handed out
  first-come-first-served, so fast processes naturally take more tasks.
  They are the only tasks the driver deals.
* **Data-centric**: an A task runs *only* on the process that hosts its
  partition (the Partition Window ownership), giving every A task
  reduce-side data locality; Iteration-mode O tasks are pinned the same
  way so cross-round process-local state stays local.  A rank computes
  these tasks itself from the window (``PartitionWindow.owned_by``), and
  no message is sent for them.
* **Diversified**: the job's mode changes the loop structure (rounds,
  streaming overlap) on the worker side; the scheduler just serves one
  O queue per round.
"""

from __future__ import annotations

from collections import deque
from time import monotonic as _now
from typing import Any

from repro.common.errors import DataMPIError, FailureRecord, JobFailedError
from repro.common.logging import get_logger
from repro.core.constants import CONTROL_TAG, MPI_D_Constants as K
from repro.core.job import DataMPIJob
from repro.core.metrics import JobMetrics, WorkerMetrics
from repro.core.modes import profile_for
from repro.mpi.datatypes import ANY_SOURCE
from repro.obs.tracer import TRACER as _T

_log = get_logger("core.scheduler")


class TaskScheduler:
    """The first-come-first-served O queues of one job."""

    def __init__(self, job: DataMPIJob) -> None:
        self.job = job
        #: round -> shared FIFO deque (dynamic O scheduling)
        self._shared: dict[int, deque[int]] = {}
        #: (round, worker) -> replay deque (surgical rank recovery);
        #: drained ahead of the shared queue and pinned to the reborn
        #: worker — replay must land on the same rank so its re-sent
        #: shuffle streams mirror the originals partition-for-partition
        self._replay: dict[tuple[int, int], deque[int]] = {}
        self.assigned: list[tuple[int, int, int]] = []  # (round, worker, task)

    def requeue_worker(self, worker: int) -> int:
        """Re-enqueue every O task ever dealt to ``worker`` for replay by
        its reborn incarnation, which reruns its window-owned tasks by
        itself; returns the number of tasks requeued."""
        for key in [k for k in self._replay if k[1] == worker]:
            del self._replay[key]
        seen: set[tuple[int, int]] = set()
        for round_no, w, task_id in self.assigned:
            if w == worker and (round_no, task_id) not in seen:
                seen.add((round_no, task_id))
                self._replay.setdefault((round_no, worker), deque()).append(task_id)
        return len(seen)

    def next_task(self, round_no: int, worker: int) -> int | None:
        """Deal ``worker`` its next O task of ``round_no``, or None."""
        queue = self._replay.get((round_no, worker))
        if not queue:
            queue = self._shared.get(round_no)
            if queue is None:
                queue = self._shared[round_no] = deque(range(self.job.o_tasks))
        if not queue:
            return None
        task_id = queue.popleft()
        self.assigned.append((round_no, worker, task_id))
        if _T.enabled:
            _T.instant(
                "sched.assign", cat="scheduler",
                args={"round": round_no, "worker": worker, "task": task_id},
            )
        _log.debug("assign O task %d (round %d) -> worker %d", task_id, round_no, worker)
        return task_id


class WorkerSupervisor:
    """Liveness tracking for the spawned worker world.

    Every control message doubles as a heartbeat; a worker's pulse
    thread also beats on an interval, so a worker deep in a long shuffle
    wait still proves it is alive.  A worker silent past ``deadline`` is
    declared lost with a structured record naming the worker, its silence
    and the deadline — not a task: the driver sees too few task starts to
    name the one it was running.
    """

    def __init__(self, nprocs: int, deadline: float, attempt: int = 1) -> None:
        self.deadline = deadline
        self.attempt = attempt
        now = _now()
        self.last_seen: dict[int, float] = {w: now for w in range(nprocs)}
        self.done: set[int] = set()

    def beat(self, worker: int) -> None:
        self.last_seen[worker] = _now()

    def finish(self, worker: int) -> None:
        self.done.add(worker)

    def reset(self, worker: int) -> None:
        """A reborn incarnation of ``worker`` is coming up: restart its
        liveness clock."""
        self.last_seen[worker] = _now()
        self.done.discard(worker)

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
        return FailureRecord(
            kind="heartbeat",
            worker=worker,
            attempt=self.attempt,
            error=(
                f"worker {worker} silent for {silent:.1f}s "
                f"(heartbeat deadline {self.deadline:.1f}s)"
            ),
        )


def driver_main(
    comm: Any, job: DataMPIJob, nprocs: int, attempt: int,
    telemetry_hub: Any = None,
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

    ``telemetry_hub`` (None = telemetry off) files the ranks' pulse
    records and reports, the report last, and tracks world size and
    rank completion so ``repro top`` shows a status column and honest
    rollup denominators.
    """
    from repro.core.engine import worker_main

    conf = profile_for(job.mode, job.conf)
    deadline = conf.get_float(K.HEARTBEAT_DEADLINE_SECONDS)
    poll = max(0.02, min(1.0, deadline / 5)) if deadline > 0 else None
    inter = comm.spawn(
        worker_main, nprocs, args=(job, nprocs, attempt), name=f"{job.name}-w"
    )
    scheduler = TaskScheduler(job)
    supervisor = WorkerSupervisor(nprocs, deadline, attempt=attempt)
    reports: dict[int, WorkerMetrics] = {}
    runtime = comm.runtime
    if telemetry_hub is not None:
        telemetry_hub.expect(nprocs, runtime)
    # -- surgical rank recovery plumbing ---------------------------------------
    worker_gids = dict(enumerate(inter.remote_group))
    gid_to_worker = {gid: w for w, gid in worker_gids.items()}

    def _try_respawn(worker: int, gid: int) -> bool:
        """Fork a replacement for one dead rank and replay only its
        failure domain — the O tasks it was dealt, requeued here, and its
        window-owned tasks, which the reborn rank reruns by itself; False
        when surgical recovery is off/exhausted."""
        t0 = _now()
        epoch = runtime.respawn_rank(gid)
        if epoch is None:
            return False
        requeued = scheduler.requeue_worker(worker)
        supervisor.reset(worker)
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
            "%d dealt O task(s) requeued for replay", worker, gid, epoch, requeued,
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
                _, round_no, worker = message
                supervisor.beat(worker)
                task_id = scheduler.next_task(round_no, worker)
                reply = ("task", task_id) if task_id is not None else ("none", None)
                inter.send(reply, dest=worker, tag=CONTROL_TAG)
            elif kind == "hb":
                _, worker, record = message
                supervisor.beat(worker)
                if record is not None and telemetry_hub is not None:
                    telemetry_hub.ingest(record)
            elif kind == "report":
                _, worker, metrics = message
                supervisor.beat(worker)
                supervisor.finish(worker)
                reports[worker] = metrics
                if telemetry_hub is not None:
                    telemetry_hub.ingest(metrics)
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
