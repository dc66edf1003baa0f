"""Worker-side execution engine.

Each DataMPI *working process* (one MPI rank of the spawned worker
world) runs a :class:`WorkerEngine`: it executes O tasks feeding the
shuffle pipeline, waits for plane completion, then executes the A tasks
the Partition Window gives it — reduce-side data locality by
construction, and no message to ``mpidrun``, which deals only the
first-come-first-served O tasks (the control protocol of §IV-B).

Iteration mode loops rounds with a backward plane (A→O) per round and a
process-local ``state`` dict that stays put across rounds; its O tasks
are window-pinned too.  Streaming mode starts the A tasks first, on
their own threads, consuming pairs as they arrive.  A rank's liveness
and live telemetry reach mpidrun as one stream: its pulse.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
import time
from typing import Any, Iterator

from repro.common.config import Configuration
from repro.common.errors import DataMPIError, FailureRecord, MPIAbort
from repro.core import context as context_mod
from repro.core.buffers import SendPartitionList
from repro.core.checkpoint import CheckpointManager, checkpoint_location
from repro.core.constants import CONTROL_TAG, Mode, MPI_D_Constants as K
from repro.core.context import TaskContext
from repro.core.job import DataMPIJob
from repro.core.metrics import (
    PhaseClock,
    WorkerMetrics,
    _process_cpu_seconds,
    _process_rss_bytes,
    bind_clock,
    phase,
)
from repro.core.modes import (
    STREAM_LINGER_SECONDS,
    mode_is_pipelined,
    mode_sorts,
    profile_for,
)
from repro.core.partition import PartitionWindow
from repro.core.shuffle import PlaneConfig, ShufflePlane, ShuffleService
from repro.common.logging import get_logger
from repro.obs.profiler import PROFILE_CAT, PROFILER
from repro.obs.tracer import TRACER as _T
from repro.serde.comparators import default_compare
from repro.serde.serialization import get_serializer

_log = get_logger("core.engine")


def worker_main(
    world: Any, job: DataMPIJob, nprocs: int, attempt: int
) -> WorkerMetrics:
    """Entry point of one spawned working process."""
    engine = WorkerEngine(world, job, nprocs, attempt)
    return engine.run()


class WorkerEngine:
    def __init__(self, world: Any, job: DataMPIJob, nprocs: int, attempt: int) -> None:
        self.world = world
        self.parent = world.Get_parent()
        if self.parent is None:
            raise DataMPIError("worker engine requires a parent intercommunicator")
        self.job = job
        self.nprocs = nprocs
        self.rank = world.rank
        self.conf: Configuration = profile_for(job.mode, job.conf)
        #: the job attempt this rank serves, 1-based (mpidrun's restart loop)
        self.attempt = attempt
        #: generous; a failure aborts the wait earlier
        self.plane_timeout = self.conf.get_float(K.PLANE_TIMEOUT_SECONDS)
        self.sorts = mode_sorts(self.conf)
        self.pipelined = mode_is_pipelined(self.conf)
        #: A->O communication, rounds: the Iteration mode (§III-A)
        self.bidirectional = job.mode is Mode.ITERATION
        self.cmp = (job.comparator or default_compare) if self.sorts else None
        self.serializer = get_serializer(self.conf.get_str(K.SERIALIZER))
        #: mpidrun sets this to the job's scratch directory when the user
        #: named none; the engine creates no directory of its own
        self.spill_dir = self.conf.get(K.LOCAL_DIR) or tempfile.gettempdir()
        self.memory_budget = self.conf.get_bytes(K.MEMORY_CACHE_BYTES)
        self.window_fwd = PartitionWindow(job.a_tasks, nprocs)
        self.window_bwd = PartitionWindow(job.o_tasks, nprocs)
        self.metrics = WorkerMetrics(
            rank=self.rank, epoch=world.runtime.rank_epoch, pid=os.getpid()
        )
        #: the main thread's lane, the only writer of this rank's time;
        #: whatever runs outside a ``phase(...)`` scope is control
        self.clock = PhaseClock("control")
        #: guards the fold and the pulse's copy of the record (the pulse
        #: thread folds too)
        self._fold_lock = threading.RLock()
        self.state: dict = {}  # process-local cross-round state (Iteration)
        self.shuffle = ShuffleService(
            world,
            self._plane_config,
            batch_bytes=self.conf.get_bytes(K.SHUFFLE_BATCH_BYTES),
        )
        self._checkpoints = self._build_checkpoint_manager()
        #: sampling rate; 0 = profiler off (the stack registry for live
        #: dumps is maintained regardless)
        self.profile_hz = self.conf.get_float(K.PROFILE_HZ)
        from repro.serde.registry import resolve_type

        self.key_class = resolve_type(self.conf.get(K.KEY_CLASS))
        self.value_class = resolve_type(self.conf.get(K.VALUE_CLASS))

    # -- configuration plumbing ---------------------------------------------------
    def _plane_config(self, plane_id: str) -> PlaneConfig:
        window = self.window_bwd if plane_id.startswith("bwd") else self.window_fwd
        return PlaneConfig(
            num_partitions=window.num_partitions,
            window=window,
            cmp=self.cmp,
            serializer=self.serializer,
            spill_dir=self.spill_dir,
            memory_budget=self.memory_budget,
            pipelined=self.pipelined,
        )

    def _build_checkpoint_manager(self) -> CheckpointManager | None:
        if not self.conf.get_bool(K.FT_ENABLED):
            return None
        if self.job.mode is Mode.ITERATION or self.pipelined:
            raise DataMPIError(
                "library-level checkpointing supports MapReduce/Common jobs"
            )
        return CheckpointManager(
            *checkpoint_location(self.conf, self.job.name),
            self.serializer,
            self.conf.get_int(K.FT_INTERVAL_RECORDS),
            raw=self.conf.get_bool(K.SHUFFLE_RAW),
        )

    # -- control protocol ------------------------------------------------------------
    def _o_tasks(self, round_no: int) -> Iterator[int]:
        """This rank's O tasks of the round.  Iteration pins them by the
        Partition Window, as every mode pins A tasks, so the rank names
        them itself; otherwise mpidrun deals them first come, first
        served: one request each, until it answers that they are gone."""
        if self.bidirectional:
            yield from self.window_bwd.owned_by(self.rank)
            return
        request = ("req", round_no, self.rank)
        while True:
            self.parent.send(request, dest=0, tag=CONTROL_TAG)
            kind, task_id = self.parent.recv(source=0, tag=CONTROL_TAG)
            if kind != "task":
                return
            yield task_id

    def _report(self) -> None:
        self.parent.send(("report", self.rank, self.metrics), dest=0, tag=CONTROL_TAG)

    def _sample_process(self) -> None:
        """Read this process's CPU and RSS into the record; with tracing
        on, also as counters on the calling thread's lane (the rank's)."""
        cpu, rss = _process_cpu_seconds(), _process_rss_bytes()
        self.metrics.process_cpu_seconds, self.metrics.process_rss_bytes = cpu, rss
        if _T.enabled:
            _T.counter("process.cpu.seconds", cpu)
            _T.counter("process.rss.bytes", rss)

    def _fold(self) -> None:
        """Bring ``self.metrics`` up to date: the shuffle service's counters
        (``stats()``: :class:`Counters` field names), the phase buckets —
        the main lane's clock as it reads now, plus the ``stats()`` spill
        overlay, which accrues on whichever threads deliver this rank's
        envelopes — the wall, that lane's total, and the mailbox, process
        and profiler readings.  Called by the pulse for every record it
        sends and by ``run`` ahead of the final report — the only reader
        of ``shuffle.stats()`` and of the clock."""
        with self._fold_lock:
            stats = self.shuffle.stats()
            spill = stats.pop("spill_seconds")
            for name, value in stats.items():
                setattr(self.metrics, name, value)
            phases = self.clock.read()
            self.metrics.wall_seconds = sum(phases.values())
            if spill > 0:
                phases["spill"] = spill
            self.metrics.phase_times = phases
            self.metrics.ts = time.time()
            self._sample_process()
            self.metrics.queue = self.world._my_endpoint().stats()
            if self.profile_hz > 0:
                self.metrics.profile = PROFILER.profile(
                    self.rank, self.metrics.epoch, self.profile_hz
                )

    # -- the pulse ---------------------------------------------------------------
    def _start_pulse(self) -> tuple[threading.Event, threading.Thread] | None:
        """Send ``("hb", rank, record)`` on ``CONTROL_TAG`` thirty times
        per heartbeat deadline or once per telemetry interval, whichever
        is more often, so a rank deep in a long shuffle wait still proves
        liveness.  ``record`` is None with telemetry off; with it on, a
        copy of this rank's folded :class:`WorkerMetrics` without its
        task table, the first at once, and with the doctor on, the live
        stacks of this rank's threads.  With tracing on, every pulse
        samples the process on this rank's lane."""
        every = self.conf.get_float(K.TELEMETRY_INTERVAL_SECONDS)
        doctor = self.conf.get_bool(K.DOCTOR_ENABLED)
        # the doctor reads the records, so it implies them
        telemetry = (
            self.conf.get_bool(K.TELEMETRY_ENABLED) or doctor
        ) and every > 0
        beat_every = self.conf.get_float(K.HEARTBEAT_DEADLINE_SECONDS) / 30
        intervals = [i for i in (beat_every, every if telemetry else 0.0) if i > 0]
        if not intervals:
            return None
        interval = min(intervals)
        stop = threading.Event()

        def pulse() -> None:
            record = None
            if telemetry:
                with self._fold_lock:
                    self._fold()
                    # a copy: on threads the transport passes it by reference
                    record = dataclasses.replace(
                        self.metrics, tasks=[],
                        stacks=PROFILER.dump_stacks(self.rank, self.metrics.epoch)
                        if doctor else [],
                    )
            elif _T.enabled:
                self._sample_process()
            if not stop.is_set():  # the report is this rank's last word
                self.parent.send(("hb", self.rank, record), dest=0, tag=CONTROL_TAG)

        def beat() -> None:
            _T.bind(self.rank)
            try:
                if telemetry:
                    pulse()
                while not stop.wait(interval):
                    pulse()
            except Exception:  # noqa: BLE001 - abort in flight; stop quietly
                return

        thread = threading.Thread(target=beat, daemon=True, name=f"hb-w{self.rank}")
        thread.start()
        return stop, thread

    @staticmethod
    def _stop_pulse(pulse: tuple[threading.Event, threading.Thread] | None) -> None:
        """Stop the pulse and wait for its thread (idempotent)."""
        if pulse is None:
            return
        stop, thread = pulse
        stop.set()
        thread.join(timeout=2.0)

    # -- task contexts -----------------------------------------------------------------
    def _make_o_context(
        self, task_id: int, round_no: int, spl: SendPartitionList
    ) -> TaskContext:
        recv_plane: ShufflePlane | None = None
        if self.bidirectional and round_no > 0:
            recv_plane = self.shuffle.plane(f"bwd:{round_no - 1}")
        cp_writer = cp_reader = None
        if self._checkpoints is not None:
            cp_reader = self._checkpoints.reader(task_id)
            cp_writer = self._checkpoints.writer(
                task_id, start_round=cp_reader.max_round()
            )
        crash_after = -1
        # the first attempt only, so an automatic restart recovers
        if self.attempt == 1 and task_id == self.conf.get_int(K.INJECT_CRASH_TASK):
            crash_after = self.conf.get_int(K.INJECT_CRASH_AFTER_RECORDS)
        return TaskContext(
            kind="O",
            task_id=task_id,
            o_size=self.job.o_tasks,
            a_size=self.job.a_tasks,
            round_no=round_no,
            conf=self.conf,
            partitioner=self.job.partitioner,
            spl=spl,
            send_plane_id=f"fwd:{round_no}",
            shuffle=self.shuffle,
            recv_plane=recv_plane,
            pipelined=False,
            state=self.state,
            checkpoint_writer=cp_writer,
            checkpoint_reader=cp_reader,
            crash_after=crash_after,
            key_class=self.key_class,
            value_class=self.value_class,
        )

    def _make_a_context(
        self,
        task_id: int,
        round_no: int,
        recv_plane: ShufflePlane,
        spl: SendPartitionList | None,
    ) -> TaskContext:
        return TaskContext(
            kind="A",
            task_id=task_id,
            o_size=self.job.o_tasks,
            a_size=self.job.a_tasks,
            round_no=round_no,
            conf=self.conf,
            partitioner=self.job.partitioner,
            spl=spl,
            send_plane_id=f"bwd:{round_no}" if spl is not None else None,
            shuffle=self.shuffle,
            recv_plane=recv_plane,
            pipelined=self.pipelined,
            state=self.state,
            key_class=self.key_class,
            value_class=self.value_class,
        )

    def _execute(self, ctx: TaskContext, fn: Any) -> None:
        _log.debug("start %s task %d (round %d)", ctx.kind, ctx.task_id, ctx.round)
        context_mod.bind(ctx)
        start = time.perf_counter()
        try:
            # the task's own phase; SPL seals and checkpoint flushes inside
            # it move this thread's lane to theirs and back themselves
            with phase("compute" if ctx.kind == "O" else "merge"):
                if ctx.kind == "O" and self._checkpoints is not None:
                    with phase("checkpoint"):
                        self.metrics.reloaded_records += ctx.replay_checkpoint()
                fn(ctx)
                ctx.close()
        except MPIAbort:
            raise  # a peer already failed; not this task's fault
        except BaseException as exc:  # noqa: BLE001 - annotated and re-raised
            import traceback as traceback_mod

            # built here, once; the rank's record_error adopts it off the
            # exception, and that is the record's only way to mpidrun
            record = FailureRecord(
                kind="task",
                worker=self.rank,
                phase=ctx.kind,
                task_id=ctx.task_id,
                round_no=ctx.round,
                attempt=self.attempt,
                error=repr(exc),
                traceback=traceback_mod.format_exc(),
            )
            try:
                exc.failures = [record]
            except AttributeError:
                pass
            raise
        finally:
            duration = time.perf_counter() - start
            ctx.metrics.duration = duration
            ctx.metrics.worker = self.rank
            ctx.metrics.round_no = ctx.round
            self.metrics.tasks.append(ctx.metrics)
            if _T.enabled:
                _T.complete(
                    f"{ctx.kind}-task-{ctx.task_id}", start, duration, cat="task",
                    args={
                        "kind": ctx.kind, "task": ctx.task_id,
                        "round": ctx.round,
                        "emitted": ctx.metrics.records_emitted,
                        "received": ctx.metrics.records_received,
                    },
                )
            context_mod.bind(None)
            _log.debug(
                "end %s task %d: emitted=%d received=%d %.3fs",
                ctx.kind, ctx.task_id, ctx.metrics.records_emitted,
                ctx.metrics.records_received, ctx.metrics.duration,
            )
        if ctx.kind == "O":
            self.metrics.o_tasks_run += 1
            if ctx._cp_writer is not None:
                self.metrics.checkpointed_records += ctx._cp_writer.records_persisted

    # -- phase loops ----------------------------------------------------------------------
    def _new_spl(self, direction: str) -> SendPartitionList:
        num = self.job.a_tasks if direction == "fwd" else self.job.o_tasks
        return SendPartitionList(
            num_partitions=num,
            flush_bytes=self.conf.get_bytes(K.SPL_PARTITION_BYTES),
            cmp=self.cmp,
            combiner=self.job.combiner,
            serializer=self.serializer,
            raw=self.conf.get_bool(K.SHUFFLE_RAW),
            linger=STREAM_LINGER_SECONDS if self.pipelined else None,
        )

    def _finish_sends(self, plane_id: str, spl: SendPartitionList) -> None:
        """Seal what the SPL still holds and ship it with the end-of-stream;
        on return this rank's streams of the plane are on the wire."""
        self.shuffle.send_blocks(plane_id, spl.flush_all(), eos=True)
        self.metrics.records_sent += spl.records_out
        self.metrics.combined_away += spl.combined_away

    def _run_o_phase(self, round_no: int) -> None:
        spl = self._new_spl("fwd")
        for task_id in self._o_tasks(round_no):
            ctx = self._make_o_context(task_id, round_no, spl)
            self._execute(ctx, self.job.o_fn)
        if self.bidirectional and round_no > 0:
            self.shuffle.drop(f"bwd:{round_no - 1}")  # read by these O tasks only
        self._finish_sends(f"fwd:{round_no}", spl)

    def _wait_plane(self, plane: ShufflePlane) -> None:
        """Block until the plane completes, as communicate time."""
        with phase("communicate"), _T.span(
            "plane.wait", cat="phase", args={"plane": plane.plane_id}
        ):
            plane.wait_complete(self.plane_timeout)

    def _run_a_phase(self, round_no: int) -> None:
        fwd_plane = self.shuffle.plane(f"fwd:{round_no}")
        self._wait_plane(fwd_plane)
        spl = self._new_spl("bwd") if self.bidirectional else None
        for task_id in self.window_fwd.owned_by(self.rank):
            ctx = self._make_a_context(task_id, round_no, fwd_plane, spl)
            self._execute(ctx, self.job.a_fn)
            self.metrics.a_tasks_run += 1
            self.metrics.local_a_tasks += 1
        self.shuffle.drop(fwd_plane.plane_id)
        if spl is not None:
            self._finish_sends(f"bwd:{round_no}", spl)
            self._wait_plane(self.shuffle.plane(f"bwd:{round_no}"))

    def _run_streaming_round(self, round_no: int) -> None:
        """Streaming: A tasks consume concurrently with O production.

        Completion handling is strict: a consumer that raised is reported
        even if its siblings are still draining, and a consumer still
        alive past the plane timeout raises a descriptive error naming
        the stuck task instead of silently falling through the join.
        """
        fwd_plane = self.shuffle.plane(f"fwd:{round_no}")
        a_tasks = self.window_fwd.owned_by(self.rank)
        errors: list[BaseException] = []
        done: list[int] = []  # counted on the main thread, after the join

        def run_a(task_id: int) -> None:
            _T.bind(self.rank)
            # a lane of its own: this thread's time is the task's
            # TaskMetrics.duration row, not a share of the rank's buckets
            lane = PhaseClock("merge")
            bind_clock(lane)
            PROFILER.register_thread(self.rank, self.metrics.epoch, lane)
            try:
                ctx = self._make_a_context(task_id, round_no, fwd_plane, None)
                self._execute(ctx, self.job.a_fn)
                done.append(task_id)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finally:
                PROFILER.unregister_thread()

        threads = [
            threading.Thread(target=run_a, args=(t,), daemon=True, name=f"a-task-{t}")
            for t in a_tasks
        ]
        for thread in threads:
            thread.start()
        self._run_o_phase(round_no)
        # one shared deadline: the plane budget covers the whole round's
        # drain, not plane_timeout per consumer thread
        deadline = time.monotonic() + self.plane_timeout
        stuck: list[int] = []
        with phase("communicate"):
            for task_id, thread in zip(a_tasks, threads):
                thread.join(max(0.0, deadline - time.monotonic()))
                if thread.is_alive():
                    stuck.append(task_id)
        self.metrics.a_tasks_run += len(done)
        self.metrics.local_a_tasks += len(done)
        if errors:
            # a real failure outranks a "stuck" symptom it probably caused
            raise errors[0]
        if stuck:
            raise DataMPIError(
                f"streaming round {round_no} on worker {self.rank}: A task(s) "
                f"{stuck} still running after the {self.plane_timeout}s "
                f"plane timeout"
            )
        self.shuffle.drop(fwd_plane.plane_id)

    # -- top level ----------------------------------------------------------------------------
    def run(self) -> WorkerMetrics:
        rounds = self.job.rounds if self.bidirectional else 1
        _T.bind(self.rank)
        bind_clock(self.clock)
        # the stack registry is always on (the doctor's pulse stacks work
        # on an unprofiled job); sampling only when profile_hz > 0
        PROFILER.register_thread(self.rank, self.metrics.epoch, self.clock)
        if self.profile_hz > 0:
            PROFILER.acquire(self.profile_hz)
        if _T.enabled:
            self._sample_process()  # the utilization series' first point
        pulse = self._start_pulse()
        try:
            for round_no in range(rounds):
                if self.pipelined:
                    self._run_streaming_round(round_no)
                else:
                    self._run_o_phase(round_no)
                    self._run_a_phase(round_no)
                with phase("communicate"):
                    self.world.barrier()
            self.clock.switch(None)
            self._stop_pulse(pulse)
            self._fold()
            self._report()
            return self.metrics
        finally:
            self._stop_pulse(pulse)
            self._finish_profile()
            bind_clock(None)
            self.shuffle.shutdown()

    def _finish_profile(self) -> None:
        """Stop sampling, hand this rank's profile to the tracer (which
        carries it to the driver's journal with the rank's trace events;
        without tracing there is no journal to hold it), drop
        registrations."""
        try:
            if self.profile_hz > 0:
                PROFILER.release()
                profile = PROFILER.collect(
                    self.rank, self.metrics.epoch, hz=self.profile_hz
                )
                if profile["samples"]:
                    _T.instant("profiler.profile", cat=PROFILE_CAT, args=profile)
        except Exception:  # noqa: BLE001 - profiling must never fail the rank
            _log.exception("failed to hand over profile for rank %d", self.rank)
        finally:
            PROFILER.unregister_thread()
