"""``mpidrun``: the job launcher (§IV-B).

The paper launches applications as::

    $ mpidrun -f hostfile -O n -A m -M mode -jar jarname classname params

Here the equivalent is :func:`mpidrun` (programmatic) and
:func:`parse_mpidrun_command` (the CLI shape, for fidelity and for the
examples).  ``mpidrun`` creates an MPI runtime, runs the driver as a
one-rank world, which spawns the working processes and schedules tasks.

``mpidrun`` is also the supervisor (§IV-E): with ``mpi.d.ft.enabled``
and ``mpi.d.job.max.restarts`` > 0 a failed attempt is automatically
rerun — with exponential backoff, on a fresh runtime, under the same
stable job id so the checkpoint reload path (Figure 13's "Job Reload
Checkpoint") replays every round the previous attempt persisted; a job
that succeeds removes its rounds.  The failure history of all attempts
travels on the returned :class:`~repro.core.metrics.JobResult` as
structured records, and a single task failing
``mpi.d.task.max.attempts`` times stops the retry loop early —
restarting cannot fix a deterministic bug.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shlex
import shutil
import tempfile
import time
from collections import Counter
from typing import Any

from repro.common.errors import (
    FAILURE_KINDS, DataMPIError, FailureRecord, JobFailedError,
)
from repro.core.checkpoint import checkpoint_location, remove_rounds
from repro.core.constants import Mode, MPI_D_Constants as K
from repro.core.job import DataMPIJob
from repro.core.metrics import JobMetrics, JobResult, WorkerMetrics, recovery_counts
from repro.core.modes import profile_for
from repro.core.scheduler import driver_main, merge_reports
from repro.mpi.runtime import BaseRuntime, create_runtime
from repro.mpi.transport import FaultInjector
from repro.common.logging import get_logger
from repro.obs.journal import JournalWriter
from repro.obs.tracer import TRACER as _T

_log = get_logger("core.mpidrun")

#: cap on the exponential restart backoff, seconds
_MAX_BACKOFF = 5.0
#: doublings the backoff may take: the cap wins long before, and a
#: thousand doublings overflow a float
_MAX_DOUBLINGS = 16
#: restart backoff is scaled by a uniform factor in [1-j, 1+j]
_BACKOFF_JITTER = 0.25

#: default cap on working processes (threads on one box)
MAX_DEFAULT_PROCESSES = 8


def default_process_count(job: DataMPIJob, cap: int = MAX_DEFAULT_PROCESSES) -> int:
    """Paper's Figure 4 sizing: enough processes to host the wider side,
    capped so thread counts stay sane on one machine."""
    return max(1, min(max(job.o_tasks, job.a_tasks), cap))


def restart_delay(
    attempt: int,
    backoff: float,
    jitter: float = 0.0,
    rng: "random.Random | None" = None,
) -> float:
    """Backoff before re-running attempt ``attempt + 1``: exponential in
    the attempt number, capped, then scaled by a uniform factor in
    ``[1-jitter, 1+jitter]`` so concurrent supervised jobs sharing a
    machine don't hammer it in lockstep.  Deterministic for a seeded
    ``rng``."""
    delay = min(_MAX_BACKOFF, backoff * 2 ** min(attempt - 1, _MAX_DOUBLINGS))
    if jitter > 0 and delay > 0:
        delay *= (rng or random).uniform(max(0.0, 1.0 - jitter), 1.0 + jitter)
    return delay


class FailureLedger:
    """Every failure of one ``mpidrun`` call, filed once, and the
    restart-or-give-up rule read off what is filed.

    A record reaches mpidrun by one road — whoever detected the failure
    handed it to the attempt's runtime — so nothing is merged or dropped
    here.  Touches no thread, runtime or clock: the rule is tested bare.
    """

    def __init__(self, max_restarts: int, max_task_attempts: int) -> None:
        self.max_restarts = max_restarts
        self.max_task_attempts = max_task_attempts
        #: all attempts' records, in attempt order, each attempt's most
        #: to blame first (:data:`FAILURE_KINDS` order)
        self.records: list[FailureRecord] = []
        #: failed attempts closed so far
        self.attempts = 0
        self._task_failures: Counter[tuple[str, int]] = Counter()
        #: the (phase, task) that used up ``max_task_attempts``, if any
        self.exhausted: tuple[str, int] | None = None

    def close_attempt(
        self, records: list[FailureRecord], exc: BaseException
    ) -> list[FailureRecord]:
        """File what the runtime recorded for an attempt that died on
        ``exc`` (an attempt that left no record gets one ``abort`` made
        of ``exc``); returns the attempt's records, primary first."""
        self.attempts += 1
        filed = sorted(
            records or [FailureRecord(kind="abort", error=repr(exc))],
            key=lambda record: FAILURE_KINDS.index(record.kind),
        )
        for record in filed:
            if record.attempt == 0:
                record.attempt = self.attempts
            if record.kind == "task" and record.task_id >= 0:
                key = (record.phase, record.task_id)
                self._task_failures[key] += 1
                if self._task_failures[key] >= self.max_task_attempts:
                    self.exhausted = key
        self.records.extend(filed)
        return filed

    @property
    def may_restart(self) -> bool:
        """Restarting is within budget and could help: no single task has
        failed ``max_task_attempts`` times (a deterministic bug)."""
        return self.attempts <= self.max_restarts and self.exhausted is None

    def error(self, primary: FailureRecord) -> str:
        """``JobResult.error``: the primary record, and the task that
        exhausted its attempts when that is why the job gave up."""
        if self.exhausted is None:
            return primary.describe()
        phase, task_id = self.exhausted
        return (
            f"{phase} task {task_id} failed "
            f"{self._task_failures[self.exhausted]} attempt(s) "
            f"(mpi.d.task.max.attempts={self.max_task_attempts}): "
            f"{primary.describe()}"
        )


class _TraceSession:
    """The flight recorder's lifecycle around one ``mpidrun`` call.

    Owns the process-wide :data:`~repro.obs.tracer.TRACER` for the
    duration of the job and writes the journal (meta + drained events +
    profiles + driver summary) on close — also on the exception path, so
    a crashed run still leaves a parsable journal prefix for ``repro
    trace``.
    """

    def __init__(self, job: DataMPIJob, conf: Any, nprocs: int) -> None:
        self.job = job
        self.conf = conf
        self.nprocs = nprocs
        self.path = conf.get(K.TRACE_PATH) or os.path.join(
            tempfile.gettempdir(), f"datampi-{job.name}.trace.jsonl"
        )
        self.t0 = time.perf_counter()
        self._closed = False
        _T.enable(job=job.name, nprocs=nprocs, mode=job.mode.value)
        _T.bind(-1)  # the driver/launcher thread

    @staticmethod
    def maybe(job: DataMPIJob, conf: Any, nprocs: int) -> "_TraceSession | None":
        # an explicit journal path implies tracing (the common CLI shape)
        if not (conf.get_bool(K.TRACE_ENABLED) or conf.get(K.TRACE_PATH)):
            return None
        return _TraceSession(job, conf, nprocs)

    def failures(self, records: list[FailureRecord]) -> None:
        for record in records:
            _T.instant(
                f"failure.{record.kind}", cat="failure",
                args=record.as_dict(),
            )

    def restart(self, attempt: int, delay: float) -> None:
        _T.instant(
            "job.restart", cat="failure",
            args={"attempt": attempt, "backoff_seconds": delay},
        )

    def close(
        self,
        result: JobResult | None = None,
        reports: dict[int, WorkerMetrics] | None = None,
    ) -> str:
        if self._closed:
            return self.path
        self._closed = True
        # one tracer on both launchers: a rank process hands its events
        # over as it exits
        events = _T.drain()
        _T.disable()
        # a finished rank hands its sampling profile to the tracer as one
        # record; the journal keeps profiles apart from the timeline
        from repro.obs.profiler import PROFILE_CAT

        profiles = sorted(
            (e["args"] for e in events if e.get("cat") == PROFILE_CAT),
            key=lambda p: (p.get("rank", 0), p.get("epoch", 0)),
        )
        events = [e for e in events if e.get("cat") != PROFILE_CAT]
        summary: dict[str, Any] = {
            "wall_seconds": time.perf_counter() - self.t0,
            "nprocs": self.nprocs,
        }
        if result is not None:
            summary.update(result.metrics.as_dict())
            summary["success"] = result.success
            summary["failures"] = [f.as_dict() for f in result.failures]
        reports = reports or {}
        summary["workers"] = [reports[rank].as_dict() for rank in sorted(reports)]
        with JournalWriter(self.path) as writer:
            writer.write_meta(
                job=self.job.name,
                nprocs=self.nprocs,
                mode=self.job.mode.value,
            )
            writer.write_events(events)
            for profile in profiles:
                writer.write_profile(profile)
            writer.write_summary(summary)
        _log.info("flight-recorder journal written to %s", self.path)
        return self.path


class _TelemetrySession:
    """The live telemetry plane around one ``mpidrun`` call.

    Owns the driver-side :class:`~repro.obs.telemetry.TelemetryHub` and
    the :class:`~repro.rpc.server.SocketRpcServer` that serves it, so a
    concurrent client can scrape per-rank/rollup metrics (Prometheus
    text via ``telemetry_scrape``, structured dicts for ``repro top``)
    *while the job runs*.  The server address is written atomically to
    ``mpi.d.telemetry.endpoint.file`` so clients can find a running job
    without coordination.
    """

    def __init__(self, job: DataMPIJob, conf: Any) -> None:
        from repro.obs.telemetry import TelemetryHub
        from repro.rpc.server import SocketRpcServer

        self.hub = TelemetryHub(job=job.name)
        self.endpoint_file = str(conf.get(K.TELEMETRY_ENDPOINT_FILE) or "")
        self.doctor = None
        self.doctor_path = ""
        self._report: dict | None = None
        self._closed = False
        self.server = None
        target = self.hub.rpc_target()
        if conf.get_bool(K.DOCTOR_ENABLED):
            from repro.obs.doctor import Doctor

            self.doctor = Doctor(
                self.hub, conf.get_float(K.DOCTOR_STALL_SECONDS), job=job.name
            )
            # every record the hub files is one evaluation
            self.hub.watcher = self.doctor.evaluate
            self.doctor_path = str(
                conf.get(K.DOCTOR_PATH)
                or os.path.join(
                    tempfile.gettempdir(), f"datampi-{job.name}.doctor.json"
                )
            )
            target = {**target, **self.doctor.rpc_target()}
        # from here on every failure must tear down what already started,
        # or an aborted launch leaks the server/endpoint file
        try:
            self.server = SocketRpcServer(
                target, num_handlers=2, name=f"telemetry-{job.name}"
            )
            self.server.start()
            if self.endpoint_file:
                import json

                address = self.server.address
                payload = {
                    "address": list(address) if isinstance(address, tuple) else address,
                    "job": job.name,
                    "pid": os.getpid(),
                }
                tmp = f"{self.endpoint_file}.tmp"
                with open(tmp, "w", encoding="utf-8") as f:
                    json.dump(payload, f)
                os.replace(tmp, self.endpoint_file)  # pollers never see a partial file
        except BaseException:
            self.close()
            raise
        _log.info("telemetry endpoint: %r", self.server.address)

    @staticmethod
    def maybe(job: DataMPIJob, conf: Any) -> "_TelemetrySession | None":
        # the doctor needs the live plane, so enabling it implies one
        if not (
            conf.get_bool(K.TELEMETRY_ENABLED)
            or conf.get_bool(K.DOCTOR_ENABLED)
        ):
            return None
        return _TelemetrySession(job, conf)

    def close(self) -> dict | None:
        """Run the doctor's final evaluation, write its report, stop the
        server, remove the endpoint file.

        Idempotent, and ordered so the endpoint file goes away on *every*
        exit path — even when the doctor or the server's stop raises —
        because a stale endpoint file points the next ``repro top`` at a
        dead socket.  Returns the final doctor report (None = no doctor).
        """
        if self._closed:
            return self._report
        self._closed = True
        try:
            if self.doctor is not None:
                try:
                    self.doctor.evaluate()
                except Exception:  # noqa: BLE001 - a report beats a perfect one
                    _log.exception("doctor: final evaluation failed")
                try:
                    self._report = self.doctor.report()
                    if self.doctor_path:
                        self.doctor.write_report(self.doctor_path)
                        _log.info("doctor report written to %s", self.doctor_path)
                except Exception:  # noqa: BLE001 - diagnosis never blocks teardown
                    _log.exception("doctor teardown failed")
        finally:
            try:
                if self.server is not None:
                    self.server.stop()
            except Exception:  # noqa: BLE001 - teardown must finish
                _log.exception("telemetry server stop failed")
            finally:
                if self.endpoint_file:
                    try:
                        os.unlink(self.endpoint_file)  # no stale pointers
                    except OSError:
                        pass
        return self._report


def mpidrun(
    job: DataMPIJob,
    nprocs: int | None = None,
    timeout: float = 300.0,
    raise_on_error: bool = False,
    fault_injector: FaultInjector | None = None,
) -> JobResult:
    """Run ``job`` on ``nprocs`` working processes; returns a JobResult.

    Failures (including injected crashes) are reported in the result by
    default; pass ``raise_on_error=True`` to get them raised instead, as
    one :class:`~repro.common.errors.JobFailedError` whose ``failures``
    is what ``JobResult.failures`` would have held.
    With fault tolerance enabled and ``mpi.d.job.max.restarts`` > 0 the
    job is automatically rerun after a failure (checkpointed rounds
    reload on re-execution), so a single call rides out transient
    crashes.  ``fault_injector`` installs transport chaos
    (:class:`~repro.mpi.transport.FaultInjector`) on every attempt's
    runtime — rule hit counters persist across restarts, so bounded
    faults heal.
    """
    job.validate()
    nprocs = nprocs or default_process_count(job)
    if nprocs < 1:
        raise DataMPIError("need at least one working process")
    conf = profile_for(job.mode, job.conf)
    launcher = conf.get_str(K.LAUNCHER)
    ft_enabled = conf.get_bool(K.FT_ENABLED)
    max_restarts = conf.get_int(K.JOB_MAX_RESTARTS) if ft_enabled else 0
    ledger = FailureLedger(max_restarts, max(1, conf.get_int(K.TASK_MAX_ATTEMPTS)))
    backoff = conf.get_float(K.RESTART_BACKOFF_SECONDS)
    max_respawns = conf.get_int(K.RANK_MAX_RESPAWNS)
    redelivery_bytes = conf.get_bytes(K.RANK_REDELIVERY_BYTES)
    start = time.perf_counter()
    trace = _TraceSession.maybe(job, conf, nprocs)
    telemetry = _TelemetrySession.maybe(job, conf)
    result: JobResult | None = None
    reports: dict[int, WorkerMetrics] = {}
    #: JobMetrics' recovery fields, summed over every attempt's runtime
    recovery: dict[str, int] = {}

    def add_recovery(runtime: BaseRuntime) -> None:
        for name, count in recovery_counts(runtime).items():
            recovery[name] = recovery.get(name, 0) + count

    # spill files go under mpi.d.local.dir; a job that names none gets a
    # scratch directory for the length of this call.  mpidrun owns it, not
    # the ranks: a SIGKILLed rank cannot clean up after itself
    scratch = (
        None if conf.get(K.LOCAL_DIR)
        else tempfile.mkdtemp(prefix=f"datampi-{job.name}-")
    )
    try:
        while True:
            attempt = ledger.attempts + 1
            extra_conf: dict[str, Any] = {}
            if scratch is not None:
                extra_conf[K.LOCAL_DIR] = scratch
            attempt_job = dataclasses.replace(
                job, conf={**dict(job.conf or {}), **extra_conf}
            )
            runtime = create_runtime(launcher, fault_injector=fault_injector)
            if max_respawns > 0:
                runtime.enable_rank_recovery(max_respawns, redelivery_bytes)
            try:
                reports = runtime.run(
                    driver_main, 1,
                    args=(attempt_job, nprocs, attempt,
                          telemetry.hub if telemetry is not None else None),
                    timeout=timeout, name="mpidrun",
                )[0]
            except Exception as exc:  # noqa: BLE001 - folded into the JobResult
                add_recovery(runtime)
                attempt_failures = ledger.close_attempt(runtime.failure_records, exc)
                if trace is not None:
                    trace.failures(attempt_failures)
                if ledger.may_restart:
                    delay = restart_delay(attempt, backoff, _BACKOFF_JITTER)
                    _log.warning(
                        "job %s attempt %d failed (%s); restarting in %.2fs "
                        "(%d restart(s) left)",
                        job.name, attempt, attempt_failures[0].describe(),
                        delay, max_restarts - attempt + 1,
                    )
                    if trace is not None:
                        trace.restart(attempt + 1, delay)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                error = ledger.error(attempt_failures[0])
                if raise_on_error:
                    raise JobFailedError(error, ledger.records) from exc
                result = JobResult(
                    name=job.name,
                    success=False,
                    error=error,
                    failures=list(ledger.records),
                    metrics=JobMetrics(restarts=attempt - 1, **recovery),
                )
                break
            add_recovery(runtime)
            if ft_enabled:
                # a failed attempt keeps its rounds for the rerun; a
                # finished job's would replay into the next of its name
                remove_rounds(os.path.join(*checkpoint_location(conf, job.name)))
            metrics = dataclasses.replace(
                merge_reports(reports),
                duration=time.perf_counter() - start,
                restarts=attempt - 1,
                **recovery,
            )
            if metrics.respawns:
                _log.info(
                    "job %s survived %d surgical rank respawn(s) "
                    "(%d frame(s) redelivered, %d zombie frame(s) fenced)",
                    job.name, metrics.respawns, metrics.redelivered_frames,
                    metrics.stale_frames_dropped,
                )
            if attempt > 1:
                _log.info(
                    "job %s recovered after %d restart(s), %d record(s) "
                    "reloaded from checkpoints",
                    job.name, attempt - 1, metrics.reloaded_records,
                )
            result = JobResult(
                name=job.name,
                success=True,
                metrics=metrics,
                failures=list(ledger.records),
            )
            break
    finally:
        if telemetry is not None:
            doctor_report = telemetry.close()
            if result is not None and doctor_report is not None:
                result.doctor = doctor_report
                result.doctor_path = telemetry.doctor_path
        if trace is not None:
            path = trace.close(result, reports)
            if result is not None:
                result.trace_path = path
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return result


_MODE_NAMES = {mode.value: mode for mode in Mode}


def parse_mpidrun_command(command: str) -> dict[str, Any]:
    """Parse the paper's CLI shape into launch options.

    >>> parse_mpidrun_command(
    ...     "mpidrun -f hosts -O 4 -A 2 -M mapreduce -jar app.jar Sort x y")
    ... # doctest: +NORMALIZE_WHITESPACE
    {'hostfile': 'hosts', 'o_tasks': 4, 'a_tasks': 2,
     'mode': <Mode.MAPREDUCE: 'mapreduce'>, 'jar': 'app.jar',
     'classname': 'Sort', 'params': ['x', 'y']}
    """
    tokens = shlex.split(command)
    if not tokens or tokens[0] != "mpidrun":
        raise DataMPIError("command must start with 'mpidrun'")
    options: dict[str, Any] = {
        "hostfile": None,
        "o_tasks": None,
        "a_tasks": None,
        "mode": Mode.COMMON,
        "jar": None,
        "classname": None,
        "params": [],
    }
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok == "-f":
            options["hostfile"] = tokens[i + 1]
            i += 2
        elif tok == "-O":
            options["o_tasks"] = int(tokens[i + 1])
            i += 2
        elif tok == "-A":
            options["a_tasks"] = int(tokens[i + 1])
            i += 2
        elif tok == "-M":
            mode_name = tokens[i + 1].lower()
            if mode_name not in _MODE_NAMES:
                raise DataMPIError(f"unknown mode {tokens[i + 1]!r}")
            options["mode"] = _MODE_NAMES[mode_name]
            i += 2
        elif tok == "-jar":
            options["jar"] = tokens[i + 1]
            if i + 2 < len(tokens):
                options["classname"] = tokens[i + 2]
                options["params"] = tokens[i + 3 :]
            i = len(tokens)
        else:
            raise DataMPIError(f"unknown mpidrun flag {tok!r}")
    if options["o_tasks"] is None or options["a_tasks"] is None:
        raise DataMPIError("mpidrun requires -O and -A task counts")
    return options
