"""Reserved configuration keys and modes (paper Table I, §III-A).

``MPI_D_Constants`` mirrors the Java binding's constants class used in
Listing 1 (``MPI_D_Constants.KEY_CLASS`` etc.).  Every tunable the
DataMPI engine reads is named here so profiles, tests and user code share
one vocabulary; their defaults are one table in :mod:`repro.core.modes`.
"""

from __future__ import annotations

from enum import Enum


class Mode(Enum):
    """The four diversified communication modes (§II-A, §III-A)."""

    #: SPMD-style programming and execution, like traditional MPI programs
    COMMON = "common"
    #: MPMD-style MapReduce applications (sorted, one-way exchange)
    MAPREDUCE = "mapreduce"
    #: iterative computations (bi-directional, multiple rounds)
    ITERATION = "iteration"
    #: real-time data streams (unsorted, pipelined delivery)
    STREAMING = "streaming"


class MPI_D_Constants:
    """Reserved configuration keys."""

    # -- serialization (the two keys shown in the paper) -----------------------
    KEY_CLASS = "mpi.d.key.class"
    VALUE_CLASS = "mpi.d.value.class"
    #: serializer backend: "writable" | "pickle"
    SERIALIZER = "mpi.d.serializer"

    # -- buffer management (§IV-D) ---------------------------------------------
    #: flush threshold per send-partition, bytes
    SPL_PARTITION_BYTES = "mpi.d.spl.partition.bytes"
    #: inert: a partition is merged once, when read or before a spill, so no
    #: block count triggers anything.  Kept (with its profile default) only
    #: because the frozen ``bench/replay.py`` reads it; delete both with
    #: the next benchmark revision
    MERGE_THRESHOLD_BLOCKS = "mpi.d.merge.threshold.blocks"
    #: memory budget for cached intermediate data per process, bytes;
    #: beyond it, merged runs spill to disk (§V-E)
    MEMORY_CACHE_BYTES = "mpi.d.memory.cache.bytes"
    #: directory for spill files (defaults to a temp dir)
    LOCAL_DIR = "mpi.d.local.dir"
    #: sender-side coalescing cap: blocks bound for one destination ride in
    #: a single MPI envelope until the batch reaches this many bytes
    SHUFFLE_BATCH_BYTES = "mpi.d.shuffle.batch.bytes"
    #: raw record batches: keys/values are the application's own bytes,
    #: framed without serializer tags (TeraSort-style byte workloads)
    SHUFFLE_RAW = "mpi.d.shuffle.raw.bytes"

    # -- semantics toggles (mode profile defaults) --------------------------------
    #: sort key-value pairs by key during the exchange
    SORT = "mpi.d.sort"
    #: deliver pairs as they arrive instead of after the O phase
    PIPELINED_DELIVERY = "mpi.d.pipelined.delivery"

    # -- fault tolerance (§IV-E) ----------------------------------------------
    #: enable the key-value library-level checkpoint
    FT_ENABLED = "mpi.d.ft.enabled"
    #: records per checkpoint round
    FT_INTERVAL_RECORDS = "mpi.d.ft.interval.records"
    #: checkpoint directory (must survive restarts)
    FT_DIR = "mpi.d.ft.dir"
    #: stable job id, so a restart finds its checkpoints
    JOB_ID = "mpi.d.job.id"

    # -- supervision (automatic detect -> abort -> resume) -----------------------
    #: with FT enabled, mpidrun reruns a failed job up to this many times
    #: (0 = report the failure to the caller, the pre-supervision behaviour)
    JOB_MAX_RESTARTS = "mpi.d.job.max.restarts"
    #: give up once any single task has failed this many attempts
    TASK_MAX_ATTEMPTS = "mpi.d.task.max.attempts"
    #: base of the exponential backoff between restarts, seconds
    RESTART_BACKOFF_SECONDS = "mpi.d.restart.backoff.seconds"
    #: a worker silent this long is declared lost (<= 0 disables detection);
    #: workers beat thirty times per deadline
    HEARTBEAT_DEADLINE_SECONDS = "mpi.d.heartbeat.deadline.seconds"
    #: shuffle-plane completion timeout, seconds
    PLANE_TIMEOUT_SECONDS = "mpi.d.plane.timeout.seconds"

    # -- surgical rank recovery (process backend) ---------------------------------
    #: respawn a dead rank in place up to this many times per rank per
    #: attempt before degrading to the whole-job restart path (0 = off,
    #: every rank death aborts the world as before)
    RANK_MAX_RESPAWNS = "mpi.d.rank.max.respawns"
    #: cap on the driver-side redelivery buffer per rank, bytes; overflow
    #: marks the rank surgically unrecoverable (its death then degrades
    #: to a whole-job restart)
    RANK_REDELIVERY_BYTES = "mpi.d.rank.redelivery.bytes"

    # -- launcher -------------------------------------------------------------------
    #: rank substrate: "threads" (in-process, zero-copy) or "processes"
    #: (one OS process per rank over the socket router — real parallelism)
    LAUNCHER = "mpi.d.launcher"

    # -- observability (flight recorder) -------------------------------------------
    #: record spans/instants/counters into a per-job JSONL journal
    TRACE_ENABLED = "mpi.d.trace.enabled"
    #: journal path (defaults to <job>.trace.jsonl in the local dir);
    #: setting it implies TRACE_ENABLED
    TRACE_PATH = "mpi.d.trace.path"

    # -- live telemetry plane ------------------------------------------------------
    #: ship per-rank metrics records to the driver's TelemetryHub
    #: while the job runs (served over a SocketRpcServer for `repro top`
    #: and Prometheus scrapes)
    TELEMETRY_ENABLED = "mpi.d.telemetry.enabled"
    #: record shipping period per rank, seconds
    TELEMETRY_INTERVAL_SECONDS = "mpi.d.telemetry.interval.seconds"
    #: write the hub's RPC endpoint address to this file so concurrent
    #: clients (`repro top`, scrapers) can find a running job
    TELEMETRY_ENDPOINT_FILE = "mpi.d.telemetry.endpoint.file"

    # -- sampling profiler ---------------------------------------------------------
    #: sample every rank's call stacks at this rate, Hz, while the job
    #: runs (0 = off; collapsed stacks land in the trace journal, `repro
    #: flame` renders them)
    PROFILE_HZ = "mpi.d.profile.hz"

    # -- doctor (automatic diagnosis) ----------------------------------------------
    #: run the driver-side diagnosis engine: watch telemetry rollups for
    #: stall signatures, auto-capture all-rank stack dumps, and write a
    #: ranked doctor.json report (implies live telemetry)
    DOCTOR_ENABLED = "mpi.d.doctor.enabled"
    #: seconds a live rank may go without progress (busy-phase time or a
    #: counter advancing) before it is declared stalled and an all-rank
    #: stack capture fires
    DOCTOR_STALL_SECONDS = "mpi.d.doctor.stall.seconds"
    #: where to write the doctor.json report (default: temp dir)
    DOCTOR_PATH = "mpi.d.doctor.path"

    # -- failure injection (testing) ----------------------------------------------
    #: crash the job after this many total emitted records (-1 = never)
    INJECT_CRASH_AFTER_RECORDS = "mpi.d.inject.crash.after.records"
    #: rank of the O task that crashes (with the above), on the job's first
    #: attempt only, so an automatic restart recovers
    INJECT_CRASH_TASK = "mpi.d.inject.crash.task"


#: internal shuffle tag on the worker world communicator
SHUFFLE_TAG = 900_001
#: control-protocol tag on the driver<->worker intercommunicator
CONTROL_TAG = 900_002
