"""MPI runtimes: rank launchers over a pluggable transport.

Two rank substrates implement the same contract:

* :class:`ThreadRuntime` (the historical ``MPIRuntime``) plays
  ``mpiexec`` inside one interpreter: one endpoint and one thread per
  rank, messages move through :class:`~repro.mpi.transport.LocalTransport`
  with zero copies.
* :class:`ProcessRuntime` runs *spawned* worlds as one OS process per
  rank (paper §IV-B: mpidrun launches real working processes), connected
  to a driver-side router over local sockets
  (:mod:`repro.mpi.socket_transport`).  The initial world — mpidrun's
  single driver rank — still runs in-process; ``Intracomm.spawn`` is
  what crosses the process boundary.

Pick one with :func:`create_runtime` (``mpi.d.launcher=threads|processes``).

Failure semantics match a batch MPI job on both backends: the first rank
to raise trips a runtime-wide abort, every peer blocked in an MPI call
raises :class:`~repro.common.errors.MPIAbort`, and :meth:`BaseRuntime.run`
re-raises the original error.  Every detected failure — a rank thread
dying, a worker process exiting without a goodbye, an explicit abort, a
rank outliving the runtime timeout — is captured as a structured
:class:`~repro.common.errors.FailureRecord` in
:attr:`BaseRuntime.failure_records` so supervisors can report a precise
cause instead of a bare timeout.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
import traceback as traceback_mod
from typing import Any, Callable

from repro.common.errors import FailureRecord, MPIAbort, MPIError
from repro.mpi.comm import Intracomm
from repro.mpi.intercomm import Intercomm
from repro.mpi.transport import (
    AbortFlag,
    Endpoint,
    Envelope,
    FaultInjector,
    LocalTransport,
    Transport,
)

#: contexts are allocated in blocks of 4:
#: +0 p2p, +1 collective, +2 merged-p2p, +3 merged-collective
_CONTEXT_STRIDE = 4


class _RankThread(threading.Thread):
    """One MPI rank."""

    def __init__(
        self,
        runtime: "BaseRuntime",
        comm: Intracomm,
        fn: Callable[..., Any],
        args: tuple,
        name: str,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.runtime = runtime
        self.comm = comm
        self.fn = fn
        self.args = args
        self.result: Any = None

    def run(self) -> None:
        try:
            self.result = self.fn(self.comm, *self.args)
        except MPIAbort:
            # a peer failed first; stay quiet, the original error is recorded
            pass
        except BaseException as exc:  # noqa: BLE001 - must catch to abort peers
            self.runtime.record_error(self.comm, exc)


def rank_comm(
    runtime: "BaseRuntime",
    world_context: int,
    group: tuple[int, ...],
    rank: int,
    name: str,
    parent: tuple[tuple[int, ...], int] | None = None,
) -> Intracomm:
    """The world communicator of one rank, on whichever substrate runs
    it; ``parent`` is (parent_group, inter_context) of a spawned world."""
    comm = Intracomm(runtime, world_context, group, rank, name=name)
    if parent is not None:
        parent_group, inter_context = parent
        comm.parent = Intercomm(
            runtime,
            inter_context,
            local_group=group,
            remote_group=parent_group,
            rank=rank,
            side=1,
            name=f"{name}.parent",
        )
    return comm


class BaseRuntime:
    """Rank registry, context allocation, abort + failure bookkeeping.

    This class is the whole contract between a runtime and the layers
    above it (communicators, ``repro.core``, ``repro.obs``): whatever
    they may read or call is declared here with the thread-backend
    behaviour, and a backend overrides only what differs for it.
    Subclasses choose the transport (:meth:`_make_transport`) and how
    spawned worlds execute (:meth:`launch_children`)."""

    #: the ``mpi.d.launcher`` value this runtime answers to
    launcher = "abstract"

    # -- what a rank may ask about itself --------------------------------------
    #: incarnation of the rank this runtime serves: 0 for a first life,
    #: bumped each time the driver respawns the rank in place
    rank_epoch = 0
    #: surgical rank recovery armed for this rank's world (receivers then
    #: stage shuffle streams)
    rank_recovery = False

    # -- what the driver may ask about the job ----------------------------------
    #: rank-recovery counters (:func:`repro.core.metrics.recovery_counts`)
    respawns = 0
    redelivered_frames = 0
    stale_frames_dropped = 0

    def __init__(self, fault_injector: FaultInjector | None = None) -> None:
        self._lock = threading.Lock()
        self._next_global = 0
        self._next_context = 0
        self._threads: list[_RankThread] = []
        self._errors: list[BaseException] = []
        self._failure_records: list[FailureRecord] = []
        self.fault_injector = fault_injector
        self.abort_flag = AbortFlag()
        self._transport = self._make_transport()

    def _make_transport(self) -> Transport:
        return LocalTransport(self.abort_flag, self.fault_injector)

    @property
    def transport(self) -> Transport:
        return self._transport

    # -- surgical rank recovery (a no-op without respawnable ranks) -------------
    def enable_rank_recovery(
        self, max_respawns: int, redelivery_bytes: int
    ) -> None:
        """Arm rank-level recovery.  Thread ranks share the driver's
        fate, so there is nothing to respawn: a rank failure takes the
        whole-job restart path."""

    def pending_respawns(self) -> list[int]:
        """Drain the global ranks awaiting a respawn (driver loop)."""
        return []

    def respawn_rank(self, gid: int) -> int | None:
        """Replace dead rank ``gid`` in place; returns its new epoch, or
        ``None`` when it is not surgically recoverable (the caller
        degrades to the whole-job restart path)."""
        return None

    # -- registry -------------------------------------------------------------
    def mailbox(self, global_rank: int) -> Endpoint:
        """The local mailbox of ``global_rank`` (receive side)."""
        return self._transport.mailbox(global_rank)

    def deposit(self, dest: int, envelope: Envelope) -> None:
        """Deliver ``envelope`` to global rank ``dest`` via the transport."""
        self._transport.deposit(dest, envelope)

    def allocate_context(self) -> int:
        """A fresh context block (thread-safe, globally unique)."""
        with self._lock:
            context = self._next_context
            self._next_context += _CONTEXT_STRIDE
            return context

    def _allocate_ranks(self, n: int, register: bool = True) -> tuple[int, ...]:
        with self._lock:
            start = self._next_global
            self._next_global += n
            ids = tuple(range(start, start + n))
        if register:
            for gid in ids:
                self._transport.register(gid)
        return ids

    # -- error handling ----------------------------------------------------------
    def record_error(self, comm: Intracomm, exc: BaseException) -> None:
        """A rank died on ``exc``: capture it and abort the world."""
        self._capture_error(comm, exc)
        self.abort(f"rank {comm.rank} of {comm.name}: {exc!r}", record=False)

    def _capture_error(
        self, comm: Intracomm, exc: BaseException
    ) -> list[FailureRecord]:
        """File ``exc`` and a structured failure record for it (or the
        records the exception already carries); returns the records."""
        carried = getattr(exc, "failures", None)
        if carried:
            records = list(carried)
        else:
            records = [
                FailureRecord(
                    kind="rank",
                    worker=comm.rank,
                    where=comm.name,
                    error=repr(exc),
                    traceback=traceback_mod.format_exc(),
                )
            ]
        with self._lock:
            self._errors.append(exc)
            self._failure_records.extend(records)
        return records

    def record_failure(self, record: FailureRecord) -> None:
        with self._lock:
            self._failure_records.append(record)

    def record_remote_error(
        self, exc: BaseException | None, reason: str
    ) -> None:
        """A rank in another process died; its records are already
        captured.  Adopt the original exception when it survived the wire
        so :meth:`run` re-raises it exactly like a thread-backend failure."""
        if exc is not None:
            with self._lock:
                self._errors.append(exc)
        self.abort(reason, record=False)

    def abort(self, reason: str, errorcode: int = 1, record: bool = True) -> None:
        if record and not self.abort_flag.is_set():
            self.record_failure(FailureRecord(kind="abort", error=reason))
        self.abort_flag.trip(reason, errorcode)

    @property
    def errors(self) -> list[BaseException]:
        return list(self._errors)

    @property
    def failure_records(self) -> list[FailureRecord]:
        with self._lock:
            return list(self._failure_records)

    # -- launching ------------------------------------------------------------
    def _start_world(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple,
        name: str,
        parent: tuple[tuple[int, ...], int] | None = None,
    ) -> tuple[tuple[int, ...], list[_RankThread]]:
        """Create endpoints + threads for an in-process world; returns
        (group, threads).  ``parent`` is (parent_group, inter_context)
        when this world is spawned."""
        group = self._allocate_ranks(nprocs)
        world_context = self.allocate_context()
        threads = []
        for rank in range(nprocs):
            comm = rank_comm(self, world_context, group, rank, name, parent)
            thread = _RankThread(self, comm, fn, args, f"{name}[{rank}]")
            threads.append(thread)
        with self._lock:
            self._threads.extend(threads)
        for thread in threads:
            thread.start()
        return group, threads

    def launch_children(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple,
        parent_group: tuple[int, ...],
        name: str,
    ) -> tuple[tuple[int, ...], int]:
        """Spawn a child world (used by ``Intracomm.spawn``)."""
        inter_context = self.allocate_context()
        group, _ = self._start_world(
            fn, nprocs, args, name, parent=(parent_group, inter_context)
        )
        return group, inter_context

    def _rank_carriers(self) -> list[tuple[Any, int]]:
        """``(carrier, world-local rank)`` for every rank launched so far
        (lock held).  A carrier is what runs the rank — a thread here, a
        ``multiprocessing.Process`` on the process backend; the join loop
        needs only ``join``/``is_alive``/``name`` of it."""
        return [(thread, thread.comm.rank) for thread in self._threads]

    def _joined(self, carrier: Any) -> None:
        """Hook: ``carrier`` was joined, or outlived even the abort."""
        if carrier.is_alive():
            raise MPIError(f"rank thread {carrier.name} hung past abort")

    def run(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple = (),
        timeout: float | None = 300.0,
        name: str = "world",
    ) -> list[Any]:
        """Run ``fn(comm, *args)`` on ``nprocs`` ranks; return results in
        rank order.  Waits for spawned child worlds too."""
        _, world_threads = self._start_world(fn, nprocs, args, name)
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            # join until the carrier set is stable (spawn and respawn add
            # carriers while we wait)
            joined: set[int] = set()
            while True:
                with self._lock:
                    pending = [
                        c for c in self._rank_carriers() if id(c[0]) not in joined
                    ]
                if not pending:
                    break
                for carrier, rank in pending:
                    remaining = None
                    if deadline is not None:
                        remaining = max(0.0, deadline - time.monotonic())
                    carrier.join(remaining)
                    if carrier.is_alive():
                        self.record_failure(
                            FailureRecord(
                                kind="timeout",
                                worker=rank,
                                where=carrier.name,
                                error=(
                                    f"rank {carrier.name} still running "
                                    f"after the {timeout}s runtime timeout"
                                ),
                            )
                        )
                        self.abort(
                            f"runtime timeout: {carrier.name} still running",
                            errorcode=2,
                            record=False,
                        )
                        carrier.join(5.0)
                    self._joined(carrier)
                    joined.add(id(carrier))
        finally:
            self._transport.shutdown()
        if self._errors:
            raise self._errors[0]
        if self.abort_flag.is_set():
            raise MPIAbort(self.abort_flag.errorcode, self.abort_flag.reason)
        return [t.result for t in world_threads]


class ThreadRuntime(BaseRuntime):
    """Thread-per-rank over the zero-copy in-process transport."""

    launcher = "threads"


#: historical name — the thread backend was the only runtime before the
#: transport split, and most callers/tests construct it under this name
MPIRuntime = ThreadRuntime


class ProcessRuntime(BaseRuntime):
    """Process-per-rank: spawned worlds fork one OS process per rank.

    The initial world (mpidrun's driver rank) runs in-process and doubles
    as the message router; ``Intracomm.spawn`` forks worker processes
    that connect back over a local socket
    (:class:`repro.mpi.socket_transport.RouterTransport`).  Job closures
    (o_fn/a_fn, partitioners) are inherited by the forked children and
    never pickled; only envelopes crossing the wire are.
    """

    launcher = "processes"

    def __init__(self, fault_injector: FaultInjector | None = None) -> None:
        self._procs: list[tuple[Any, Any]] = []  # (Process, WorkerSpec)
        self.respawns = 0
        self._respawn_queue: list[int] = []
        super().__init__(fault_injector)
        if fault_injector is not None:
            # let kill_rank rules SIGKILL the victim's worker process
            fault_injector.kill_callback = self._kill_rank_process

    def _make_transport(self) -> Transport:
        from repro.mpi.socket_transport import RouterTransport

        return RouterTransport(self)

    # -- surgical rank recovery ----------------------------------------------
    @property
    def redelivered_frames(self) -> int:
        return self._transport.redelivered_frames

    @property
    def stale_frames_dropped(self) -> int:
        return self._transport.stale_frames_dropped

    @property
    def rank_recovery_enabled(self) -> bool:
        """Surgical rank recovery is armed (``enable_rank_recovery``)."""
        return self._transport.max_respawns > 0

    def enable_rank_recovery(
        self, max_respawns: int, redelivery_bytes: int
    ) -> None:
        """Arm rank-level recovery: a worker-process death respawns only
        that rank (up to ``max_respawns`` times per rank) instead of
        aborting the world."""
        self._transport.max_respawns = max(0, int(max_respawns))
        self._transport.redelivery_cap = int(redelivery_bytes)

    def request_rank_respawn(self, gid: int) -> None:
        """Router callback (reader thread): queue a dead rank for the
        driver loop to respawn."""
        with self._lock:
            if gid not in self._respawn_queue:
                self._respawn_queue.append(gid)

    def pending_respawns(self) -> list[int]:
        with self._lock:
            pending, self._respawn_queue = self._respawn_queue, []
            return pending

    def respawn_rank(self, gid: int) -> int | None:
        from repro.mpi.socket_transport import fork_worker

        with self._lock:
            spec = next(
                (s for _, s in reversed(self._procs) if s.gid == gid), None
            )
        verdict = None if spec is None else self._transport.respawn(gid)
        if verdict is None:
            return None
        epoch, old_pid = verdict
        # make sure the old incarnation is dead before its successor
        # speaks — its connection no longer holds the rank regardless
        _sigkill(old_pid)
        launched = fork_worker(dataclasses.replace(spec, epoch=epoch))
        with self._lock:
            self._procs.append(launched)
        self.respawns += 1
        return epoch

    def _kill_rank_process(self, gid: int) -> bool:
        """FaultInjector ``kill_rank`` hook: SIGKILL the process hosting
        global rank ``gid`` (a real, uncooperative death)."""
        rank = self._transport.ranks.get(gid)
        return _sigkill(rank.pid if rank is not None else None)

    def launch_children(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple,
        parent_group: tuple[int, ...],
        name: str,
    ) -> tuple[tuple[int, ...], int]:
        """Fork one worker process per rank of the spawned world."""
        from repro.mpi.socket_transport import WorkerSpec, fork_worker

        inter_context = self.allocate_context()
        world_context = self.allocate_context()
        group = self._allocate_ranks(nprocs, register=False)
        self._transport.expect(group, name, world_context)
        launched = [
            fork_worker(
                WorkerSpec(
                    address=self._transport.address,
                    gid=gid,
                    group=group,
                    rank=rank,
                    world_context=world_context,
                    parent_group=tuple(parent_group),
                    inter_context=inter_context,
                    fn=fn,
                    args=tuple(args),
                    world_name=name,
                    chaos_routed=self.fault_injector is not None,
                    recovery=self.rank_recovery_enabled,
                ),
            )
            for rank, gid in enumerate(group)
        ]
        with self._lock:
            self._procs.extend(launched)
        return group, inter_context

    def _rank_carriers(self) -> list[tuple[Any, int]]:
        return super()._rank_carriers() + [
            (proc, spec.rank) for proc, spec in self._procs
        ]

    def _joined(self, carrier: Any) -> None:
        with self._lock:
            spec = next((s for p, s in self._procs if p is carrier), None)
        if spec is None:  # the driver's rank thread
            super()._joined(carrier)
        elif carrier.is_alive():
            carrier.terminate()
            carrier.join(2.0)
        elif carrier.exitcode not in (0, None):
            self._transport.reaped(spec.gid, carrier.exitcode)


def _sigkill(pid: int | None) -> bool:
    """SIGKILL a worker process; False when there was nothing to kill."""
    if pid is None or pid == os.getpid():
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def runtime_class(launcher: str) -> type[BaseRuntime]:
    """The runtime class an ``mpi.d.launcher`` value selects."""
    if launcher == "threads":
        return ThreadRuntime
    if launcher == "processes":
        return ProcessRuntime
    raise MPIError(
        f"unknown launcher {launcher!r}; use 'threads' or 'processes'"
    )


def create_runtime(
    launcher: str = "threads",
    fault_injector: FaultInjector | None = None,
) -> BaseRuntime:
    """The runtime for an ``mpi.d.launcher`` value."""
    return runtime_class(launcher)(fault_injector)


def run_world(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = 300.0,
) -> list[Any]:
    """Convenience: run one SPMD function on a fresh runtime.

    >>> def main(comm):
    ...     return comm.allreduce(comm.rank, SUM)
    >>> run_world(4, main)
    [6, 6, 6, 6]
    """
    return MPIRuntime().run(fn, nprocs, args=tuple(args), timeout=timeout)
