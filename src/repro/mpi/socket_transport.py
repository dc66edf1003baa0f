"""Process-per-rank transport: a driver-side router + socket workers.

Topology is a star (paper §IV-B: every working process is connected to
mpidrun): the :class:`ProcessRuntime` hosts a
:class:`RouterTransport` — a :class:`~repro.net.wire.FrameServer` plus a
gid→connection routing table — and every spawned rank runs in its own
OS process holding one :class:`~repro.mpi.transport.Endpoint` and a
single connection back to the router.

Semantics are those of the threaded backend, preserved deliberately:

* **Matching** — the matching engine *is* the same :class:`Endpoint`
  class; only delivery differs.  An envelope is rebuilt in the
  destination process, so its ``seq`` reflects local arrival order and
  wildcard receives see the same ordering rules as in-process mail.
* **Non-overtaking** — frames from one process travel one socket in FIFO
  order and are forwarded by a single reader thread, so messages between
  any (sender, receiver) pair never overtake.
* **Fault injection** — the canonical :class:`FaultInjector` lives in
  the driver process and is applied at the router for every wire hop
  (and by ``Transport.deposit`` for driver-local traffic), so rule
  hit counts and audit events stay observable to the chaos tests exactly
  as on the threaded backend.  When an injector is installed, workers
  route even self-sends through the router so the injector sees the same
  traffic it would see with threads.
* **Abort wakes everyone** — an abort broadcasts ABORT frames to every
  worker (bypassing injection: even a severed rank must unwind) and
  wakes all local endpoints.
* **Failure capture** — a worker that dies on an exception hands the
  router its :class:`FailureRecord`\\ s (``rank_failed``) when it can; a
  connection that drops without a BYE is recorded as a rank failure and
  aborts the world, so a SIGKILL'd worker surfaces as structured
  evidence, not a hang.
* **Surgical rank recovery** — with ``mpi.d.rank.max.respawns > 0`` the
  router does better than aborting: a no-goodbye disconnect marks the
  rank *recovering*, the runtime forks a replacement with an incremented
  **rank epoch**, and the reincarnation's HELLO replays that rank's
  worker-world traffic from a byte-capped per-rank **redelivery log**
  (shuffle batches its first life received but took to the grave; the
  log is released at BYE).  The router knows an incarnation by its
  connection: a respawn takes the rank's connection away, so a zombie —
  a rank declared dead that is still limping — has its frames fenced at
  the hub (``stale_frames_dropped``) instead of corrupting its
  successor's streams.  Budget exhaustion or log overflow degrades to
  the whole-job abort/restart path.  What an event in a rank's life
  means is decided by its :class:`_Rank` record alone.

Payloads are pickled only at the wire boundary
(:func:`repro.net.wire.encode_payload`); workers are forked, so job
closures reach them by inheritance, never by pickle.

Both ends implement the one runtime contract
(:class:`~repro.mpi.runtime.BaseRuntime`): :class:`WorkerRuntime` is a
``BaseRuntime`` whose transport is a :class:`WorkerTransport` and which
overrides only the calls that have to cross the wire — each forwarded by
name as an ``RPC_REQ`` frame carrying a :class:`~repro.rpc.protocol.RpcCall`
(``call_id`` 0: no reply wanted), which the router dispatches to
:attr:`RouterTransport.calls` through the RPC layer's
:class:`~repro.rpc.server.HandlerRegistry`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
import threading
from concurrent import futures
from dataclasses import dataclass, field, replace
from time import monotonic as _now
from typing import Any, Callable

from repro.common.errors import FailureRecord, MPIAbort, MPIError
from repro.common.logging import get_logger
from repro.mpi.comm import Intracomm
from repro.mpi.runtime import _CONTEXT_STRIDE, BaseRuntime, ProcessRuntime, rank_comm
from repro.mpi.transport import AbortFlag, Envelope, Transport
from repro.net import wire
from repro.net.wire import FrameConnection, FrameKind
from repro.obs.profiler import PROFILER
from repro.obs.tracer import TRACER as _T
from repro.rpc import HandlerRegistry, RpcCall, decode_message, encode_message

_log = get_logger("mpi.socket_transport")

#: how long a worker waits for a router RPC reply before declaring the
#: driver gone (aborts also break the wait, so this is a last resort)
_RPC_DEADLINE = 120.0

#: how long the router's shutdown waits for the ranks' connections to go
#: (each rank's process has been joined by then: its BYE is on the way)
_DRAIN_DEADLINE = 5.0

#: workers are forked: a :class:`WorkerSpec` carries the job's closures,
#: which only inheritance can deliver
_START_METHOD = "fork"


def _encode_envelope(dest: int, envelope: Envelope) -> bytes:
    """Envelope -> wire frame.  The payload is pickled at this boundary,
    a shuffle block's sealed batch as its bytes and a truncate fault's
    :class:`~repro.mpi.transport.TruncatedPayload` as itself."""
    body, flags = wire.encode_payload(envelope.payload)
    return wire.pack_envelope_frame(
        envelope.context, envelope.source, envelope.tag, envelope.origin,
        dest, envelope.nbytes, body, flags,
    )


def _decode_envelope(h: wire.EnvelopeHeader) -> Envelope:
    """Parsed ENVELOPE frame -> the Envelope it delivers, built in the
    *destination* interpreter so ``seq`` reflects local arrival order
    (wildcard matching)."""
    return Envelope(h.context, h.source, h.tag,
                    wire.decode_payload(h.payload, h.flags), h.nbytes,
                    origin=h.origin)


def _call_frame(call_id: int, method: str, params: tuple) -> bytes:
    return wire.pack_frame(
        FrameKind.RPC_REQ, encode_message(RpcCall(call_id, method, params))
    )


def _abort_frame(abort_flag: AbortFlag) -> bytes:
    return wire.pack_obj_frame(
        FrameKind.ABORT, (abort_flag.reason, abort_flag.errorcode)
    )


@dataclass(eq=False, slots=True)
class _RedeliveryBuffer:
    """Byte-capped, in-order log of the worker-world frames forwarded to
    one rank, so a reincarnation can be replayed the shuffle batches (and
    barrier traffic) its first life received but took to the grave.

    Kept until the rank says BYE (a second death replays it again; the
    receiver's staging makes replay exactly-once).  Overflowing the byte
    cap drops the log and latches ``overflowed`` — a lossy history may
    never be replayed, so nothing more is recorded: the rank is then
    surgically unrecoverable, its death degrades to a whole-job restart.
    """

    cap: int
    nbytes: int = 0
    #: packed frames, forwarding order
    frames: list[bytes] = field(default_factory=list)
    overflowed: bool = False

    def append(self, frame: bytes) -> None:
        if self.overflowed:
            return
        self.frames.append(frame)
        self.nbytes += len(frame)
        if self.nbytes > self.cap:
            self.overflowed = True
            self.clear()

    def clear(self) -> None:
        self.frames = []
        self.nbytes = 0


@dataclass(eq=False)
class _Rank:
    """Everything the router knows about one worker-process rank, and the
    one place that decides what an event in its life means.

    Created when the rank is announced (:meth:`RouterTransport.expect`)
    and kept for the life of the runtime; a respawn mutates the record in
    place, so a rank's epoch, budget and logged traffic survive its
    incarnations.  The transitions (``hello``, ``route``, ``lost``,
    ``respawn``, ``bye``) touch no socket or thread: each returns what
    its caller is to do.  All fields are guarded by the router lock.
    """

    gid: int
    #: world-local rank and world name, for failure records
    local_rank: int = -1
    world: str = "worker"
    #: the live incarnation's connection; None before its HELLO, after
    #: its BYE or death, and from the moment a respawn fences it.  An
    #: envelope from the rank on any other connection is a zombie's
    conn: FrameConnection | None = None
    #: OS pid from the latest HELLO, None before the first (the runtime
    #: SIGKILLs a hung incarnation before forking the next)
    pid: int | None = None
    #: respawn count; a HELLO naming a lower one is a zombie's
    epoch: int = 0
    #: respawn budget; 0 (recovery off) keeps the die-on-death path
    max_respawns: int = 0
    #: frames bound for the rank that arrived before its HELLO
    parked: list[bytes] = field(default_factory=list)
    #: worker-world frames to replay into a reincarnation, and that
    #: world's context block (both idle while recovery is off)
    redelivery: _RedeliveryBuffer = field(default_factory=lambda: _RedeliveryBuffer(0))
    world_context: int = 0
    #: when the rank was declared dead; None while it is not recovering
    recovering_since: float | None = None

    @property
    def recoverable(self) -> bool:
        """Can this rank still be respawned in place?"""
        return self.epoch < self.max_respawns and not self.redelivery.overflowed

    def _fence(self) -> None:
        """Parked frames are discarded (they would be stale by redelivery
        time); from here worker-world traffic accumulates in the log and
        anything else bound for the rank is dropped until the
        reincarnation's HELLO."""
        if self.recovering_since is None:
            self.recovering_since = _now()
            self.parked = []

    def failure(
        self, truncated: bool = False, exitcode: int | None = None
    ) -> FailureRecord:
        """The one record of this rank's death, whoever noticed it."""
        where = f"{self.world}[{self.local_rank}]"
        if exitcode is not None:
            kind, why = "rank", (
                f"worker process {where} exited with code {exitcode} "
                f"before the rank handshake"
            )
        elif self.max_respawns > 0:
            kind, why = "respawn", (
                f"worker process for global rank {self.gid} died but is no "
                f"longer surgically recoverable (respawn budget exhausted "
                f"or redelivery log overflow); degrading to a whole-job "
                f"restart"
            )
        elif truncated:
            kind, why = "wire", (
                f"connection to global rank {self.gid} severed mid-frame "
                f"(process killed or stream corrupted)"
            )
        else:
            kind, why = "rank", (
                f"worker process for global rank {self.gid} disconnected "
                f"without a goodbye (crashed or killed)"
            )
        return FailureRecord(
            kind=kind, worker=self.local_rank, where=where, error=why
        )

    def hello(
        self, conn: FrameConnection, pid: int, epoch: int
    ) -> tuple[list[bytes], float | None] | FailureRecord | None:
        """Incarnation ``epoch`` speaks on ``conn``.  None: a zombie,
        never routed to.  Otherwise the frames to flush to it, in order,
        and how long the rank was offline (None for a first life): a
        rebirth is replayed its log in forwarding order — the entries
        stay logged, a second death replays again.  A rebirth whose log
        overflowed while it was down has nothing whole to replay: the
        record of a death nothing can undo (the world fails now, not at
        the reborn rank's plane timeout)."""
        if epoch < self.epoch:
            return None
        self.conn, self.pid = conn, pid
        frames, self.parked = self.parked, []
        offline = None
        if self.recovering_since is not None:
            offline = _now() - self.recovering_since
            self.recovering_since = None
            if self.redelivery.overflowed:
                return self.failure()
            frames = self.redelivery.frames + frames
        return frames, offline

    def route(self, frame: bytes, context: int) -> FrameConnection | None:
        """One packed frame bound for this rank: the connection to send
        it on, or None — it was parked until the rank's HELLO, or
        dropped mid-recovery (anything redeliverable sits in the log, the
        rest would be stale by then).  Traffic of the rank's own world
        (``context`` in its block) is what a reincarnation may need
        replayed.  Control traffic (intercomm contexts) is deliberately
        excluded: replaying a stale task assignment or report ack into a
        reincarnated rank would corrupt the driver protocol — the control
        plane instead recovers by re-requesting."""
        if self.max_respawns and 0 <= context - self.world_context < _CONTEXT_STRIDE:
            self.redelivery.append(frame)
        if self.conn is None and self.recovering_since is None:
            self.parked.append(frame)
        return self.conn

    def lost(self, truncated: bool = False) -> FailureRecord | str:
        """The live incarnation's connection reached EOF without a BYE:
        the worker process died ungracefully.  ``"respawn"``: the rank is
        now recovering, the runtime is to fork its successor.  Otherwise
        the record of a death nothing can undo (the world aborts)."""
        self.conn = None
        if not self.recoverable:
            return self.failure(truncated)
        self._fence()
        return "respawn"

    def respawn(self) -> tuple[int, int | None] | FailureRecord | None:
        """Charge the budget and bump the epoch: ``(new_epoch, old_pid)``
        for the runtime to kill and fork.  A heartbeat-triggered respawn
        gets here with the incarnation still connected (hung, not dead)
        — it is fenced and replaced anyway.  Refused: the record of a
        rank already down (its death is now final), None for one still
        up (whoever noticed the trouble words it)."""
        if not self.recoverable:
            return self.failure() if self.recovering_since is not None else None
        self._fence()
        self.epoch += 1
        self.conn = None
        return self.epoch, self.pid

    def bye(self) -> None:
        """Finished for good: the coming EOF is not this rank's any more
        and nothing is left to redeliver."""
        self.conn = None
        self.redelivery.clear()


class RouterTransport(Transport):
    """Driver-side star router: local mailboxes + one record per worker rank.

    Ranks of in-process worlds (the mpidrun driver world) get ordinary
    local endpoints; ranks announced via :meth:`expect` live in worker
    processes and are reached through their HELLO'd connection — one
    connection is exactly one rank.  Frames deposited before a worker's
    handshake are parked and flushed, in order, when it arrives.
    """

    def __init__(self, runtime: ProcessRuntime) -> None:
        super().__init__(runtime.abort_flag, runtime.fault_injector)
        self._runtime = runtime
        #: gids hosted in worker processes -> their record
        self.ranks: dict[int, _Rank] = {}
        #: what a worker may call by name (``RPC_REQ``): the driver
        #: runtime's own contract methods, plus two of the router's
        self.calls: dict[str, Callable[..., Any]] = {
            call.__name__: call for call in (
                runtime.allocate_context, runtime.launch_children,
                runtime.abort, runtime.record_failure,
                self.rank_failed, self.absorb_trace,
            )
        }
        self._registry = HandlerRegistry(self.calls)
        #: notified whenever a rank's connection goes (``shutdown`` waits)
        self._conn_gone = threading.Condition(self._lock)
        # -- surgical rank recovery (inert until the runtime arms it) --------
        #: per-rank respawn budget (0 keeps the die-on-death path) and
        #: redelivery-log byte cap, for the worlds announced from now on
        self.max_respawns = 0
        self.redelivery_cap = 0
        self.stale_frames_dropped = 0
        self.redelivered_frames = 0
        self._server = wire.FrameServer(
            self._handle_frame, self._handle_disconnect, name="mpi-router"
        ).start()
        #: where worker processes connect
        self.address = self._server.address

    # -- rank recovery ---------------------------------------------------------
    def respawn(self, gid: int) -> tuple[int, int | None] | None:
        """Perform :meth:`_Rank.respawn` for the runtime; None = refused
        (a rank already down then fails the world with its record)."""
        with self._lock:
            rank = self.ranks.get(gid)
            verdict = rank.respawn() if rank is not None else None
        if isinstance(verdict, FailureRecord):
            self._fail_world(gid, verdict)
            return None
        return verdict

    def reaped(self, gid: int, exitcode: int) -> None:
        """The runtime joined rank ``gid``'s process and it had failed.
        News only when it died before the handshake: the router never
        saw it, so the disconnect path cannot have recorded the loss."""
        with self._lock:
            rank = self.ranks[gid]
            record = rank.failure(exitcode=exitcode) if rank.pid is None else None
        if record is not None and not self.abort_flag.is_set():
            self._fail_world(gid, record)

    def _fail_world(self, gid: int, record: FailureRecord) -> None:
        self._runtime.record_failure(record)
        self._runtime.abort(
            f"lost worker process (global rank {gid})", record=False
        )

    # -- Transport ----------------------------------------------------------
    def wake_all(self) -> None:
        super().wake_all()
        if self.abort_flag.is_set():
            # a worker that has not handshaken yet is told at its HELLO
            self._broadcast(_abort_frame(self.abort_flag))

    def _broadcast(self, frame: bytes) -> None:
        with self._lock:
            conns = [r.conn for r in self.ranks.values() if r.conn is not None]
        for conn in conns:
            conn.try_send(frame)

    def shutdown(self) -> None:
        """Stop serving once every rank's connection is gone (at most
        :data:`_DRAIN_DEADLINE` seconds): its processes are joined, so a
        BYE or EOF is already in each socket, and what precedes it — the
        trace call of a rank's last breath — is read, not cut off."""
        with self._conn_gone:
            self._conn_gone.wait_for(
                lambda: all(r.conn is None for r in self.ranks.values()),
                _DRAIN_DEADLINE,
            )
        self._server.stop()

    # -- bookkeeping for ProcessRuntime -------------------------------------
    def expect(
        self, group: tuple[int, ...], name: str = "worker", world_context: int = 0
    ) -> None:
        """Announce gids that will live in worker processes, each armed
        with the recovery budget and a redelivery log for its world's
        traffic (the ``world_context`` block); both idle with recovery
        off."""
        with self._lock:
            for local_rank, gid in enumerate(group):
                self.ranks[gid] = _Rank(
                    gid, local_rank, name,
                    max_respawns=self.max_respawns,
                    redelivery=_RedeliveryBuffer(self.redelivery_cap),
                    world_context=world_context,
                )

    def _rank_on_locked(self, conn: FrameConnection) -> _Rank | None:
        """The rank whose live incarnation speaks on ``conn``.  None for
        a connection that never said HELLO, for one that said BYE — and
        for a fenced zombie's, which lost its rank when the successor was
        spawned."""
        for rank in self.ranks.values():
            if rank.conn is conn:
                return rank
        return None

    # -- routing -------------------------------------------------------------
    def _route(self, dest: int, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(dest)
        if endpoint is not None:
            endpoint.deposit(envelope)
            return
        self._forward(dest, _encode_envelope(dest, envelope), envelope.context)
        # the wire is the eager buffer: the send completes on acceptance
        envelope.taken()

    def _forward(self, dest: int, frame: bytes, context: int) -> None:
        """Send one packed frame where :meth:`_Rank.route` says.  The
        router lock orders parked flushes against direct sends."""
        with self._lock:
            rank = self.ranks.get(dest)
            if rank is None:
                raise MPIError(f"no route to global rank {dest}")
            conn = rank.route(frame, context)
        if conn is None:
            return
        try:
            conn.send(frame)
        except OSError:
            # receiver is gone; its disconnect handler owns the fallout
            _log.debug("router: dropping frame for dead rank %d", dest)

    # -- frame handlers (router reader threads) ------------------------------
    def _handle_frame(self, conn: FrameConnection, kind: int, body: bytes) -> None:
        if kind == FrameKind.ENVELOPE:
            self._on_envelope(conn, body)
        elif kind == FrameKind.HELLO:
            self._on_hello(conn, *wire.unpack_obj(body))
        elif kind == FrameKind.RPC_REQ:
            # dispatched right here, on the connection's reader: a
            # worker's calls stay ordered with its envelopes
            call = decode_message(body)
            response = self._registry.invoke(call)
            if not response.ok:
                _log.debug("router: call %s failed: %s", call.method, response.error)
            if call.call_id:  # 0: fire-and-forget, nobody waits for an answer
                conn.try_send(
                    wire.pack_frame(FrameKind.RPC_REP, encode_message(response))
                )
        elif kind == FrameKind.BYE:
            with self._lock:
                rank = self._rank_on_locked(conn)
                if rank is not None:
                    rank.bye()
                    self._conn_gone.notify_all()
        else:
            _log.warning("router: ignoring unknown frame kind %d", kind)

    def rank_failed(
        self, records: list[FailureRecord], exc_blob: bytes | None
    ) -> None:
        """A rank died on an exception and says so: file its records,
        adopt the exception when it survived the wire, abort the world —
        which also makes the coming EOF not news."""
        for record in records:
            self._runtime.record_failure(record)
        exc: BaseException | None = None
        if exc_blob is not None:
            try:
                exc = pickle.loads(exc_blob)
            except Exception:  # noqa: BLE001 - diagnostics only
                exc = None
        reason = records[0].error if records else "worker failed"
        self._runtime.record_remote_error(exc, reason)

    def absorb_trace(self, events: list[dict]) -> None:
        """A traced rank's tracer events, handed over as it exits: into
        the driver's tracer, whose drain writes the job's journal."""
        _T.absorb(events)

    def _on_hello(
        self, conn: FrameConnection, gid: int, pid: int, epoch: int
    ) -> None:
        with self._lock:
            rank = self.ranks.get(gid)
            speaker = self._rank_on_locked(conn)
            if rank is None or speaker not in (None, rank):
                _log.warning(
                    "router: refusing HELLO for rank %d from pid %d (%s)",
                    gid, pid,
                    "no such rank was announced" if rank is None else
                    f"its connection already speaks for rank {speaker.gid}",
                )
                return
            flush = rank.hello(conn, pid, epoch)
            if flush is None:
                _log.warning(
                    "router: fencing stale HELLO from rank %d "
                    "(epoch %d < %d)", gid, epoch, rank.epoch,
                )
                return
            if not isinstance(flush, FailureRecord):
                frames, offline = flush
                for frame in frames:
                    conn.try_send(frame)
                if offline is not None:
                    self.redelivered_frames += len(frames)
        if isinstance(flush, FailureRecord):
            # the abort's broadcast reaches the reborn rank as well
            self._fail_world(gid, flush)
            return
        if offline is None:
            _log.debug("router: rank %d online (pid %d)", gid, pid)
        else:
            _T.instant(
                "recovery.rank.online",
                cat="recovery",
                args={
                    "gid": gid, "epoch": epoch, "pid": pid,
                    "redelivered_frames": len(frames),
                    "latency_s": round(offline, 6),
                },
            )
            _T.counter("recovery.redelivered_frames", len(frames), cat="recovery")
            _log.info(
                "router: rank %d reborn (pid %d, epoch %d, %d frames "
                "redelivered, %.3fs offline)",
                gid, pid, epoch, len(frames), offline,
            )
        if self.abort_flag.is_set():
            conn.try_send(_abort_frame(self.abort_flag))

    def _on_envelope(self, conn: FrameConnection, body: bytes) -> None:
        h = wire.unpack_envelope_frame(body)
        sender = self.ranks[h.origin]
        if sender.conn is not conn:
            # a zombie speaking: its rank was declared dead and respawned
            # (or its HELLO was refused), so the connection no longer
            # holds it.  Fence the frame.
            with self._lock:
                self.stale_frames_dropped += 1
                dropped = self.stale_frames_dropped
            _T.instant(
                "recovery.stale_frame.dropped",
                cat="recovery",
                args={
                    "origin": h.origin, "dest": h.dest,
                    "current": sender.epoch, "tag": h.tag,
                },
            )
            _T.counter("recovery.stale_frames_dropped", dropped, cat="recovery")
            _log.debug(
                "router: fenced a frame from rank %d on a connection it no "
                "longer holds (epoch now %d)", h.origin, sender.epoch,
            )
            return
        if self.fault_injector is not None:
            # chaos takes the road a driver-local send takes
            self.deposit(h.dest, _decode_envelope(h))
            return
        # every shuffle byte between workers comes through here: a
        # mailbox hosted here gets the envelope, a rank's connection the
        # frame verbatim — no re-pack, no payload decode
        endpoint = self._endpoints.get(h.dest)
        if endpoint is not None:
            endpoint.deposit(_decode_envelope(h))
            return
        self._forward(h.dest, wire.pack_frame(FrameKind.ENVELOPE, body), h.context)

    def _handle_disconnect(self, conn: FrameConnection) -> None:
        with self._lock:
            rank = self._rank_on_locked(conn)
            if rank is None:
                return
            verdict = rank.lost(conn.truncated)
            self._conn_gone.notify_all()
        if self.abort_flag.is_set():
            return  # the world is going down anyway
        if verdict == "respawn":
            # the driver loop forks the replacement
            _T.instant(
                "recovery.rank.lost",
                cat="recovery",
                args={"gid": rank.gid, "truncated": conn.truncated},
            )
            _log.warning(
                "router: worker rank %d died; attempting surgical respawn",
                rank.gid,
            )
            self._runtime.request_rank_respawn(rank.gid)
        else:
            self._fail_world(rank.gid, verdict)


@dataclass
class WorkerSpec:
    """Everything a worker process needs; inherited via fork (fn/args are
    never pickled)."""

    address: Any
    gid: int
    group: tuple[int, ...]
    rank: int
    world_context: int
    parent_group: tuple[int, ...]
    inter_context: int
    fn: Callable[..., Any]
    args: tuple
    world_name: str
    #: process name; set by :func:`fork_worker`
    name: str = ""
    #: route self-sends through the router so the driver-side injector
    #: sees the same traffic it would on the threaded backend
    chaos_routed: bool = False
    #: rank epoch: 0 for the first incarnation, bumped on each respawn;
    #: named in the HELLO (the router refuses a stale one) and in the
    #: shuffle batches the incarnation sends
    epoch: int = 0
    #: surgical rank recovery armed for this world (receivers stage
    #: shuffle streams)
    recovery: bool = False


class WorkerTransport(Transport):
    """One rank's view of the world: its own mailbox + the router link."""

    def __init__(
        self, abort_flag: AbortFlag, spec: WorkerSpec, conn: FrameConnection
    ) -> None:
        super().__init__(abort_flag)
        self._spec = spec
        self._conn = conn
        self._endpoint = self.register(spec.gid)

    def _route(self, dest: int, envelope: Envelope) -> None:
        spec = self._spec
        if dest == spec.gid and not spec.chaos_routed:
            self._endpoint.deposit(envelope)
            return
        try:
            self._conn.send(_encode_envelope(dest, envelope))
        except OSError:
            self.abort_flag.trip("lost connection to the mpidrun router")
            self.abort_flag.check()
        envelope.taken()


class WorkerRuntime(BaseRuntime):
    """The runtime inside a worker process: one rank, one router link.

    Matching, the abort flag and the failure list are process-local and
    inherited as they are; what it overrides is what has to cross the
    wire — global allocation and spawning wait for the driver's answer;
    aborts, failures and the trace want none.
    """

    launcher = "processes"

    def __init__(self, spec: WorkerSpec, conn: FrameConnection) -> None:
        self._spec = spec
        self._conn = conn
        self.rank_epoch = spec.epoch
        self.rank_recovery = spec.recovery
        super().__init__()
        #: calls awaiting their RpcResponse, by id (0 is "no reply wanted"):
        #: the reader completes each, the abort fails them all
        self._rpc_ids = itertools.count(1)
        self._rpc_pending: dict[int, futures.Future] = {}
        self.abort_flag.watch(self._fail_rpcs)
        self._closing = False
        self._reader = threading.Thread(
            target=self._recv_loop, name=f"{spec.name}-wire", daemon=True
        )
        self._reader.start()

    def _make_transport(self) -> Transport:
        return WorkerTransport(self.abort_flag, self._spec, self._conn)

    # -- what crosses the wire -------------------------------------------------
    def allocate_context(self) -> int:
        return self._rpc("allocate_context")

    def launch_children(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple,
        parent_group: tuple[int, ...],
        name: str,
    ) -> tuple[tuple[int, ...], int]:
        """Spawn-over-socket: the router forks the grandchild world.

        ``fn``/``args`` cross the wire, so worker-initiated spawns need
        module-level functions and picklable arguments (driver-initiated
        spawns inherit closures via fork and have no such limit).
        """
        return self._rpc("launch_children", fn, nprocs, args, parent_group, name)

    def abort(self, reason: str, errorcode: int = 1, record: bool = True) -> None:
        """Abort the world: the driver records it and fans the ABORT out;
        this process unwinds right away."""
        self._cast("abort", reason, errorcode)
        super().abort(reason, errorcode, record=False)

    def record_failure(self, record: FailureRecord) -> None:
        super().record_failure(record)
        self._cast("record_failure", record)

    def record_error(self, comm: Intracomm, exc: BaseException) -> None:
        records = self._capture_error(comm, exc)
        try:
            blob = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - unpicklable exceptions still report
            blob = None
        # ``rank_failed`` aborts the driver's world; only this process is
        # left to unwind
        self._cast("rank_failed", records, blob)
        super().abort(f"rank {comm.rank}: {exc!r}", record=False)

    # -- wire plumbing --------------------------------------------------------
    def _cast(self, method: str, *params: Any) -> None:
        """Call the driver by name, no reply wanted (``call_id`` 0).
        ``try_send`` drops the call on a dead connection instead of
        killing the caller (a rank on its way down); a full socket blocks
        it until the router drains, so the wire reader never casts."""
        self._conn.try_send(_call_frame(0, method, params))

    def _rpc(self, method: str, *params: Any) -> Any:
        req_id = next(self._rpc_ids)
        reply = self._rpc_pending[req_id] = futures.Future()
        try:
            # pending before the check: an abort from here on fails it
            self.abort_flag.check()
            self._conn.send(_call_frame(req_id, method, params))
            response = reply.result(_RPC_DEADLINE)
        except futures.TimeoutError:
            raise MPIError(
                f"router rpc {method!r} timed out after {_RPC_DEADLINE}s"
            ) from None
        finally:
            self._rpc_pending.pop(req_id, None)
        if not response.ok:
            raise MPIError(f"router rpc {method!r} failed: {response.error}")
        return response.result

    def _fail_rpcs(self) -> None:
        """Fail every call still awaiting its reply (the abort)."""
        flag = self.abort_flag
        while self._rpc_pending:
            try:
                _, reply = self._rpc_pending.popitem()
            except KeyError:  # the reader or the caller took the last one
                return
            reply.set_exception(MPIAbort(flag.errorcode, flag.reason))

    def _recv_loop(self) -> None:
        """The wire reader: deposits what the router forwards (a listened
        shuffle envelope is filed right here, on this thread)."""
        # what the deposits trace is the receiving rank's
        _T.bind(self._spec.rank)
        conn = self._conn
        mailbox = self.mailbox(self._spec.gid)
        try:
            while (frame := conn.recv()) is not None:
                kind, body = frame
                if kind == FrameKind.ENVELOPE:
                    mailbox.deposit(_decode_envelope(wire.unpack_envelope_frame(body)))
                elif kind == FrameKind.ABORT:
                    self.abort_flag.trip(*wire.unpack_obj(body))
                elif kind == FrameKind.RPC_REP:
                    response = decode_message(body)
                    reply = self._rpc_pending.pop(response.call_id, None)
                    if reply is not None:
                        reply.set_result(response)
                else:
                    _log.warning("worker: ignoring unknown frame kind %d", kind)
        except ConnectionError:
            pass  # severed mid-frame: as gone as a clean EOF
        finally:
            conn.close()  # the one thread that reads it releases it
        if not self._closing:
            self.abort_flag.trip("lost connection to the mpidrun router")

    def close(self) -> None:
        """Say BYE, wake the reader and wait for it: it closes the fd."""
        self._closing = True
        self._conn.try_send(wire.pack_frame(FrameKind.BYE))
        self._conn.shutdown()
        self._reader.join()


def fork_worker(spec: WorkerSpec) -> tuple[Any, WorkerSpec]:
    """Start the process for incarnation ``spec.epoch`` of a rank.

    A rank's first life and every respawn start here, so this is the one
    place that names an incarnation's process.  It is traced if the
    driver's tracer is on as it forks.
    """
    life = f"e{spec.epoch}" if spec.epoch else ""
    spec = replace(spec, name=f"{spec.world_name}[{spec.rank}]{life}")
    proc = multiprocessing.get_context(_START_METHOD).Process(
        target=_worker_process_main, args=(spec,), name=spec.name, daemon=True
    )
    proc.start()
    return proc, spec


def _worker_process_main(spec: WorkerSpec) -> None:
    """Entry point of one worker process: handshake, run the rank, report."""
    # the tracer's enabled flag, epoch and meta are the driver's,
    # inherited by the fork, so the events land on the driver's timeline
    _T.reset_after_fork()
    PROFILER.reset_after_fork()
    conn = wire.connect_local(spec.address, timeout=30.0, retries=4)
    conn.send(
        wire.pack_obj_frame(FrameKind.HELLO, (spec.gid, os.getpid(), spec.epoch))
    )
    runtime = WorkerRuntime(spec, conn)
    comm = rank_comm(
        runtime, spec.world_context, spec.group, spec.rank, spec.world_name,
        (spec.parent_group, spec.inter_context),
    )
    _T.bind(spec.gid)
    exitcode = 0
    try:
        spec.fn(comm, *spec.args)
    except MPIAbort:
        pass  # a peer failed first; the driver holds the original record
    except BaseException as exc:  # noqa: BLE001 - must report before dying
        runtime.record_error(comm, exc)
        exitcode = 1
    finally:
        if _T.enabled:
            # ahead of the BYE on the one connection: the driver's
            # journal gets them
            try:
                runtime._cast("absorb_trace", _T.drain())
            except Exception:  # noqa: BLE001 - tracing must never fail the rank
                _log.exception("failed to hand over the trace of rank %d", spec.gid)
        runtime.close()
    sys.exit(exitcode)
