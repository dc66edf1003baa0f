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
* **Failure capture** — a worker that dies sends a FAIL frame with its
  :class:`FailureRecord`\\ s when it can; a connection that drops without
  a BYE is recorded as a rank failure and aborts the world, so a
  SIGKILL'd worker surfaces as structured evidence, not a hang.
* **Surgical rank recovery** — with ``mpi.d.rank.max.respawns > 0`` the
  router does better than aborting: a no-goodbye disconnect marks the
  rank *recovering*, the runtime forks a replacement with an incremented
  **rank epoch**, and the reincarnation's HELLO replays that rank's
  worker-world traffic from a bounded per-rank **redelivery buffer**
  (shuffle batches its first life received but took to the grave).
  Every envelope carries its sender's epoch in the wire header, so a
  zombie — a rank declared dead that is still limping — has its frames
  fenced at the hub (``stale_frames_dropped``) instead of corrupting its
  successor's streams.  Budget exhaustion or buffer overflow degrades to
  the pre-existing whole-job abort/restart path.

Payloads are pickled only at the wire boundary
(:data:`repro.net.wire.WIRE_SERDE`); workers are forked, so job closures
reach them by inheritance, never by pickle.

Both ends implement the one runtime contract
(:class:`~repro.mpi.runtime.BaseRuntime`): :class:`WorkerRuntime` is a
``BaseRuntime`` whose transport is a :class:`WorkerTransport` and which
overrides only the calls that have to cross the wire.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue
import sys
import threading
from dataclasses import dataclass, field
from time import monotonic as _now
from typing import Any, Callable

from repro.common.errors import FailureRecord, MPIAbort, MPIError
from repro.common.logging import get_logger
from repro.mpi.comm import Intracomm
from repro.mpi.intercomm import Intercomm
from repro.mpi.runtime import BaseRuntime, ProcessRuntime
from repro.mpi.transport import (
    AbortFlag,
    Envelope,
    Transport,
    TruncatedPayload,
)
from repro.net import wire
from repro.net.wire import FrameConnection, FrameKind
from repro.obs.profiler import PROFILER
from repro.obs.tracer import TRACER as _T
from repro.serde.io import DataInput

_log = get_logger("mpi.socket_transport")

#: how long a worker waits for a router RPC reply before declaring the
#: driver gone (aborts also break the wait, so this is a last resort)
_RPC_DEADLINE = 120.0

#: workers are forked: a :class:`WorkerSpec` carries the job's closures,
#: which only inheritance can deliver
_START_METHOD = "fork"


def _encode_envelope(dest: int, envelope: Envelope, epoch: int = 0) -> bytes:
    """Envelope -> wire frame; truncation travels as a header flag.

    Shuffle record-batch payloads take the structured FLAG_BATCH codec
    (sealed batch bytes copied verbatim, zero pickle); everything else is
    pickled at this boundary.  ``epoch`` is the sender's rank epoch — the
    router fences frames whose epoch lags the sender's current
    incarnation (zombie defense).
    """
    payload = envelope.payload
    flags = 0
    if isinstance(payload, TruncatedPayload):
        flags |= wire.FLAG_TRUNCATED
        payload = payload.original
    body, payload_flags = wire.encode_payload(payload)
    return wire.pack_envelope_frame(
        envelope.context,
        envelope.source,
        envelope.tag,
        envelope.origin,
        dest,
        envelope.nbytes,
        body,
        flags | payload_flags,
        epoch=epoch,
        trace=envelope.trace,
        parent=envelope.parent,
    )


def _decode_envelope(
    context: int, source: int, tag: int, origin: int, nbytes: int,
    flags: int, payload_bytes: bytes, trace: int = 0, parent: int = 0,
) -> Envelope:
    """Wire frame -> Envelope, built in the *destination* interpreter so
    ``seq`` reflects local arrival order (wildcard matching)."""
    payload = wire.decode_payload(payload_bytes, flags)
    if flags & wire.FLAG_TRUNCATED:
        payload = TruncatedPayload(payload)
    return Envelope(context, source, tag, payload, nbytes, origin=origin,
                    trace=trace, parent=parent)


def _received(h: wire.EnvelopeHeader) -> Envelope:
    """The envelope a parsed ENVELOPE frame delivers to a local mailbox."""
    return _decode_envelope(
        h.context, h.source, h.tag, h.origin, h.nbytes, h.flags, h.payload,
        trace=h.trace, parent=h.parent,
    )


def _abort_frame(abort_flag: AbortFlag) -> bytes:
    return wire.pack_obj_frame(
        FrameKind.ABORT, (abort_flag.reason, abort_flag.errorcode)
    )


class _RedeliveryBuffer:
    """Bounded, in-order store of the worker-world frames forwarded to one
    rank, so a reincarnation can be replayed the shuffle batches (and
    barrier traffic) its first life received but took to the grave.

    Entries are tagged with the shuffle plane id when the frame is a
    FLAG_BATCH record batch (peeked cheaply from the payload header);
    ACK frames from the consumer release a plane's entries.  Untagged
    entries (pickled barrier/collective messages) are held until the
    rank says BYE.  Overflowing the byte cap evicts oldest-first and
    latches ``overflowed`` — the rank is then surgically unrecoverable
    and its death degrades to a whole-job restart.
    """

    __slots__ = ("cap", "nbytes", "entries", "overflowed")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.nbytes = 0
        #: list of (plane_id | None, frame bytes), forwarding order
        self.entries: list[tuple[str | None, bytes]] = []
        self.overflowed = False

    def append(self, plane: str | None, frame: bytes) -> None:
        self.entries.append((plane, frame))
        self.nbytes += len(frame)
        while self.nbytes > self.cap and self.entries:
            _, evicted = self.entries.pop(0)
            self.nbytes -= len(evicted)
            self.overflowed = True

    def release_plane(self, plane: str) -> int:
        kept: list[tuple[str | None, bytes]] = []
        released = 0
        for entry in self.entries:
            if entry[0] == plane:
                released += 1
                self.nbytes -= len(entry[1])
            else:
                kept.append(entry)
        self.entries = kept
        return released

    def frames(self) -> list[bytes]:
        return [frame for _, frame in self.entries]

    def clear(self) -> None:
        self.entries = []
        self.nbytes = 0


@dataclass(eq=False)
class _Rank:
    """Everything the router knows about one worker-process rank.

    Created when the rank is announced (:meth:`RouterTransport.expect`)
    and kept for the life of the runtime; a respawn mutates the record in
    place, so a rank's epoch, budget and buffered traffic survive its
    incarnations.  All fields are guarded by the router lock.
    """

    gid: int
    #: world-local rank and world name, for failure records
    local_rank: int = -1
    world: str = "worker"
    #: the live incarnation's connection; None before its HELLO, after
    #: its death, and from the moment a respawn fences it
    conn: FrameConnection | None = None
    ever_connected: bool = False
    #: the incarnation on ``conn`` said BYE or reported a fatal FAIL, so
    #: the EOF that follows is not news
    closed_clean: bool = False
    #: OS pid from the latest HELLO (the runtime SIGKILLs a hung
    #: incarnation before forking the next)
    pid: int | None = None
    #: respawn count; envelopes stamped lower are zombie traffic
    epoch: int = 0
    respawns: int = 0
    #: frames bound for the rank that arrived before its HELLO
    parked: list[bytes] = field(default_factory=list)
    #: worker-world frames to replay into a reincarnation (None = the
    #: rank's world is not watched: recovery off)
    redelivery: _RedeliveryBuffer | None = None
    #: when the rank was declared dead; None while it is not recovering
    recovering_since: float | None = None


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
        self._ranks: dict[int, _Rank] = {}
        self._stopping = False
        # -- surgical rank recovery (inert until configured) ----------------
        #: per-rank respawn budget; 0 keeps the die-on-death path
        self._max_respawns = 0
        self._redelivery_cap = 0
        #: context bases of worker worlds whose traffic is redeliverable
        self._watched_contexts: set[int] = set()
        self.stale_frames_dropped = 0
        self.redelivered_frames = 0
        self._server = wire.FrameServer(
            self._handle_frame, self._handle_disconnect, name="mpi-router"
        ).start()
        #: where worker processes connect
        self.address = self._server.address

    # -- rank recovery configuration -----------------------------------------
    def configure_recovery(self, max_respawns: int, redelivery_bytes: int) -> None:
        """Arm surgical recovery: each rank may be respawned in place up
        to ``max_respawns`` times, with up to ``redelivery_bytes`` of its
        inbound worker-world traffic buffered for replay."""
        with self._lock:
            self._max_respawns = max(0, int(max_respawns))
            self._redelivery_cap = int(redelivery_bytes)

    def watch_world(self, group: tuple[int, ...], world_context: int) -> None:
        """Start buffering the worker-world traffic of ``group`` (its
        point-to-point and collective context block) for redelivery."""
        with self._lock:
            if self._max_respawns <= 0:
                return
            self._watched_contexts.add(world_context)
            for gid in group:
                rank = self._ranks.setdefault(gid, _Rank(gid))
                if rank.redelivery is None:
                    rank.redelivery = _RedeliveryBuffer(self._redelivery_cap)

    def pid_of(self, gid: int) -> int | None:
        with self._lock:
            rank = self._ranks.get(gid)
            return rank.pid if rank is not None else None

    def recovery_eligible(self, gid: int) -> bool:
        """Can this rank still be respawned in place?"""
        with self._lock:
            return self._eligible_locked(self._ranks.get(gid))

    def _eligible_locked(self, rank: _Rank | None) -> bool:
        return (
            rank is not None
            and rank.redelivery is not None
            and not rank.redelivery.overflowed
            and rank.respawns < self._max_respawns
        )

    @staticmethod
    def _mark_recovering_locked(rank: _Rank) -> None:
        """Parked frames are discarded (they would be stale by redelivery
        time); from here worker-world traffic accumulates in the
        redelivery buffer and anything else bound for the rank is dropped
        until the reincarnation's HELLO."""
        if rank.recovering_since is None:
            rank.recovering_since = _now()
            rank.parked = []

    def begin_recovery(self, gid: int) -> bool:
        """Mark ``gid`` recovering; False when it cannot be respawned."""
        with self._lock:
            rank = self._ranks.get(gid)
            if not self._eligible_locked(rank):
                return False
            self._mark_recovering_locked(rank)
            return True

    def begin_respawn(self, gid: int) -> tuple[int, int | None]:
        """Charge the budget and bump the epoch for a respawn of ``gid``;
        returns ``(new_epoch, old_pid)``.  The caller (ProcessRuntime)
        kills the old pid and forks the replacement."""
        with self._lock:
            rank = self._ranks[gid]
            # heartbeat-triggered respawns get here with the incarnation
            # still connected (hung, not dead) — fence and replace it anyway
            self._mark_recovering_locked(rank)
            rank.respawns += 1
            rank.epoch += 1
            rank.conn = None
            return rank.epoch, rank.pid

    # -- Transport ----------------------------------------------------------
    def wake_all(self) -> None:
        super().wake_all()
        if self.abort_flag.is_set():
            # a worker that has not handshaken yet is told at its HELLO
            frame = _abort_frame(self.abort_flag)
            with self._lock:
                conns = self._live_conns_locked()
            for conn in conns:
                conn.try_send(frame)

    def request_stack_dump(self) -> None:
        """Broadcast DUMP_REQ to every connected worker; replies arrive
        asynchronously as DUMP frames and land in the telemetry hub."""
        frame = wire.pack_frame(FrameKind.DUMP_REQ)
        with self._lock:
            conns = self._live_conns_locked()
        for conn in conns:
            conn.try_send(frame)

    def shutdown(self) -> None:
        self._stopping = True
        self._server.stop()

    # -- bookkeeping for ProcessRuntime -------------------------------------
    def expect(self, group: tuple[int, ...], name: str = "worker") -> None:
        """Announce gids that will live in worker processes."""
        with self._lock:
            for local_rank, gid in enumerate(group):
                rank = self._ranks.setdefault(gid, _Rank(gid))
                rank.local_rank, rank.world = local_rank, name

    def ever_connected(self, gid: int) -> bool:
        with self._lock:
            rank = self._ranks.get(gid)
            return rank is not None and rank.ever_connected

    def _live_conns_locked(self) -> list[FrameConnection]:
        return [r.conn for r in self._ranks.values() if r.conn is not None]

    def _rank_on_locked(self, conn: FrameConnection) -> _Rank | None:
        """The rank whose live incarnation speaks on ``conn``.  None for
        a connection that never said HELLO — and for a fenced zombie's,
        which lost its rank when the successor was spawned."""
        for rank in self._ranks.values():
            if rank.conn is conn:
                return rank
        return None

    # -- routing -------------------------------------------------------------
    def _route(self, dest: int, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(dest)
        if endpoint is not None:
            endpoint.deposit(envelope)
            return
        self._forward(dest, _encode_envelope(dest, envelope))
        # the wire is the eager buffer: the send completes on acceptance
        envelope.delivered.set()

    def _forward(
        self, dest: int, frame: bytes, h: wire.EnvelopeHeader | None = None
    ) -> None:
        """Send one packed frame to a worker rank — or park it until the
        rank's HELLO, or discard it mid-recovery (anything redeliverable
        already sits in the buffer, the rest would be stale by then).
        ``h`` is the header of a frame relayed from another worker: those
        are what a reincarnation may need replayed.  The router lock
        orders parked flushes against direct sends."""
        with self._lock:
            rank = self._ranks.get(dest)
            if rank is None:
                raise MPIError(f"no route to global rank {dest}")
            if h is not None:
                self._buffer_locked(rank, h, frame)
            conn = rank.conn
            if conn is None:
                if rank.recovering_since is None:
                    rank.parked.append(frame)
                return
        try:
            conn.send(frame)
        except OSError:
            # receiver is gone; its disconnect handler owns the fallout
            _log.debug("router: dropping frame for dead rank %d", dest)

    def _buffer_locked(
        self, rank: _Rank, h: wire.EnvelopeHeader, frame: bytes
    ) -> None:
        """Record a worker-world frame for possible redelivery.  Control
        traffic (intercomm contexts) is deliberately excluded: replaying
        a stale task assignment or report ack into a reincarnated rank
        would corrupt the driver protocol — the control plane instead
        recovers by re-requesting."""
        buf = rank.redelivery
        if buf is None or not any(
            base <= h.context < base + 4 for base in self._watched_contexts
        ):
            return
        plane: str | None = None
        if h.flags & wire.FLAG_BATCH:
            try:
                plane = DataInput(h.payload).read_utf()
            except Exception:  # noqa: BLE001 - peeking must never drop a frame
                plane = None
        buf.append(plane, frame)

    # -- frame handlers (router reader threads) ------------------------------
    def _handle_frame(self, conn: FrameConnection, kind: int, body: bytes) -> None:
        if kind == FrameKind.ENVELOPE:
            self._on_envelope(body)
        elif kind == FrameKind.HELLO:
            gid, pid, epoch = wire.unpack_obj(body)
            self._on_hello(conn, gid, pid, epoch)
        elif kind == FrameKind.ACK:
            gid, plane_id = wire.unpack_obj(body)
            with self._lock:
                rank = self._ranks.get(gid)
                if rank is not None and rank.redelivery is not None:
                    rank.redelivery.release_plane(plane_id)
        elif kind == FrameKind.TELEMETRY:
            try:
                self._runtime.ship_telemetry(wire.unpack_obj(body))
            except Exception:  # noqa: BLE001 - telemetry never kills routing
                _log.debug("router: dropped malformed telemetry frame")
        elif kind == FrameKind.DUMP:
            hub = self._runtime.telemetry_hub
            if hub is not None:
                try:
                    for dump in wire.unpack_obj(body):
                        hub.ingest_dump(dump)
                except Exception:  # noqa: BLE001 - diagnostics never kill routing
                    _log.debug("router: dropped malformed dump frame")
        elif kind == FrameKind.RPC_REQ:
            req_id, method, params = wire.unpack_obj(body)
            try:
                result = self._dispatch_rpc(method, params)
                reply = (req_id, True, result)
            except Exception as exc:  # noqa: BLE001 - errors travel back
                reply = (req_id, False, repr(exc))
            conn.try_send(wire.pack_obj_frame(FrameKind.RPC_REP, reply))
        elif kind == FrameKind.ABORT_REQ:
            reason, errorcode = wire.unpack_obj(body)
            self._runtime.abort(reason, errorcode)
        elif kind == FrameKind.FAIL:
            records, exc_blob, fatal = wire.unpack_obj(body)
            for record in records:
                self._runtime.record_failure(record)
            if fatal:
                # the failure is accounted for; the coming EOF is not news
                with self._lock:
                    rank = self._rank_on_locked(conn)
                    if rank is not None:
                        rank.closed_clean = True
                exc: BaseException | None = None
                if exc_blob is not None:
                    try:
                        exc = pickle.loads(exc_blob)
                    except Exception:  # noqa: BLE001 - diagnostics only
                        exc = None
                reason = records[0].error if records else "worker failed"
                self._runtime.record_remote_error(exc, reason)
        elif kind == FrameKind.BYE:
            with self._lock:
                rank = self._rank_on_locked(conn)
                if rank is not None:
                    rank.closed_clean = True
                    if rank.redelivery is not None:
                        # finished for good: nothing left to redeliver
                        rank.redelivery.clear()
        else:
            _log.warning("router: ignoring unknown frame kind %d", kind)

    def _on_hello(
        self, conn: FrameConnection, gid: int, pid: int, epoch: int
    ) -> None:
        offline: float | None = None
        redelivered = 0
        with self._lock:
            rank = self._ranks.get(gid)
            speaker = self._rank_on_locked(conn)
            if rank is None or speaker not in (None, rank):
                _log.warning(
                    "router: refusing HELLO for rank %d from pid %d (%s)",
                    gid, pid,
                    "no such rank was announced" if rank is None else
                    f"its connection already speaks for rank {speaker.gid}",
                )
                return
            if epoch < rank.epoch:
                # a zombie incarnation reconnecting: never route to it
                _log.warning(
                    "router: fencing stale HELLO from rank %d "
                    "(epoch %d < %d)", gid, epoch, rank.epoch,
                )
                return
            rank.conn, rank.pid = conn, pid
            rank.ever_connected, rank.closed_clean = True, False
            if rank.recovering_since is not None:
                offline = _now() - rank.recovering_since
                rank.recovering_since = None
                if rank.redelivery is not None:
                    # replay in original forwarding order; entries stay
                    # buffered until ACK'd (a second death replays again)
                    for frame in rank.redelivery.frames():
                        conn.try_send(frame)
                        redelivered += 1
                self.redelivered_frames += redelivered
            parked, rank.parked = rank.parked, []
            for frame in parked:
                conn.try_send(frame)
        if offline is None:
            _log.debug("router: rank %d online (pid %d)", gid, pid)
        else:
            _T.instant(
                "recovery.rank.online",
                cat="recovery",
                args={
                    "gid": gid, "epoch": epoch, "pid": pid,
                    "redelivered_frames": redelivered,
                    "latency_s": round(offline, 6),
                },
            )
            _T.counter("recovery.redelivered_frames", redelivered, cat="recovery")
            _log.info(
                "router: rank %d reborn (pid %d, epoch %d, %d frames "
                "redelivered, %.3fs offline)",
                gid, pid, epoch, redelivered, offline,
            )
        if self.abort_flag.is_set():
            conn.try_send(_abort_frame(self.abort_flag))

    def _on_envelope(self, body: bytes) -> None:
        h = wire.unpack_envelope_frame(body)
        sender = self._ranks.get(h.origin)
        if sender is not None and h.epoch < sender.epoch:
            # a zombie speaking: the rank was declared dead and respawned,
            # but its old incarnation got a frame out first.  Fence it.
            with self._lock:
                self.stale_frames_dropped += 1
                dropped = self.stale_frames_dropped
            _T.instant(
                "recovery.stale_frame.dropped",
                cat="recovery",
                args={
                    "origin": h.origin, "dest": h.dest, "epoch": h.epoch,
                    "current": sender.epoch, "tag": h.tag,
                },
            )
            _T.counter("recovery.stale_frames_dropped", dropped, cat="recovery")
            _log.debug(
                "router: fenced stale frame from rank %d (epoch %d < %d)",
                h.origin, h.epoch, sender.epoch,
            )
            return
        injector = self.fault_injector
        if injector is None:
            self._deliver(h, body)
            return
        # Materialize an Envelope for the injector.  The payload is only
        # decoded when some rule actually inspects it; otherwise the
        # router stays metadata-only.
        obj: Any = None
        if any(rule.match is not None for rule in injector.rules):
            obj = wire.decode_payload(h.payload, h.flags)
        if h.flags & wire.FLAG_TRUNCATED:
            obj = TruncatedPayload(obj)
        envelope = Envelope(
            h.context, h.source, h.tag, obj, h.nbytes, origin=h.origin
        )
        for out in injector.apply(h.dest, envelope):
            flags = h.flags
            if isinstance(out.payload, TruncatedPayload):
                flags |= wire.FLAG_TRUNCATED
            self._deliver(h._replace(
                context=out.context, source=out.source, tag=out.tag,
                origin=out.origin, nbytes=out.nbytes, flags=flags,
            ))

    def _deliver(
        self, h: wire.EnvelopeHeader, body: bytes | None = None
    ) -> None:
        """Hand one worker-sent envelope to its destination: a mailbox
        hosted here, or the destination rank's connection.  ``body`` is
        the received frame body when ``h`` is still exactly what it
        parsed to: the relay then forwards it verbatim — no re-pack, no
        payload decode (every shuffle byte between workers comes through
        here)."""
        endpoint = self._endpoints.get(h.dest)
        if endpoint is not None:
            endpoint.deposit(_received(h))
            return
        frame = (
            wire.pack_frame(FrameKind.ENVELOPE, body) if body is not None
            else h.frame()
        )
        self._forward(h.dest, frame, h)

    def _handle_disconnect(self, conn: FrameConnection) -> None:
        with self._lock:
            rank = self._rank_on_locked(conn)
            if rank is None:
                return
            rank.conn = None
            clean = rank.closed_clean
        if clean or self._stopping or self.abort_flag.is_set():
            return
        # EOF without BYE/FAIL: the worker process died ungracefully.
        # Try surgical recovery first: mark the rank recovering and hand
        # the respawn to the runtime (the driver loop forks the
        # replacement); an unrecoverable rank falls through to the
        # abort -> whole-job-restart path.
        gid = rank.gid
        if self.begin_recovery(gid):
            _T.instant(
                "recovery.rank.lost",
                cat="recovery",
                args={"gid": gid, "truncated": conn.truncated},
            )
            _log.warning(
                "router: worker rank %d died; attempting surgical respawn", gid
            )
            self._runtime.request_rank_respawn(gid)
            return
        if self._max_respawns > 0:
            kind, why = "respawn", (
                f"worker process for global rank {gid} died but is no "
                f"longer surgically recoverable (respawn budget "
                f"exhausted or redelivery buffer overflow); degrading "
                f"to a whole-job restart"
            )
        elif conn.truncated:
            kind, why = "wire", (
                f"connection to global rank {gid} severed mid-frame "
                f"(process killed or stream corrupted)"
            )
        else:
            kind, why = "rank", (
                f"worker process for global rank {gid} disconnected "
                f"without a goodbye (crashed or killed)"
            )
        self._runtime.record_failure(FailureRecord(
            kind=kind, worker=rank.local_rank,
            where=f"{rank.world}[{rank.local_rank}]", error=why,
        ))
        self._runtime.abort(
            f"lost worker process (global rank {gid})", record=False
        )

    def _dispatch_rpc(self, method: str, params: tuple) -> Any:
        if method == "alloc_context":
            return self._runtime.allocate_context()
        if method == "spawn":
            fn, nprocs, args, parent_group, name = params
            return self._runtime.launch_children(
                fn, nprocs, tuple(args), tuple(parent_group), name
            )
        raise MPIError(f"unknown router rpc {method!r}")


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
    #: process name; set, like ``trace_shard``, by :func:`fork_worker`
    name: str = ""
    #: route self-sends through the router so the driver-side injector
    #: sees the same traffic it would on the threaded backend
    chaos_routed: bool = False
    #: rank epoch: 0 for the first incarnation, bumped on each respawn;
    #: stamped into every outgoing envelope so the router can fence the
    #: previous incarnation's zombie frames
    epoch: int = 0
    #: surgical rank recovery armed for this world (receivers stage
    #: shuffle streams and emit plane ACKs)
    recovery: bool = False
    #: where this incarnation drains its tracer (None = tracing off)
    trace_shard: str | None = None


class WorkerTransport(Transport):
    """One rank's view of the world: its own mailbox + the router link."""

    def __init__(
        self, abort_flag: AbortFlag, spec: WorkerSpec, conn: FrameConnection
    ) -> None:
        super().__init__(abort_flag)
        self._gid = spec.gid
        self._conn = conn
        self._endpoint = self.register(spec.gid)
        self._chaos_routed = spec.chaos_routed
        self._epoch = spec.epoch

    def _route(self, dest: int, envelope: Envelope) -> None:
        if dest == self._gid and not self._chaos_routed:
            self._endpoint.deposit(envelope)
            return
        try:
            self._conn.send(_encode_envelope(dest, envelope, epoch=self._epoch))
        except OSError:
            self.abort_flag.trip("lost connection to the mpidrun router")
            self._endpoint.wake()
            self.abort_flag.check()
        envelope.delivered.set()


class WorkerRuntime(BaseRuntime):
    """The runtime inside a worker process: one rank, one router link.

    Matching, the abort flag and the failure list are process-local and
    inherited as they are; what it overrides is what has to cross the
    wire — global allocation and spawning become router RPCs, aborts and
    failures are also reported to the driver, plane ACKs and telemetry
    snapshots travel as frames.
    """

    launcher = "processes"

    def __init__(self, spec: WorkerSpec, conn: FrameConnection) -> None:
        self._spec = spec
        self._conn = conn
        self.rank_epoch = spec.epoch
        self.rank_recovery = spec.recovery
        super().__init__()
        self._rpc_lock = threading.Lock()
        self._rpc_seq = 0
        self._rpc_pending: dict[int, queue.SimpleQueue] = {}
        self._closing = False
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"{spec.name}-wire", daemon=True
        )
        self._receiver.start()

    def _make_transport(self) -> Transport:
        return WorkerTransport(self.abort_flag, self._spec, self._conn)

    # -- what crosses the wire -------------------------------------------------
    def allocate_context(self) -> int:
        return int(self._rpc("alloc_context", ()))

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
        group, inter_context = self._rpc(
            "spawn", (fn, nprocs, tuple(args), tuple(parent_group), name)
        )
        return tuple(group), int(inter_context)

    def abort(self, reason: str, errorcode: int = 1, record: bool = True) -> None:
        """Abort the world: the driver records it and fans the ABORT out;
        this process unwinds right away."""
        self._conn.try_send(
            wire.pack_obj_frame(FrameKind.ABORT_REQ, (reason, errorcode))
        )
        super().abort(reason, errorcode, record=False)

    def record_failure(self, record: FailureRecord) -> None:
        super().record_failure(record)
        self._conn.try_send(
            wire.pack_obj_frame(FrameKind.FAIL, ([record], None, False))
        )

    def record_error(self, comm: Intracomm, exc: BaseException) -> None:
        records = self._capture_error(comm, exc)
        try:
            blob = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - unpicklable exceptions still report
            blob = None
        # a fatal FAIL aborts the driver's world; only this process is
        # left to unwind
        self._conn.try_send(
            wire.pack_obj_frame(FrameKind.FAIL, (records, blob, True))
        )
        super().abort(f"rank {comm.rank}: {exc!r}", record=False)

    def ack_plane(self, plane_id: str) -> None:
        """Tell the router this rank fully consumed a shuffle plane, so
        its redelivery-buffer entries for that plane can be released."""
        if self.rank_recovery:
            self._conn.try_send(
                wire.pack_obj_frame(FrameKind.ACK, (self._spec.gid, plane_id))
            )

    def ship_telemetry(self, snap: dict) -> None:
        """Fire-and-forget one telemetry snapshot to the driver's hub.

        ``try_send`` keeps telemetry strictly best-effort: a full socket
        or a dying connection drops the snapshot instead of blocking the
        shipper thread or killing the rank.
        """
        self._conn.try_send(wire.pack_obj_frame(FrameKind.TELEMETRY, snap))

    def send_stack_dump(self) -> None:
        """Answer a DUMP_REQ: snapshot the live stacks and queue stats of
        every rank this process hosts and fire them back best-effort."""
        try:
            dumps = self.request_stack_dump()
            if not dumps:
                # the engine has not registered yet (or already left):
                # still identify this incarnation so the doctor sees it
                dumps = [{
                    "rank": self._spec.rank,
                    "epoch": self._spec.epoch,
                    "pid": os.getpid(),
                    "ts": _now(),
                    "threads": [],
                }]
        except Exception:  # noqa: BLE001 - diagnostics never kill the rank
            return
        self._conn.try_send(wire.pack_obj_frame(FrameKind.DUMP, dumps))

    # -- wire plumbing --------------------------------------------------------
    def _rpc(self, method: str, params: tuple) -> Any:
        with self._rpc_lock:
            self._rpc_seq += 1
            req_id = self._rpc_seq
            box: queue.SimpleQueue = queue.SimpleQueue()
            self._rpc_pending[req_id] = box
        self._conn.send(wire.pack_obj_frame(FrameKind.RPC_REQ, (req_id, method, params)))
        deadline = _now() + _RPC_DEADLINE
        while True:
            try:
                ok, result = box.get(timeout=0.1)
                break
            except queue.Empty:
                self.abort_flag.check()
                if _now() > deadline:
                    raise MPIError(
                        f"router rpc {method!r} timed out after {_RPC_DEADLINE}s"
                    ) from None
        if not ok:
            raise MPIError(f"router rpc {method!r} failed: {result}")
        return result

    def _recv_loop(self) -> None:
        conn = self._conn
        mailbox = self.mailbox(self._spec.gid)
        while True:
            try:
                frame = conn.recv()
            except ConnectionError:
                frame = None
            if frame is None:
                if not self._closing and not self.abort_flag.is_set():
                    self.abort_flag.trip("lost connection to the mpidrun router")
                    self._transport.wake_all()
                return
            kind, body = frame
            if kind == FrameKind.ENVELOPE:
                mailbox.deposit(_received(wire.unpack_envelope_frame(body)))
            elif kind == FrameKind.ABORT:
                reason, errorcode = wire.unpack_obj(body)
                self.abort_flag.trip(reason, errorcode)
                self._transport.wake_all()
            elif kind == FrameKind.RPC_REP:
                req_id, ok, result = wire.unpack_obj(body)
                box = self._rpc_pending.pop(req_id, None)
                if box is not None:
                    box.put((ok, result))
            elif kind == FrameKind.DUMP_REQ:
                # reply on the reader thread: dump_stacks never blocks
                self.send_stack_dump()
            else:
                _log.warning("worker: ignoring unknown frame kind %d", kind)

    def close(self) -> None:
        self._closing = True
        self._conn.try_send(wire.pack_frame(FrameKind.BYE))
        self._conn.close()


def fork_worker(
    spec: WorkerSpec, shard_prefix: str | None
) -> tuple[Any, WorkerSpec]:
    """Start the process for incarnation ``spec.epoch`` of a rank.

    A rank's first life and every respawn start here, so this is the one
    place that names an incarnation: its process and — when the job is
    traced — the journal shard it drains its tracer into, which
    ``obs.journal.merge_shards`` finds by the ``.shard-`` infix.
    """
    life = f"e{spec.epoch}" if spec.epoch else ""
    spec = dataclasses.replace(
        spec,
        name=f"{spec.world_name}[{spec.rank}]{life}",
        trace_shard=(
            f"{shard_prefix}.shard-g{spec.gid}{life}.jsonl"
            if shard_prefix else None
        ),
    )
    proc = multiprocessing.get_context(_START_METHOD).Process(
        target=_worker_process_main, args=(spec,), name=spec.name, daemon=True
    )
    proc.start()
    return proc, spec


def _worker_process_main(spec: WorkerSpec) -> None:
    """Entry point of one worker process: handshake, run the rank, report."""
    # the tracer's epoch and meta are the driver's, inherited by the fork,
    # so every shard lands on the driver's timeline
    _T.reset_after_fork()
    PROFILER.reset_after_fork()
    _T.enabled = spec.trace_shard is not None
    conn = wire.connect_local(spec.address, timeout=30.0, retries=4)
    conn.send(
        wire.pack_obj_frame(FrameKind.HELLO, (spec.gid, os.getpid(), spec.epoch))
    )
    runtime = WorkerRuntime(spec, conn)
    comm = Intracomm(
        runtime, spec.world_context, spec.group, spec.rank, name=spec.world_name
    )
    comm.parent = Intercomm(
        runtime,
        spec.inter_context,
        local_group=spec.group,
        remote_group=spec.parent_group,
        rank=spec.rank,
        side=1,
        name=f"{spec.world_name}.parent",
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
        if spec.trace_shard:
            _write_trace_shard(spec.trace_shard)
        runtime.close()
    sys.exit(exitcode)


def _write_trace_shard(path: str) -> None:
    """Drain this process's tracer into a journal shard for the driver to
    merge (``obs.journal.merge_shards``)."""
    import json

    try:
        events = _T.drain()
        if not events:
            return
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
    except Exception:  # noqa: BLE001 - tracing must never fail the rank
        _log.exception("failed to write trace shard %s", path)
