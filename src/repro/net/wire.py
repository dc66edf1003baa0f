"""Length-prefixed frame protocol shared by the socket backends.

This is the *real* wire layer (``net/protocol.py`` is the Figure 1a
transfer-cost *model*; see :data:`repro.net.protocol.LocalSocketStack`
for the modelled cost of this stack).  Two consumers share it:

* :mod:`repro.mpi.socket_transport` — the process-per-rank MPI backend
  routes pickled envelopes between worker processes through a driver-side
  router using these frames; everything else a worker asks of the driver
  is one call by name.
* :mod:`repro.rpc.server` / :mod:`repro.rpc.client` — the Hadoop-style
  RPC layer serves its call protocol over the same accept/read loops
  instead of re-implementing them.

Both speak one call format: an ``RPC_REQ`` body is a
:class:`repro.rpc.protocol.RpcCall` and an ``RPC_REP`` body an
:class:`~repro.rpc.protocol.RpcResponse`, Writable-encoded
(:func:`repro.rpc.protocol.encode_message`).

Frame layout on the wire::

    !I            frame length N (bytes that follow)
    B             frame kind (FrameKind)
    N-1 bytes     body

Envelope frames carry a fixed struct header so the router can route and
fault-inject on metadata *without unpickling the payload*::

    !6i3qB        context, source, tag, origin, dest, epoch,
                  trace, parent, nbytes, flags
    ...           payload body (FLAG_BATCH: structured record-batch
                  layout below; otherwise serde PickleSerializer bytes)

``epoch`` is the sender's rank incarnation number: 0 for a first spawn,
incremented each time the driver respawns that rank.  The router fences
stale incarnations with it — a zombie process whose rank was already
respawned keeps stamping the old epoch, and its frames are dropped at
the hub instead of corrupting the reincarnated rank's streams.

``trace``/``parent`` are the causal-tracing pair: a 63-bit flow id
linking the sender-side span to the receiver-side span, and the id of
the emitting span.  Zero means "untraced" — the common case — and
costs nothing beyond the 16 header bytes.  The exporter turns matched
pairs into Chrome-trace flow events (see ``repro.obs.journal``).

Shuffle batch envelopes — the data-plane hot path — skip pickle
entirely.  A ``("batch", plane_id, (seq, origin, blocks, eos))`` message
(every block carries a sealed :class:`~repro.serde.batch.RecordBatch`)
is framed with the Writable primitives (FLAG_BATCH set)::

    utf           plane_id
    vlong         seq
    vint          origin
    boolean       eos
    vint          number of blocks
    per block:
      vint        partition_id
      vlong       nbytes
      byte        flags: 1 = sorted, 2 = raw batch
      vint        record count
      vint        len(batch bytes)
      ...         batch bytes, copied verbatim from the sealed batch

so the batch bytes sealed by the sender-side buffer travel to the
receiving process without any re-encode; the decoder hands back batches
as zero-copy views over the frame body.

Everything else but the RPC frames (control traffic, application
point-to-point messages) is pickled at the wire boundary via
:class:`repro.serde.serialization.PickleSerializer` — the same "Java
Serializable analogue" the shuffle can be configured with, so anything a
job can shuffle it can also send across the process boundary.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import struct
import tempfile
import threading
import time
from typing import Any, Callable, NamedTuple

from repro.common.logging import get_logger
from repro.serde.io import DataInput, DataOutput
from repro.serde.serialization import PickleSerializer

_log = get_logger("net.wire")

_LEN = struct.Struct("!I")
_ENV_HEADER = struct.Struct("!6i3qB")

#: single serializer instance for the wire boundary (stateless)
WIRE_SERDE = PickleSerializer()

MAX_FRAME = 1 << 30  # defensive cap: a corrupt length prefix fails loudly


class FrameKind:
    """One byte discriminating what a frame body means."""

    HELLO = 1       # worker -> router: (gid, pid, epoch) rank handshake
    ENVELOPE = 2    # either direction: header + pickled payload
    ABORT = 3       # router -> workers: (reason, errorcode); wakes everyone
    BYE = 6         # worker -> router: clean shutdown (EOF without BYE = crash)
    RPC_REQ = 7     # client -> server: an RpcCall, a call by name;
                    # call_id 0 = fire-and-forget, no RPC_REP follows
    RPC_REP = 8     # server -> client: the RpcResponse to that call_id

#: truncate-fault marker in the envelope header flags byte
FLAG_TRUNCATED = 0x01
#: payload is the structured record-batch layout, not pickle
FLAG_BATCH = 0x02

#: block flag bits inside a FLAG_BATCH body
_BLOCK_SORTED = 0x01
_BLOCK_RAW = 0x02

#: lazily resolved (Block, RecordBatch) — net sits below core in the
#: layering, so the shuffle types are imported on first use only
_shuffle_types_cache = None


def _shuffle_types():
    global _shuffle_types_cache
    if _shuffle_types_cache is None:
        from repro.core.buffers import Block
        from repro.serde.batch import RecordBatch

        _shuffle_types_cache = (Block, RecordBatch)
    return _shuffle_types_cache


def encode_payload(payload: Any) -> tuple[bytes, int]:
    """Encode an envelope payload: ``(body, flag_bits)``.

    Shuffle batch messages use the structured FLAG_BATCH layout (batch
    bytes copied verbatim, no pickle); everything else falls back to
    :data:`WIRE_SERDE`.
    """
    body = _encode_shuffle_batch(payload)
    if body is not None:
        return body, FLAG_BATCH
    return WIRE_SERDE.dumps(payload), 0


def decode_payload(body: bytes, flags: int) -> Any:
    """Inverse of :func:`encode_payload` (flags from the envelope header)."""
    if flags & FLAG_BATCH:
        return _decode_shuffle_batch(body)
    return WIRE_SERDE.loads(body)


def _encode_shuffle_batch(payload: Any) -> bytes | None:
    """The FLAG_BATCH body for a shuffle batch message, or ``None`` when
    the payload is not one (caller falls back to pickle)."""
    if not (isinstance(payload, tuple) and len(payload) == 3):
        return None
    kind, plane_id, inner = payload
    if kind != "batch" or not isinstance(plane_id, str):
        return None
    if not (isinstance(inner, tuple) and len(inner) == 4):
        return None
    seq, origin, blocks, eos = inner
    if (
        not isinstance(seq, int)
        or not isinstance(origin, int)
        or not isinstance(eos, bool)
        or not isinstance(blocks, list)
    ):
        return None
    block_cls, _ = _shuffle_types()
    if any(type(block) is not block_cls for block in blocks):
        return None  # an application message that merely looks like one
    out = DataOutput()
    out.write_utf(plane_id)
    out.write_vlong(seq)
    out.write_vint(origin)
    out.write_boolean(eos)
    out.write_vint(len(blocks))
    for block in blocks:
        batch = block.records
        out.write_vint(block.partition_id)
        out.write_vlong(block.nbytes)
        out.write_byte(
            (_BLOCK_SORTED if block.sorted else 0)
            | (_BLOCK_RAW if batch.raw else 0)
        )
        out.write_vint(batch.count)
        out.write_vint(len(batch.data))
        out.write_bytes(batch.data)
    return out.getvalue()


def _decode_shuffle_batch(body: bytes) -> Any:
    """Rebuild the shuffle batch message; batch payloads are zero-copy
    views over ``body`` (the views keep the frame body alive)."""
    block_cls, batch_cls = _shuffle_types()
    src = DataInput(body)
    plane_id = src.read_utf()
    seq = src.read_vlong()
    origin = src.read_vint()
    eos = src.read_boolean()
    blocks = []
    for _ in range(src.read_vint()):
        partition_id = src.read_vint()
        nbytes = src.read_vlong()
        block_flags = src.read_byte()
        count = src.read_vint()
        data = src.read_view(src.read_vint())
        blocks.append(
            block_cls(
                partition_id,
                batch_cls(data, count, raw=bool(block_flags & _BLOCK_RAW)),
                nbytes,
                sorted=bool(block_flags & _BLOCK_SORTED),
            )
        )
    return ("batch", plane_id, (seq, origin, blocks, eos))


def pack_frame(kind: int, body: bytes = b"") -> bytes:
    """One contiguous buffer: length prefix + kind + body."""
    return _LEN.pack(1 + len(body)) + bytes([kind]) + body


def pack_obj_frame(kind: int, obj: Any) -> bytes:
    """Frame whose body is one serde-pickled object."""
    return pack_frame(kind, WIRE_SERDE.dumps(obj))


def unpack_obj(body: bytes) -> Any:
    return WIRE_SERDE.loads(body)


def pack_envelope_frame(
    context: int,
    source: int,
    tag: int,
    origin: int,
    dest: int,
    nbytes: int,
    payload: bytes,
    flags: int = 0,
    epoch: int = 0,
    trace: int = 0,
    parent: int = 0,
) -> bytes:
    """ENVELOPE frame: routable header + already-encoded payload bytes."""
    return EnvelopeHeader(
        context, source, tag, origin, dest, epoch, trace, parent, nbytes,
        flags, payload,
    ).frame()


class EnvelopeHeader(NamedTuple):
    """A parsed ENVELOPE frame body: the routable header, then the
    still-encoded payload (see the module docstring for the layout)."""

    context: int
    source: int
    tag: int
    origin: int
    dest: int
    epoch: int
    trace: int
    parent: int
    nbytes: int
    flags: int
    payload: bytes

    def frame(self) -> bytes:
        """This header and payload packed as one ENVELOPE frame."""
        return pack_frame(
            FrameKind.ENVELOPE, _ENV_HEADER.pack(*self[:10]) + self.payload
        )


def unpack_envelope_frame(body: bytes) -> EnvelopeHeader:
    """Split an ENVELOPE frame body into its header fields and payload."""
    return EnvelopeHeader._make(
        _ENV_HEADER.unpack_from(body) + (body[_ENV_HEADER.size:],)
    )


class FrameTruncatedError(ConnectionError):
    """The peer vanished *mid-frame* (or sent a corrupt length prefix).

    Distinct from a clean EOF at a frame boundary (``recv() -> None``):
    truncation means bytes were lost in flight — a severed stream or a
    process killed mid-write — and the connection's last frame cannot be
    trusted.  Consumers surface it as a ``wire``-kind failure record
    rather than the generic "peer went away".
    """


class FrameConnection:
    """A socket speaking the frame protocol.

    Writes are serialized by a lock so any thread may send; reads are
    expected from a single reader thread (the accept loop or the worker
    receiver), matching how both consumers use it.

    ``recv`` distinguishes how the peer went away: ``None`` for EOF at a
    frame boundary (orderly close, or abrupt close between frames) vs
    :class:`FrameTruncatedError` for EOF inside a frame; ``truncated``
    latches once the latter happened.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        #: latched when the peer disappeared mid-frame
        self.truncated = False

    def send(self, frame: bytes) -> None:
        """Send one pre-packed frame; raises ConnectionError when closed."""
        with self._send_lock:
            if self._closed:
                raise ConnectionError("frame connection is closed")
            self._sock.sendall(frame)

    def try_send(self, frame: bytes) -> bool:
        """Best-effort send for teardown paths (abort fan-out)."""
        try:
            self.send(frame)
            return True
        except OSError:
            return False

    def recv(self) -> tuple[int, bytes] | None:
        """One (kind, body) frame, or ``None`` on EOF at a frame boundary.

        Raises :class:`FrameTruncatedError` when the stream ends inside
        a frame — the peer died mid-write and data was lost.
        """
        head = self._recv_exact(_LEN.size)
        if head is None:
            return None
        (length,) = _LEN.unpack(head)
        if not 1 <= length <= MAX_FRAME:
            self.truncated = True
            raise FrameTruncatedError(f"corrupt frame length {length}")
        body = self._recv_exact(length, mid_frame=True)
        assert body is not None  # mid_frame raises instead of returning None
        return body[0], body[1:]

    def _recv_exact(self, n: int, mid_frame: bool = False) -> bytes | None:
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as exc:
                if chunks or mid_frame:
                    self.truncated = True
                    raise FrameTruncatedError(
                        f"stream severed {n - remaining}/{n} bytes into a "
                        f"{'frame body' if mid_frame else 'length prefix'}"
                    ) from exc
                return None
            if not chunk:
                if chunks or mid_frame:
                    self.truncated = True
                    raise FrameTruncatedError(
                        f"peer closed {n - remaining}/{n} bytes into a "
                        f"{'frame body' if mid_frame else 'length prefix'}"
                    )
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        with self._send_lock:
            self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()


def listen_local(name: str = "wire") -> tuple[socket.socket, Any]:
    """A listening socket reachable from child processes on this host.

    Prefers an abstract-namespace-free AF_UNIX socket under a private
    tempdir (no TCP stack, no port exhaustion); falls back to loopback
    TCP on platforms without AF_UNIX.  Returns ``(server, address)``
    where ``address`` is what :func:`connect_local` accepts.
    """
    if hasattr(socket, "AF_UNIX"):
        directory = tempfile.mkdtemp(prefix=f"repro-{name}-")
        path = os.path.join(directory, "sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(128)
        return server, path
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(128)
    return server, server.getsockname()


#: default jitter source for connect backoff; tests pass a seeded Random
_CONNECT_RNG = random.Random()


def connect_local(
    address: Any,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.05,
    backoff_cap: float = 1.0,
    rng: random.Random | None = None,
) -> FrameConnection:
    """Connect to a :func:`listen_local` address.

    With ``retries > 0``, a refused/failed connect is retried with
    exponentially growing, jittered, capped delays: attempt *k* sleeps
    ``min(backoff_cap, backoff * 2**k)`` scaled by a uniform factor in
    ``[0.5, 1.5)`` so simultaneous reconnectors (a whole world of
    respawned ranks) don't stampede the accept queue in lockstep.  Pass
    a seeded ``rng`` for deterministic test schedules.
    """
    jitter = rng if rng is not None else _CONNECT_RNG
    attempt = 0
    while True:
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            sock.connect(address)
        except OSError:
            with contextlib.suppress(OSError):
                sock.close()
            if attempt >= retries:
                raise
            delay = min(backoff_cap, backoff * (2 ** attempt))
            time.sleep(delay * (0.5 + jitter.random()))
            attempt += 1
            continue
        sock.settimeout(None)
        return FrameConnection(sock)


def cleanup_local(address: Any) -> None:
    """Remove the filesystem residue of an AF_UNIX listen address."""
    if isinstance(address, str):
        with contextlib.suppress(OSError):
            os.unlink(address)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(address))


class FrameServer:
    """Shared accept loop + per-connection frame-read loops.

    Both the MPI process-backend router and the socket RPC server are
    "accept connections, read frames, hand each to a handler" servers;
    this class owns that skeleton so neither reimplements it.

    ``handler(conn, kind, body)`` runs on the connection's reader thread
    (frames from one peer are therefore processed in arrival order — the
    non-overtaking guarantee the MPI layer needs).  ``on_disconnect(conn)``
    fires exactly once when the peer goes away, cleanly or not.
    """

    def __init__(
        self,
        handler: Callable[[FrameConnection, int, bytes], None],
        on_disconnect: Callable[[FrameConnection], None] | None = None,
        name: str = "wire",
    ) -> None:
        self._handler = handler
        self._on_disconnect = on_disconnect
        self._name = name
        self._server, self.address = listen_local(name)
        self._accept_thread: threading.Thread | None = None
        self._readers: list[threading.Thread] = []
        self._conns: list[FrameConnection] = []
        self._lock = threading.Lock()
        self._stopping = False

    def start(self) -> "FrameServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self._name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self._server.accept()
            except OSError:
                return  # listener closed during stop()
            if self._server.family == socket.AF_INET:
                with contextlib.suppress(OSError):
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = FrameConnection(sock)
            reader = threading.Thread(
                target=self._read_loop, args=(conn,),
                name=f"{self._name}-reader", daemon=True,
            )
            with self._lock:
                self._conns.append(conn)
                self._readers.append(reader)
            reader.start()

    def _read_loop(self, conn: FrameConnection) -> None:
        try:
            while True:
                try:
                    frame = conn.recv()
                except FrameTruncatedError as exc:
                    # conn.truncated is latched; the disconnect handler
                    # reads it to blame a severed stream, not a clean exit.
                    # stop() closing the socket under a read is no news
                    if not self._stopping:
                        _log.warning("%s: %s", self._name, exc)
                    break
                if frame is None:
                    break
                kind, body = frame
                try:
                    self._handler(conn, kind, body)
                except Exception:  # handler bugs must not kill the reader
                    _log.exception("%s: frame handler failed", self._name)
        finally:
            if self._on_disconnect is not None and not self._stopping:
                try:
                    self._on_disconnect(conn)
                except Exception:
                    _log.exception("%s: disconnect handler failed", self._name)

    def connections(self) -> list[FrameConnection]:
        with self._lock:
            return list(self._conns)

    def stop(self) -> None:
        self._stopping = True
        # closing alone does not wake a thread blocked in accept() on
        # Linux; shutting the listener down does
        with contextlib.suppress(OSError):
            self._server.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._server.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        cleanup_local(self.address)
        for conn in self.connections():
            conn.close()
        for reader in list(self._readers):
            reader.join(timeout=2.0)
