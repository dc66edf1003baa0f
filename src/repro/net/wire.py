"""Length-prefixed frame protocol shared by the socket backends.

This is the *real* wire layer (``net/protocol.py`` is the Figure 1a
transfer-cost *model*).  Two consumers share it:

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

Envelope frames carry a fixed struct header so the router can route
*without unpickling the payload*::

    !5iqB         context, source, tag, origin, dest, nbytes, flags
    ...           payload body: one pickle of the payload

The header is routing alone; nothing in it says which life of a rank
sent the frame or what happened to the payload on the way.

Every payload — shuffle batches, control traffic, application
point-to-point messages — is one ``pickle.dumps`` at the wire boundary,
so anything a job can send it can send across the process boundary.
This layer knows nothing of what a payload means: a shuffle block's
sealed :class:`~repro.serde.batch.RecordBatch` pickles as its bytes
(``RecordBatch.__reduce__``), so those bytes travel without a re-encode.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import random
import socket
import struct
import tempfile
import threading
import time
from typing import Any, Callable, NamedTuple

from repro.common.logging import get_logger
from repro.serde.serialization import _pickled

_log = get_logger("net.wire")

_LEN = struct.Struct("!I")
_ENV_HEADER = struct.Struct("!5iqB")

MAX_FRAME = 1 << 30  # defensive cap: a corrupt length prefix fails loudly


class FrameKind:
    """One byte discriminating what a frame body means."""

    HELLO = 1       # worker -> router: (gid, pid, incarnation) rank handshake
    ENVELOPE = 2    # either direction: header + pickled payload
    ABORT = 3       # router -> workers: (reason, errorcode); wakes everyone
    BYE = 6         # worker -> router: clean shutdown (EOF without BYE = crash)
    RPC_REQ = 7     # client -> server: an RpcCall, a call by name;
                    # call_id 0 = fire-and-forget, no RPC_REP follows
    RPC_REP = 8     # server -> client: the RpcResponse to that call_id

#: inert: every payload is pickled, so nothing sets it.  Kept only
#: because the frozen ``bench/replay.py`` passes it as a header flag;
#: delete it with the next benchmark revision
FLAG_BATCH = 0x02


def encode_payload(payload: Any) -> tuple[bytes, int]:
    """Encode an envelope payload: ``(body, 0)`` — one pickle, and no
    flag bits for the envelope header."""
    return _pickled(payload), 0


def decode_payload(body: bytes, flags: int) -> Any:
    """Inverse of :func:`encode_payload`; no header flag changes how a
    payload decodes."""
    return pickle.loads(body)


def pack_frame(kind: int, body: bytes = b"") -> bytes:
    """One contiguous buffer: length prefix + kind + body."""
    return _LEN.pack(1 + len(body)) + bytes([kind]) + body


def pack_obj_frame(kind: int, obj: Any) -> bytes:
    """Frame whose body is one pickled object."""
    return pack_frame(kind, _pickled(obj))


def unpack_obj(body: bytes) -> Any:
    return pickle.loads(body)


def pack_envelope_frame(
    context: int,
    source: int,
    tag: int,
    origin: int,
    dest: int,
    nbytes: int,
    payload: bytes,
    flags: int = 0,
) -> bytes:
    """ENVELOPE frame: routable header + already-encoded payload bytes."""
    return EnvelopeHeader(
        context, source, tag, origin, dest, nbytes, flags, payload,
    ).frame()


class EnvelopeHeader(NamedTuple):
    """A parsed ENVELOPE frame body: the routable header, then the
    still-encoded payload (see the module docstring for the layout)."""

    context: int
    source: int
    tag: int
    origin: int
    dest: int
    nbytes: int
    flags: int
    payload: bytes

    def frame(self) -> bytes:
        """This header and payload packed as one ENVELOPE frame."""
        return pack_frame(
            FrameKind.ENVELOPE, _ENV_HEADER.pack(*self[:7]) + self.payload
        )


def unpack_envelope_frame(body: bytes) -> EnvelopeHeader:
    """Split an ENVELOPE frame body into its header fields and payload."""
    return EnvelopeHeader._make(
        _ENV_HEADER.unpack_from(body) + (body[_ENV_HEADER.size:],)
    )


class FrameTruncatedError(ConnectionError):
    """The peer vanished *mid-frame* (or sent a corrupt length prefix).

    Unlike a clean EOF at a frame boundary (``recv() -> None``), bytes
    were lost in flight — a severed stream or a process killed mid-write.
    Consumers surface it as a ``wire``-kind failure record rather than
    the generic "peer went away"."""


class FrameConnection:
    """A socket speaking the frame protocol.

    Writes are serialized by a lock so any thread may send; one reader
    thread reads it and closes it.  Another thread stops it with
    ``shutdown``, which wakes that reader: a reader that had loaded the fd
    number for its next ``recv`` would read whatever socket gets it next.

    ``recv`` distinguishes how the peer went away: ``None`` for EOF at a
    frame boundary (orderly close, or abrupt close between frames) vs
    :class:`FrameTruncatedError` for EOF inside a frame; ``truncated``
    latches once the latter happened.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._fd_lock = threading.Lock()  # a shutdown never meets a close
        self._closed = False
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
            severed = None
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as exc:
                chunk, severed = b"", exc
            if not chunk:
                if chunks or mid_frame:
                    self.truncated = True
                    raise FrameTruncatedError(
                        f"{'stream severed' if severed else 'peer closed'} "
                        f"{n - remaining}/{n} bytes into a "
                        f"{'frame body' if mid_frame else 'length prefix'}"
                    ) from severed
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def shutdown(self) -> None:
        """Refuse sends and wake the reader; the fd stays open."""
        with self._send_lock:
            self._closed = True
        with self._fd_lock, contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        """Shut down and release the fd: the reading thread's call."""
        self.shutdown()
        with self._fd_lock, contextlib.suppress(OSError):
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
    fires exactly once when the peer goes away, cleanly or not; the
    connection is closed and forgotten right after it.
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
                    # conn.truncated is latched for the disconnect handler;
                    # stop() shutting the socket under a read is no news
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
            # release a finished connection now, not at stop()
            conn.close()
            with self._lock:
                self._conns.remove(conn)
                self._readers.remove(threading.current_thread())

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
        with self._lock:
            conns, readers = list(self._conns), list(self._readers)
        for conn in conns:
            conn.shutdown()  # its reader closes it on the way out
        for reader in readers:
            reader.join(timeout=2.0)
