"""RPC servers.

:class:`SocketRpcServer` reproduces the Hadoop 1.x ``ipc.Server``
architecture over a real local socket: connections accepted by the
shared :class:`repro.net.wire.FrameServer` loops (the skeleton the MPI
process backend's router runs on too) feed a shared *call queue*
drained by a pool of *handler* threads, and responses go back on the
originating connection.  That queue hand-off is exactly the dispatch
cost the latency model charges it for.

:class:`DataMPIRpcServer` serves the same frames over an MPI
communicator: requests arrive as tagged messages, handlers reply to the
source rank.  It is the DataMPI side of the Figure 1(b) functional
comparison.

:class:`HandlerRegistry` is the one name lookup both use — and the
process backend's router, for the calls a worker makes on the star.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Any, Callable

from repro.common.errors import RPCError
from repro.common.logging import get_logger
from repro.net import wire
from repro.rpc.protocol import RpcCall, RpcResponse, decode_message, encode_message

_log = get_logger("rpc.server")

#: reserved tag for DataMPI RPC requests on a communicator
RPC_REQUEST_TAG = 1_000_003


class HandlerRegistry:
    """Maps method names to callables; accepts an object or a dict."""

    def __init__(self, target: Any) -> None:
        self._target = target

    def resolve(self, method: str) -> Callable[..., Any]:
        if isinstance(self._target, dict):
            fn = self._target.get(method)
        else:
            fn = getattr(self._target, method, None)
            if method.startswith("_"):
                fn = None  # never expose private attributes over RPC
        if fn is None or not callable(fn):
            raise RPCError(f"no such RPC method: {method!r}")
        return fn

    def invoke(self, call: RpcCall) -> RpcResponse:
        try:
            result = self.resolve(call.method)(*call.args)
            return RpcResponse(call.call_id, True, result)
        except Exception as exc:  # noqa: BLE001 - errors travel to the client
            detail = "".join(traceback.format_exception_only(exc)).strip()
            return RpcResponse(call.call_id, False, error=detail)


class SocketRpcServer:
    """The Hadoop ipc.Server shape over a real local socket.

    Listener (:class:`~repro.net.wire.FrameServer` accept loop) -> call
    queue -> handler pool -> response on the originating connection.
    Connect with :class:`~repro.rpc.client.SocketRpcClient` at
    :attr:`address`.
    """

    def __init__(
        self, target: Any, num_handlers: int = 4, name: str = "ipc-socket"
    ) -> None:
        self.registry = HandlerRegistry(target)
        self.name = name
        self.calls_served = 0
        self._call_queue: "queue.Queue[tuple[Any, RpcCall] | None]" = queue.Queue()
        self._num_handlers = num_handlers
        self._handlers: list[threading.Thread] = []
        self._server = wire.FrameServer(self._on_frame, name=name)

    @property
    def address(self) -> Any:
        """What :class:`~repro.rpc.client.SocketRpcClient` connects to."""
        return self._server.address

    def start(self) -> "SocketRpcServer":
        self._server.start()
        for i in range(self._num_handlers):
            t = threading.Thread(
                target=self._handler_loop,
                name=f"{self.name}-handler-{i}", daemon=True,
            )
            t.start()
            self._handlers.append(t)
        return self

    def _on_frame(self, conn: wire.FrameConnection, kind: int, body: bytes) -> None:
        # runs on the connection's reader thread: decode and enqueue only,
        # so one slow call never blocks the connection's other requests
        if kind != wire.FrameKind.RPC_REQ:
            return
        try:
            call = decode_message(body)
            if not isinstance(call, RpcCall):
                raise RPCError(f"a {type(call).__name__} sent as a request")
        except Exception as exc:  # noqa: BLE001 - malformed input from outside
            _log.warning("%s: closing a connection: %s", self.name, exc)
            conn.close()
            return
        self._call_queue.put((conn, call))

    def _handler_loop(self) -> None:
        while True:
            item = self._call_queue.get()
            if item is None:
                break
            conn, call = item
            response = self.registry.invoke(call)
            # count before replying so the client never observes a
            # response ahead of the served-call accounting
            self.calls_served += 1
            # best-effort: the client may have hung up mid-call
            conn.try_send(
                wire.pack_frame(wire.FrameKind.RPC_REP, encode_message(response))
            )

    def stop(self) -> None:
        for _ in self._handlers:
            self._call_queue.put(None)
        self._server.stop()
        for t in self._handlers:
            t.join(timeout=5)


class DataMPIRpcServer:
    """RPC dispatcher over a ``repro.mpi`` communicator.

    ``serve_forever`` runs on the server rank's own thread: it receives
    ``(client_rank, frame)`` requests tagged :data:`RPC_REQUEST_TAG`,
    dispatches, and replies with a tag equal to the call id so concurrent
    clients never cross-match.  A ``None`` frame shuts the loop down.
    """

    def __init__(self, comm: Any, target: Any) -> None:
        self.comm = comm
        self.registry = HandlerRegistry(target)
        self.calls_served = 0

    def serve_forever(self) -> int:
        """Serve until a shutdown frame; returns calls served."""
        from repro.mpi.datatypes import ANY_SOURCE, Status

        while True:
            status = Status()
            frame = self.comm.recv(
                source=ANY_SOURCE, tag=RPC_REQUEST_TAG, status=status
            )
            if frame is None:
                return self.calls_served
            message = decode_message(frame)
            assert isinstance(message, RpcCall)
            response = self.registry.invoke(message)
            self.comm.send(
                encode_message(response), dest=status.source, tag=_response_tag(message.call_id)
            )
            self.calls_served += 1


def _response_tag(call_id: int) -> int:
    """Map a call id into the user tag space, away from the request tag."""
    return RPC_REQUEST_TAG + 1 + (call_id % 100_000)
