"""RPC clients and the attribute-style proxy."""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Any

from repro.common.errors import RPCError
from repro.net import wire
from repro.rpc.protocol import RpcCall, RpcResponse, decode_message, encode_message
from repro.rpc.server import RPC_REQUEST_TAG, _response_tag


class SocketRpcClient:
    """Client for :class:`~repro.rpc.server.SocketRpcServer`.

    Speaks :mod:`repro.net.wire` frames over a real local socket; safe
    for concurrent callers — the handler pool may reply out of order, so
    a reader thread routes responses to waiting calls by id.  When the
    server goes away the reader fails every call still waiting, at once.
    """

    def __init__(self, address: Any, timeout: float = 30.0) -> None:
        self._conn = wire.connect_local(address, timeout=timeout)
        self._timeout = timeout
        self._ids = itertools.count(1)
        self._pending: dict[int, "queue.Queue[RpcResponse]"] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._reader = threading.Thread(
            target=self._route_responses, daemon=True,
            name="socket-rpc-client-reader",
        )
        self._reader.start()

    def _route_responses(self) -> None:
        try:
            while (frame := self._conn.recv()) is not None:
                kind, body = frame
                if kind != wire.FrameKind.RPC_REP:
                    continue
                response = decode_message(body)
                assert isinstance(response, RpcResponse)
                with self._lock:
                    waiter = self._pending.pop(response.call_id, None)
                if waiter is not None:
                    waiter.put(response)
        except ConnectionError:
            pass  # severed mid-frame: as gone as a clean EOF
        finally:
            self._conn.close()  # the one thread that reads it releases it
            with self._lock:
                self._closed = True
                pending, self._pending = self._pending, {}
            for call_id, waiter in pending.items():
                waiter.put(RpcResponse(
                    call_id, False, error="the RPC server closed the connection"
                ))

    def call(self, method: str, *args: Any) -> Any:
        call = RpcCall(next(self._ids), method, args)
        waiter: "queue.Queue[RpcResponse]" = queue.Queue(maxsize=1)
        with self._lock:
            if self._closed:
                raise RPCError("socket RPC client is closed")
            self._pending[call.call_id] = waiter
        try:
            self._conn.send(
                wire.pack_frame(wire.FrameKind.RPC_REQ, encode_message(call))
            )
            response = waiter.get(timeout=self._timeout)
        except OSError as exc:
            raise RPCError(f"RPC {method}: {exc}") from exc
        except queue.Empty:
            raise RPCError(f"RPC {method} timed out after {self._timeout}s") from None
        finally:
            with self._lock:
                self._pending.pop(call.call_id, None)
        return response.unwrap()

    def close(self) -> None:
        """Wake the reader and wait for it: it closes the connection."""
        self._conn.shutdown()
        self._reader.join()


class DataMPIRpcClient:
    """Client for :class:`~repro.rpc.server.DataMPIRpcServer`.

    ``comm`` may be an intra- or intercommunicator; ``server_rank`` is the
    rank running ``serve_forever`` on that communicator.
    """

    def __init__(self, comm: Any, server_rank: int, timeout: float = 30.0) -> None:
        self.comm = comm
        self.server_rank = server_rank
        self._timeout = timeout
        self._ids = itertools.count(1)

    def call(self, method: str, *args: Any) -> Any:
        call = RpcCall(next(self._ids), method, args)
        self.comm.send(encode_message(call), dest=self.server_rank, tag=RPC_REQUEST_TAG)
        frame = self.comm.recv(
            source=self.server_rank,
            tag=_response_tag(call.call_id),
            timeout=self._timeout,
        )
        response = decode_message(frame)
        assert isinstance(response, RpcResponse)
        return response.unwrap()

    def shutdown_server(self) -> None:
        """Stop the server loop (it replies to no one for this frame)."""
        self.comm.send(None, dest=self.server_rank, tag=RPC_REQUEST_TAG)


class RpcProxy:
    """Attribute-style sugar: ``proxy.add(1, 2)`` == ``client.call("add", 1, 2)``."""

    def __init__(self, client: SocketRpcClient | DataMPIRpcClient) -> None:
        self._client = client

    def __getattr__(self, method: str) -> Any:
        if method.startswith("_"):
            raise AttributeError(method)

        def invoke(*args: Any) -> Any:
            return self._client.call(method, *args)

        return invoke
