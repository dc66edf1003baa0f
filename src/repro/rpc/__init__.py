"""RPC engines.

Two functional RPC systems sharing one call framing and one serialization
mechanism (Writable), mirroring §I-A: "we further implement an RPC system
based on DataMPI by using the same data serialization mechanism as
default Hadoop RPC".

* :class:`~repro.rpc.server.SocketRpcServer` — the Hadoop 1.x shape over
  a real local socket: listener, shared call queue, handler thread pool,
  response on the originating connection; built on the shared
  :mod:`repro.net.wire` frame loops (the ones the MPI process backend's
  router runs on, which dispatches its workers' calls in these frames
  too).
* :class:`~repro.rpc.server.DataMPIRpcServer` — a dispatcher served over
  a ``repro.mpi`` communicator (tag-matched request/response).

Latency *models* of the same two systems live in :mod:`repro.net.latency`;
this package provides the executable artifacts.
"""

from repro.rpc.client import DataMPIRpcClient, RpcProxy, SocketRpcClient
from repro.rpc.protocol import RpcCall, RpcResponse, decode_message, encode_message
from repro.rpc.server import DataMPIRpcServer, HandlerRegistry, SocketRpcServer

__all__ = [
    "RpcCall",
    "RpcResponse",
    "encode_message",
    "decode_message",
    "HandlerRegistry",
    "DataMPIRpcServer",
    "SocketRpcServer",
    "DataMPIRpcClient",
    "SocketRpcClient",
    "RpcProxy",
]
