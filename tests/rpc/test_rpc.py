"""Tests for the functional RPC engines."""

import gc
import os
import socket
import sys
import threading
import time

import pytest

from repro.common.errors import RPCError
from repro.net import wire
from repro.rpc.client import DataMPIRpcClient, RpcProxy, SocketRpcClient
from repro.rpc.protocol import RpcCall, RpcResponse, decode_message, encode_message
from repro.rpc.server import DataMPIRpcServer, SocketRpcServer
from repro.mpi import run_world


class Calculator:
    """Sample RPC target."""

    def add(self, a, b):
        return a + b

    def echo(self, obj):
        return obj

    def fail(self):
        raise ValueError("intentional")

    def _secret(self):
        return "hidden"


class TestProtocolFraming:
    def test_call_roundtrip(self):
        call = RpcCall(7, "add", (1, 2.5, "x", [1, 2]))
        back = decode_message(encode_message(call))
        assert back == call

    def test_response_roundtrip_ok(self):
        resp = RpcResponse(9, True, {"r": [1, 2]})
        assert decode_message(encode_message(resp)) == resp

    def test_response_roundtrip_error(self):
        resp = RpcResponse(9, False, error="ValueError: bad")
        back = decode_message(encode_message(resp))
        with pytest.raises(RPCError, match="bad"):
            back.unwrap()

    def test_corrupt_frame(self):
        with pytest.raises(RPCError):
            decode_message(b"\x07\x00")


class _HadoopRpcCases:
    """What the Hadoop-style engine answers, whatever its handler count.

    Subclasses pick :attr:`num_handlers`; every case runs once per class.
    """

    num_handlers = 2

    @pytest.fixture()
    def server(self):
        server = SocketRpcServer(Calculator(), num_handlers=self.num_handlers)
        server.start()
        yield server
        server.stop()

    def test_basic_call(self, server):
        client = SocketRpcClient(server.address)
        try:
            assert client.call("add", 2, 3) == 5
            assert server.calls_served == 1
        finally:
            client.close()

    def test_proxy_sugar(self, server):
        client = SocketRpcClient(server.address)
        try:
            proxy = RpcProxy(client)
            assert proxy.add(10, 20) == 30
            assert proxy.echo(["deep", {"k": 1}]) == ["deep", {"k": 1}]
        finally:
            client.close()

    def test_handler_exception_propagates(self, server):
        client = SocketRpcClient(server.address)
        try:
            with pytest.raises(RPCError, match="intentional"):
                client.call("fail")
        finally:
            client.close()

    def test_unknown_method(self, server):
        client = SocketRpcClient(server.address)
        try:
            with pytest.raises(RPCError, match="no such RPC method"):
                client.call("nonexistent")
        finally:
            client.close()

    def test_concurrent_clients(self, server):
        results = {}

        def worker(i):
            client = SocketRpcClient(server.address)
            try:
                results[i] = client.call("add", i, i)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: 2 * i for i in range(8)}

    def test_concurrent_calls_one_client(self, server):
        # a pool of handlers can reply out of order; the client's reader
        # thread must route each response back to the right caller
        client = SocketRpcClient(server.address)
        results = {}

        def worker(i):
            results[i] = client.call("echo", i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert results == {i: i for i in range(10)}

    def test_private_methods_hidden(self, server):
        client = SocketRpcClient(server.address)
        try:
            with pytest.raises(RPCError, match="no such RPC method"):
                client.call("_secret")
        finally:
            client.close()

    def test_dict_target(self):
        server = SocketRpcServer(
            {"double": lambda x: 2 * x}, num_handlers=self.num_handlers
        ).start()
        client = SocketRpcClient(server.address)
        try:
            assert client.call("double", 21) == 42
        finally:
            client.close()
            server.stop()

    def test_connect_after_stop_raises(self):
        server = SocketRpcServer(Calculator(), num_handlers=self.num_handlers)
        server.start()
        server.stop()
        with pytest.raises(OSError):
            SocketRpcClient(server.address)


class TestHadoopRpc(_HadoopRpcCases):
    """Fig. 1(b)'s engine at Hadoop's smallest handler pool: one handler
    thread, so every call waits its turn in the call queue."""

    num_handlers = 1


class TestSocketRpc(_HadoopRpcCases):
    """The Hadoop ipc.Server shape over the shared repro.net.wire loops,
    with a pool that may reply out of order."""

    def test_call_after_close_raises(self, server):
        client = SocketRpcClient(server.address)
        client.close()
        with pytest.raises(RPCError, match="closed"):
            client.call("add", 1, 1)

    def test_stop_with_a_client_connected_returns_and_leaves_no_thread(self):
        server = SocketRpcServer(Calculator(), name="stoptest").start()
        client = SocketRpcClient(server.address)  # still connected
        try:
            assert client.call("add", 1, 1) == 2
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0  # no join(timeout=...) run out
            # the accept loop too: closing a listener does not wake accept()
            assert not [
                t.name for t in threading.enumerate()
                if t.name.startswith("stoptest-")
            ]
        finally:
            client.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc"
    )
    def test_finished_connections_release_their_sockets(self):
        server = SocketRpcServer(Calculator(), name="churn").start()
        try:
            # earlier tests' garbage may hold sockets: collected mid-loop,
            # it would close fds this count took as a baseline
            gc.collect()
            fds = len(os.listdir("/proc/self/fd"))
            for i in range(50):
                client = SocketRpcClient(server.address)
                assert client.call("add", i, 1) == i + 1
                client.close()
            for t in threading.enumerate():
                if t.name == "churn-reader":
                    t.join(5.0)  # each sees its peer's EOF on its own
            assert server._server._conns == []
            assert len(os.listdir("/proc/self/fd")) == fds
        finally:
            server.stop()

    def test_close_returns_once_the_reader_has_exited(self, server):
        """Only the thread that reads a connection closes its fd: close()
        wakes the reader and returns once it has left.  Holding the lock
        the reader takes on its way out keeps it from leaving early."""
        client = SocketRpcClient(server.address)
        assert client.call("add", 1, 1) == 2
        seen = []

        def close():
            client.close()
            seen.append(client._reader.is_alive())

        closer = threading.Thread(target=close)
        with client._lock:
            closer.start()
            closer.join(0.5)  # a close that does not wait returns now
        closer.join(5.0)
        assert seen == [False]
        assert client._conn._sock.fileno() == -1

    def test_churn_beside_a_spinning_thread_loses_no_call(self):
        """Connect, call, close, 3 000 times, while a thread spins on the
        GIL.  A reader that loaded its fd number before another thread
        closed the fd could ``recv`` on the next socket given that number —
        the next client's or the server's — and steal a call's bytes."""
        server = SocketRpcServer(Calculator(), name="spin").start()
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.005)
        spinner.start()
        try:
            for i in range(3000):
                client = SocketRpcClient(server.address, timeout=2.0)
                try:
                    assert client.call("add", i, 1) == i + 1
                finally:
                    client.close()
        finally:
            stop.set()
            spinner.join()
            sys.setswitchinterval(interval)
            server.stop()

    def test_a_malformed_request_costs_its_connection_not_a_handler(self):
        server = SocketRpcServer(Calculator(), num_handlers=1).start()
        client = SocketRpcClient(server.address, timeout=5.0)
        family = (
            socket.AF_UNIX if isinstance(server.address, str) else socket.AF_INET
        )
        try:
            for body in (b"\x07\x00", encode_message(RpcResponse(1, True, 2))):
                with socket.socket(family, socket.SOCK_STREAM) as raw:
                    raw.settimeout(5.0)
                    raw.connect(server.address)
                    raw.sendall(wire.pack_frame(wire.FrameKind.RPC_REQ, body))
                    assert raw.recv(1) == b""  # the server hung up on it
            assert client.call("add", 2, 3) == 5
        finally:
            client.close()
            server.stop()

    def test_a_call_in_flight_when_the_server_stops_fails_at_once(self):
        started, release = threading.Event(), threading.Event()

        def block():
            started.set()
            release.wait(10.0)

        server = SocketRpcServer({"block": block}, num_handlers=1).start()
        client = SocketRpcClient(server.address, timeout=5.0)
        failures = []

        def call():
            try:
                client.call("block")
            except RPCError as exc:
                failures.append((time.monotonic(), str(exc)))

        caller = threading.Thread(target=call)
        caller.start()
        assert started.wait(5.0)
        stopped = time.monotonic()
        # stop() joins the handler still running the call: off this thread
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        try:
            caller.join(5.0)
            assert failures, "the call never returned"
            (failed_at, error), = failures
            assert failed_at - stopped < 1.0, error  # not the 5 s timeout
            assert "closed the connection" in error
            with pytest.raises(RPCError, match="closed"):
                client.call("block")  # and no later call waits either
        finally:
            release.set()
            stopper.join(10.0)
            client.close()
        assert not stopper.is_alive()


class TestDataMPIRpc:
    def test_rpc_over_intracomm(self):
        def main(comm):
            if comm.rank == 0:
                server = DataMPIRpcServer(comm, Calculator())
                return server.serve_forever()
            client = DataMPIRpcClient(comm, server_rank=0)
            total = sum(client.call("add", comm.rank, i) for i in range(5))
            # coordinate shutdown between the clients only: rank 0 is busy
            # serving and cannot join a collective
            if comm.rank == 2:
                comm.send(None, dest=1, tag=555)
            else:
                comm.recv(source=2, tag=555)
                client.shutdown_server()
            return total

        results = run_world(3, main)
        assert results[0] == 10  # calls served: 2 clients x 5 calls
        assert results[1] == 5 * 1 + sum(range(5))
        assert results[2] == 5 * 2 + sum(range(5))

    def test_rpc_over_intercomm(self):
        """mpidrun-style: parent serves control RPC to spawned workers."""

        def worker(comm):
            parent = comm.Get_parent()
            client = DataMPIRpcClient(parent, server_rank=0)
            task = client.call("get_task", comm.rank)
            return task

        def main(comm):
            inter = comm.spawn(worker, nprocs=3)
            server = DataMPIRpcServer(inter, {"get_task": lambda r: f"task-{r}"})
            served = 0
            while served < 3:
                # serve exactly 3 calls then stop
                from repro.mpi.datatypes import ANY_SOURCE, Status
                from repro.rpc.protocol import decode_message, encode_message
                from repro.rpc.server import RPC_REQUEST_TAG, _response_tag

                status = Status()
                frame = inter.recv(ANY_SOURCE, RPC_REQUEST_TAG, status=status)
                call = decode_message(frame)
                resp = server.registry.invoke(call)
                inter.send(
                    encode_message(resp), dest=status.source,
                    tag=_response_tag(call.call_id),
                )
                served += 1
            return served

        results = run_world(1, main)
        assert results == [3]

    def test_error_propagates_over_mpi(self):
        def main(comm):
            if comm.rank == 0:
                DataMPIRpcServer(comm, Calculator()).serve_forever()
                return None
            client = DataMPIRpcClient(comm, server_rank=0)
            try:
                client.call("fail")
            except RPCError as exc:
                result = str(exc)
            client.shutdown_server()
            return result

        assert "intentional" in run_world(2, main)[1]
