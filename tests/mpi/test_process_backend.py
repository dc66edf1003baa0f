"""The process-per-rank socket backend: wire framing, ProcessRuntime
end-to-end, worker failure capture, and spawn-over-socket.

Everything the thread backend guarantees (matching semantics, abort
fan-out, structured failure records) must hold when each rank is an OS
process connected to the driver-side router over a local socket.
"""

import os
import pickle
import socket
import threading

import pytest

from repro.common.errors import MPIAbort, MPIError, SerializationError
from repro.mpi.datatypes import SUM
from repro.mpi.runtime import ProcessRuntime, ThreadRuntime, create_runtime
from repro.mpi.transport import Envelope, TruncatedPayload
from repro.net.wire import (
    EnvelopeHeader,
    FrameConnection,
    FrameKind,
    FrameTruncatedError,
    pack_envelope_frame,
    pack_frame,
    pack_obj_frame,
    unpack_envelope_frame,
    unpack_obj,
)


# -- wire framing -----------------------------------------------------------------


class TestWireFrames:
    def test_envelope_header_round_trip(self):
        payload = pickle.dumps({"key": "value", "n": 41})
        frame = pack_envelope_frame(
            context=12, source=3, tag=900_001, origin=7, dest=5,
            nbytes=len(payload), payload=payload,
        )
        conn_kind, body = frame[4], frame[5:]
        assert conn_kind == FrameKind.ENVELOPE
        context, source, tag, origin, dest, nbytes, flags, raw = (
            unpack_envelope_frame(body)
        )
        # !5iqB: routing alone, no tracing id and no incarnation ride
        assert len(body) == 29 + len(payload)
        assert "epoch" not in EnvelopeHeader._fields
        assert (context, source, tag, origin, dest) == (12, 3, 900_001, 7, 5)
        assert nbytes == len(payload)
        assert flags == 0
        assert pickle.loads(raw) == {"key": "value", "n": 41}

    def test_negative_tags_and_wildcards_survive_the_struct(self):
        # ANY_SOURCE/ANY_TAG are negative sentinels; the header must be signed
        frame = pack_envelope_frame(
            context=4, source=-1, tag=-1, origin=2, dest=0,
            nbytes=0, payload=b"",
        )
        context, source, tag, *_ = unpack_envelope_frame(frame[5:])
        assert (context, source, tag) == (4, -1, -1)

    def test_obj_frame_round_trip(self):
        frame = pack_obj_frame(FrameKind.HELLO, (7, 1234))
        assert frame[4] == FrameKind.HELLO
        assert unpack_obj(frame[5:]) == (7, 1234)

    def test_frame_connection_preserves_order_over_a_socketpair(self):
        left, right = socket.socketpair()
        a, b = FrameConnection(left), FrameConnection(right)
        try:
            for i in range(50):
                a.send(pack_obj_frame(FrameKind.HELLO, i))
            a.send(pack_frame(FrameKind.BYE))
            got = []
            while True:
                kind, body = b.recv()
                if kind == FrameKind.BYE:
                    break
                got.append(unpack_obj(body))
            assert got == list(range(50))  # non-overtaking on one connection
        finally:
            a.close()
            b.close()

    def test_eof_reads_as_none_not_an_exception(self):
        left, right = socket.socketpair()
        a, b = FrameConnection(left), FrameConnection(right)
        a.close()
        assert b.recv() is None
        assert not b.truncated  # a clean close is not corruption
        b.close()

    def test_mid_frame_eof_raises_and_latches_truncated(self):
        # a SIGKILL'd peer can die between the length prefix and the body:
        # that must surface as FrameTruncatedError, not a silent None
        left, right = socket.socketpair()
        b = FrameConnection(right)
        frame = pack_obj_frame(FrameKind.HELLO, {"big": "x" * 512})
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(FrameTruncatedError):
            b.recv()
        assert b.truncated
        b.close()

    def test_eof_inside_the_length_prefix_is_also_truncation(self):
        left, right = socket.socketpair()
        b = FrameConnection(right)
        left.sendall(b"\x00\x00")  # 2 of the 4 length bytes
        left.close()
        with pytest.raises(FrameTruncatedError):
            b.recv()
        assert b.truncated
        b.close()

    def test_connect_local_retries_until_the_listener_appears(self, tmp_path):
        import random
        import threading
        import time

        from repro.net.wire import connect_local

        # a respawned worker may beat the router to the socket: the first
        # connects fail, the jittered retry loop must absorb that
        path = str(tmp_path / "late-sock")
        server_box = []

        def late_listener():
            time.sleep(0.1)
            server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            server.bind(path)
            server.listen(8)
            server_box.append(server)

        threading.Thread(target=late_listener, daemon=True).start()
        conn = connect_local(
            path, timeout=5.0, retries=10, backoff=0.02,
            rng=random.Random(1234),
        )
        conn.close()
        server_box[0].close()

    def test_connect_local_gives_up_after_its_retry_budget(self, tmp_path):
        import random

        from repro.net.wire import connect_local

        nobody = str(tmp_path / "nobody-home")
        with pytest.raises(OSError):
            connect_local(nobody, timeout=1.0, retries=2, backoff=0.01,
                          rng=random.Random(5))


# -- runtime selection ---------------------------------------------------------


class TestCreateRuntime:
    def test_launcher_names(self):
        assert isinstance(create_runtime("threads"), ThreadRuntime)
        runtime = create_runtime("processes")
        try:
            assert isinstance(runtime, ProcessRuntime)
        finally:  # its router listens under the tempdir
            runtime._transport.shutdown()
        with pytest.raises(MPIError, match="unknown launcher"):
            create_runtime("sockets")  # the aliases are gone

    def test_unknown_launcher_is_an_error(self):
        with pytest.raises(MPIError, match="unknown launcher"):
            create_runtime("quantum")


# -- end-to-end worlds ---------------------------------------------------------

# module-level so the fns are picklable: worker-initiated spawn ships them
# over the router RPC (fork inherits driver-initiated closures, but deep
# spawns cannot rely on inheritance)


def _child_main(comm, base):
    total = comm.allreduce(comm.rank + base, SUM)
    if comm.rank == 0:
        comm.send("ping", dest=1, tag=7)
        assert comm.recv(source=1, tag=8) == "pong"
    elif comm.rank == 1:
        assert comm.recv(source=0, tag=7) == "ping"
        comm.send("pong", dest=0, tag=8)
    comm.parent.send(("result", comm.rank, total), dest=0, tag=5)


def _driver(comm, nprocs):
    inter = comm.spawn(_child_main, nprocs, args=(10,), name="kids")
    return sorted(inter.recv(tag=5) for _ in range(nprocs))


def _crasher(comm):
    if comm.rank == 1:
        raise ValueError("boom from worker")
    comm.recv(source=0, tag=99, timeout=30)  # blocks until the abort


def _crash_driver(comm, n):
    inter = comm.spawn(_crasher, n, name="crash")
    inter.recv(tag=5)  # never arrives


def _killed(comm):
    if comm.rank == 0:
        os._exit(1)  # no BYE, no FAIL: simulates a hard kill
    comm.recv(source=0, tag=99, timeout=30)


def _kill_driver(comm, n):
    inter = comm.spawn(_killed, n, name="killed")
    inter.recv(tag=5)


def _grandchild(comm, token):
    comm.parent.send(("gc", comm.rank, token), dest=0, tag=11)


def _spawning_worker(comm):
    # spawn is collective: every rank of the child world calls it
    inter = comm.spawn(_grandchild, 2, args=("deep",), name="gkids")
    if comm.rank == 0:
        got = sorted(inter.recv(tag=11) for _ in range(2))
        comm.parent.send(got, dest=0, tag=12)


def _spawn_driver(comm, n):
    inter = comm.spawn(_spawning_worker, n, name="kids")
    return inter.recv(tag=12)


def _unpicklable_sender(comm):
    if comm.rank == 1:
        comm.parent.send(comm.recv(source=0, tag=3), dest=0, tag=4)
        return
    with pytest.raises(SerializationError, match="cannot serialize a lock"):
        comm.send(threading.Lock(), dest=1, tag=3)
    comm.send("after", dest=1, tag=3)  # the refused send left no trace


def _unpicklable_driver(comm):
    return comm.spawn(_unpicklable_sender, 2, name="unpicklable").recv(tag=4)


class TestProcessRuntimeEndToEnd:
    def test_both_backends_run_the_same_world_identically(self):
        expected = [("result", r, 4 * 10 + 0 + 1 + 2 + 3) for r in range(4)]
        for cls in (ThreadRuntime, ProcessRuntime):
            out = cls().run(_driver, 1, args=(4,), timeout=60, name="driver")
            assert out[0] == expected, cls.__name__

    def test_worker_exception_reraised_driver_side_with_record(self):
        rt = ProcessRuntime()
        with pytest.raises(ValueError, match="boom from worker"):
            rt.run(_crash_driver, 1, args=(3,), timeout=60)
        records = rt.failure_records
        assert any(r.kind == "rank" for r in records)
        ranked = next(r for r in records if r.kind == "rank")
        assert "boom from worker" in ranked.error

    def test_hard_killed_worker_is_blamed_not_hung(self):
        rt = ProcessRuntime()
        with pytest.raises(MPIAbort):
            rt.run(_kill_driver, 1, args=(2,), timeout=60)
        records = rt.failure_records
        assert any(r.kind == "rank" and "goodbye" in r.error for r in records)

    def test_an_unpicklable_payload_is_refused_at_the_send(self):
        out = ProcessRuntime().run(_unpicklable_driver, 1, timeout=60)
        assert out == ["after"]

    def test_spawn_over_socket_reaches_grandchildren(self):
        out = ProcessRuntime().run(_spawn_driver, 1, args=(2,), timeout=60)
        assert out[0] == [("gc", 0, "deep"), ("gc", 1, "deep")]


# -- truncated payloads across the wire -------------------------------------------


class TestEnvelopeCodec:
    @staticmethod
    def _round_trip(env, dest):
        from repro.mpi.socket_transport import _decode_envelope, _encode_envelope

        frame = _encode_envelope(dest, env)
        assert frame[4] == FrameKind.ENVELOPE
        header = unpack_envelope_frame(frame[5:])
        assert header.dest == dest
        assert header.flags == 0  # whatever the payload, it is one pickle
        return _decode_envelope(header)

    def test_truncated_payload_round_trips_through_the_codec(self):
        original = {"data": list(range(20))}
        env = Envelope(
            context=8, source=1, tag=5,
            payload=TruncatedPayload(original), nbytes=123,
        )
        # the marker pickles as itself: no header flag carries it
        decoded = self._round_trip(env, dest=2)
        assert isinstance(decoded.payload, TruncatedPayload)
        assert decoded.payload.original == original
        assert decoded.nbytes == 123

    def test_plain_payload_round_trips_with_a_fresh_local_seq(self):
        env = Envelope(context=8, source=1, tag=5, payload=("k", 2), nbytes=16)
        decoded = self._round_trip(env, dest=0)
        assert decoded.payload == ("k", 2)
        assert (decoded.context, decoded.source, decoded.tag) == (8, 1, 5)
        assert decoded.seq > env.seq  # stamped in the receiving interpreter
