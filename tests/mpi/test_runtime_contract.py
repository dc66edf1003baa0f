"""The runtime contract: what ``repro.core`` may ask of ``comm.runtime``.

``BaseRuntime`` declares it once with the thread-backend behaviour; the
process backend's two ends — ``ProcessRuntime`` in the driver,
``WorkerRuntime`` inside a rank process — are subclasses that override
what has to cross the wire.  The first half checks the contract from
inside a rank on both launchers; the second half checks the router's
handshake rules (a connection is exactly one rank; a stale HELLO is
refused) and its fence (no frame is accepted from a connection its rank
no longer holds).
"""

import logging
import threading

import pytest

from repro.mpi import BaseRuntime, ProcessRuntime, create_runtime
from repro.mpi.socket_transport import WorkerRuntime
from repro.net import wire
from repro.net.wire import FrameKind, pack_frame, pack_obj_frame
from repro.obs.tracer import TRACER
from repro.rpc import RpcCall, RpcResponse, decode_message, encode_message


# -- inside a rank ------------------------------------------------------------------

# module-level: the process backend forks these into worker processes


def _probe_rank(comm):
    runtime = comm.runtime
    comm.parent.send(
        (
            comm.rank,
            isinstance(runtime, BaseRuntime),
            runtime.launcher,
            runtime.rank_epoch,
            runtime.rank_recovery,
            runtime.pending_respawns(),
            runtime.respawn_rank(comm.group[comm.rank]),
        ),
        dest=0,
        tag=5,
    )


def _probe_driver(comm, nprocs):
    inter = comm.spawn(_probe_rank, nprocs, name="probe")
    return sorted(inter.recv(tag=5) for _ in range(nprocs))


@pytest.mark.parametrize("launcher", ["threads", "processes"])
def test_a_rank_sees_the_same_contract_on_both_launchers(launcher):
    runtime = create_runtime(launcher)
    (answers,) = runtime.run(_probe_driver, 1, args=(2,), timeout=60.0)
    assert answers == [
        (rank, True, launcher, 0, False, [], None) for rank in range(2)
    ]
    # the driver-side half of the contract, on the same runtime
    assert (runtime.respawns, runtime.redelivered_frames,
            runtime.stale_frames_dropped) == (0, 0, 0)
    assert not runtime.failure_records


def test_the_process_backend_implements_the_contract_by_subclassing():
    assert issubclass(WorkerRuntime, BaseRuntime)
    assert issubclass(ProcessRuntime, BaseRuntime)


def test_thread_runtime_recovery_hooks_are_inert():
    runtime = create_runtime("threads")
    runtime.enable_rank_recovery(2, 1 << 20)  # nothing to arm
    assert runtime.rank_recovery is False
    assert runtime.pending_respawns() == []
    assert runtime.respawn_rank(0) is None


# -- the router's handshake -------------------------------------------------------------


class _LogCapture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@pytest.fixture
def router():
    """A live router expecting worker ranks 1 and 2, plus its warnings."""
    runtime = ProcessRuntime()
    capture = _LogCapture()
    logger = logging.getLogger("repro.mpi.socket_transport")
    logger.addHandler(capture)
    transport = runtime.transport
    transport.expect((1, 2), "w")
    try:
        yield transport, capture.lines
    finally:
        logger.removeHandler(capture)
        transport.shutdown()


def _hello(conn, gid, pid, epoch=0):
    conn.send(pack_obj_frame(FrameKind.HELLO, (gid, pid, epoch)))


def _call(conn, method, *args):
    """Send one call by name, as a worker does, wanting a reply."""
    conn.send(pack_frame(FrameKind.RPC_REQ, encode_message(RpcCall(1, method, args))))


def _drain(conn):
    """Return once the router has handled every frame sent on ``conn``:
    one reader thread serves a connection in order, so the reply to an
    RPC sent last proves everything before it was processed."""
    _call(conn, "allocate_context")
    kind, body = conn.recv()
    assert kind == FrameKind.RPC_REP
    assert decode_message(body).ok


class TestHello:
    def test_a_connection_is_exactly_one_rank(self, router):
        transport, warnings = router
        conn = wire.connect_local(transport.address)
        try:
            _hello(conn, 1, 111)
            _hello(conn, 2, 222)  # the same socket claiming a second rank
            _drain(conn)
            assert transport.ranks[1].pid == 111
            assert transport.ranks[2].pid is None
            assert transport.ranks[2].conn is None
            assert any(
                "refusing HELLO for rank 2" in line
                and "already speaks for rank 1" in line
                for line in warnings
            )
        finally:
            conn.close()

    def test_an_unannounced_rank_is_refused(self, router):
        transport, warnings = router
        conn = wire.connect_local(transport.address)
        try:
            _hello(conn, 9, 999)
            _drain(conn)
            assert 9 not in transport.ranks
            assert any("refusing HELLO for rank 9" in line for line in warnings)
        finally:
            conn.close()

    def test_a_stale_epoch_hello_is_fenced(self, router):
        transport, warnings = router
        transport.max_respawns, transport.redelivery_cap = 1, 1 << 20
        transport.expect((1, 2), "w", world_context=4)  # armed
        assert transport.respawn(1) == (1, None)  # rank 1 -> epoch 1
        zombie = wire.connect_local(transport.address)
        reborn = wire.connect_local(transport.address)
        try:
            _hello(zombie, 1, 111, epoch=0)
            _drain(zombie)
            assert transport.ranks[1].pid is None  # never routed to
            assert transport.ranks[1].conn is None
            assert any("fencing stale HELLO from rank 1" in w for w in warnings)
            _hello(reborn, 1, 112, epoch=1)
            _drain(reborn)
            assert transport.ranks[1].pid == 112
        finally:
            zombie.close()
            reborn.close()

    def test_a_log_that_overflowed_while_down_fails_the_world_at_hello(self, router):
        """The reborn rank could only sit out its plane timeout: the
        router fails the world with the rank's one ``respawn`` record."""
        transport, _warnings = router
        transport.max_respawns, transport.redelivery_cap = 1, 64
        transport.expect((1, 2), "w", world_context=4)  # armed
        assert transport.respawn(1) == (1, None)  # rank 1 recovering, epoch 1
        transport._forward(1, b"x" * 65, context=4)  # the log overflows
        rank = transport.ranks[1]
        assert rank.redelivery.overflowed
        reborn = wire.connect_local(transport.address)
        try:
            _hello(reborn, 1, 112, epoch=1)
            _call(reborn, "allocate_context")
            kinds = []
            while not kinds or kinds[-1] != FrameKind.RPC_REP:
                kinds.append(reborn.recv()[0])
            assert FrameKind.ABORT in kinds  # told at once
            runtime = transport._runtime
            assert runtime.abort_flag.is_set()
            records = runtime.failure_records
            assert len(records) == 1
            assert records[0].kind == "respawn" and records[0].error == rank.failure().error
        finally:
            reborn.close()


def _envelope(conn, origin):
    """Send one ENVELOPE frame to global rank 0, as rank ``origin`` would."""
    payload, _flags = wire.encode_payload(("k", 1))
    conn.send(wire.pack_envelope_frame(
        context=4, source=origin, tag=5, origin=origin, dest=0,
        nbytes=len(payload), payload=payload,
    ))


class TestEnvelopeFence:
    def test_a_zombie_connection_s_frames_are_dropped(self, router):
        """A respawn takes the rank's connection away: whatever the old
        incarnation still sends on it is dropped and counted, while the
        reborn rank's connection and every peer's pass."""
        transport, _warnings = router
        transport.max_respawns, transport.redelivery_cap = 1, 1 << 20
        transport.expect((1, 2), "w", world_context=4)  # armed
        mailbox = transport.register(0)  # a driver-hosted destination

        def dropped_and_delivered():
            return transport.stale_frames_dropped, mailbox.stats()["pending"]

        first, peer = (wire.connect_local(transport.address) for _ in range(2))
        reborn = None
        try:
            _hello(first, 1, 111)
            _hello(peer, 2, 222)
            _envelope(first, origin=1)  # the live incarnation: delivered
            _drain(first)
            assert dropped_and_delivered() == (0, 1)
            assert transport.respawn(1) == (1, 111)  # rank 1 -> epoch 1
            _envelope(first, origin=1)  # a zombie's last frame: fenced
            _drain(first)
            assert dropped_and_delivered() == (1, 1)
            reborn = wire.connect_local(transport.address)
            _hello(reborn, 1, 112, epoch=1)
            _envelope(reborn, origin=1)  # the reincarnation's own traffic
            _drain(reborn)
            assert dropped_and_delivered() == (1, 2)
            _envelope(peer, origin=2)  # a peer is untouched
            _drain(peer)
            assert dropped_and_delivered() == (1, 3)
        finally:
            for conn in (first, peer, reborn):
                if conn is not None:
                    conn.close()


class TestCallFrame:
    def test_an_unknown_name_is_refused_in_the_reply(self, router):
        transport, _warnings = router
        conn = wire.connect_local(transport.address)
        try:
            _call(conn, "no_such_call", 1)
            kind, body = conn.recv()
            assert kind == FrameKind.RPC_REP
            response = decode_message(body)
            assert isinstance(response, RpcResponse)
            assert (response.call_id, response.ok) == (1, False)
            assert "no such RPC method: 'no_such_call'" in response.error
            _drain(conn)  # the connection still serves calls
        finally:
            conn.close()


class TestShutdown:
    def test_a_rank_s_last_trace_call_is_handled_before_the_server_stops(
        self, router
    ):
        """A rank's process exits with its trace call and BYE still in the
        socket.  ``shutdown`` runs once the process is joined; it must not
        close the connection on a call its reader has yet to handle.  The
        router's handling of the trace call is held back until the server
        stops, or for half a second at most."""
        transport, _warnings = router
        order = []
        stopping = threading.Event()
        stop, absorb = transport._server.stop, transport.calls["absorb_trace"]

        def held_stop():
            order.append("stop")
            stopping.set()
            stop()

        def held_absorb(events):
            stopping.wait(0.5)
            order.append("absorb")
            absorb(events)

        transport._server.stop = held_stop
        transport.calls["absorb_trace"] = held_absorb
        event = {"ph": "i", "name": "last-words", "ts": 0.5, "rank": 1, "tid": "w"}
        conn = wire.connect_local(transport.address)
        TRACER.enable()
        try:
            _hello(conn, 1, 111)
            _drain(conn)  # the rank is online, as every rank of a job is
            conn.send(pack_frame(FrameKind.RPC_REQ, encode_message(
                RpcCall(0, "absorb_trace", ([event],))
            )))
            conn.send(pack_frame(FrameKind.BYE))
            conn.close()
            transport.shutdown()
            assert order == ["absorb", "stop"]
            assert [e["name"] for e in TRACER.drain()] == ["last-words"]
        finally:
            TRACER.disable()
            TRACER.reset()
