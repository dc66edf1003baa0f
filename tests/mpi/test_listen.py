"""The listener seam and the one abort signal.

``Endpoint.listen`` hands a ``(context, tag)``'s envelopes to a handler
on the thread that deposits them instead of queueing them for a
``recv``; the shuffle files its envelopes this way.  A listener is a
receive that stays posted ahead of every other, whichever was posted
first.  ``AbortFlag.watch`` runs a callback once when the world aborts,
which is how every posted receive is failed without polling.
"""

import json
import os
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.common.errors import MPIAbort
from repro.mpi import ANY_SOURCE, ANY_TAG, run_world
from repro.mpi.datatypes import Status
from repro.mpi.runtime import create_runtime
from repro.mpi.socket_transport import WorkerRuntime, WorkerSpec
from repro.mpi.transport import AbortFlag, Endpoint, Envelope
from repro.net.wire import FrameConnection, FrameKind


def _envelope(source, tag, payload, context=0):
    return Envelope(context, source, tag, payload, 1)


class TestListen:
    def test_a_listened_envelope_is_handled_on_the_depositing_thread(self):
        endpoint = Endpoint(0, AbortFlag())
        seen = []
        handler = lambda e: seen.append((e.payload, threading.current_thread()))  # noqa: E731
        assert endpoint.listen(0, 7, handler) == []
        depositor = threading.Thread(
            target=endpoint.deposit, args=(_envelope(1, 7, "handled"),)
        )
        depositor.start()
        depositor.join(10)
        assert not depositor.is_alive()
        assert seen == [("handled", depositor)]
        # never queued, still counted
        assert endpoint.stats() == {"pending": 0, "bytes_in": 1, "posted": 0}
        endpoint.deposit(_envelope(1, 8, "another tag"))
        assert endpoint.receive(0, 1, 8, timeout=0).payload == "another tag"
        assert len(seen) == 1

    def test_arrivals_before_the_listener_come_back_in_arrival_order(self):
        endpoint = Endpoint(0, AbortFlag())
        sent = [(source, i) for i in range(5) for source in (2, 0, 1)]
        synchronous = []
        for source, i in sent:
            envelope = _envelope(source, 7, (source, i))
            envelope.matched = Future()  # as ``issend`` sends it
            synchronous.append(envelope.matched)
            endpoint.deposit(envelope)
        endpoint.deposit(_envelope(0, 8, "another tag"))
        endpoint.deposit(_envelope(0, 7, "another context", context=4))
        backlog = endpoint.listen(0, 7, lambda e: None)
        assert [e.payload for e in backlog] == sent
        assert all(matched.done() for matched in synchronous)
        assert endpoint.stats()["pending"] == 2  # the other two stay queued

    def test_unlisten_queues_again(self):
        endpoint = Endpoint(0, AbortFlag())
        seen = []
        endpoint.listen(0, 7, seen.append)
        endpoint.deposit(_envelope(1, 7, "handled"))
        assert endpoint.listen(0, 7, None) == []
        endpoint.deposit(_envelope(1, 7, "queued"))
        assert [e.payload for e in seen] == ["handled"]
        assert endpoint.receive(0, 1, 7, timeout=10).payload == "queued"

    def test_a_listener_takes_its_tag_from_a_wildcard_recv_posted_before_it(self):
        endpoint = Endpoint(0, AbortFlag())
        got = []
        receiver = threading.Thread(
            target=lambda: got.append(endpoint.receive(0, ANY_SOURCE, ANY_TAG, 10)),
            daemon=True,
        )
        receiver.start()
        while endpoint.stats()["posted"] == 0:  # the wildcard recv is posted
            time.sleep(0.001)
        seen = []
        endpoint.listen(0, 7, seen.append)
        endpoint.deposit(_envelope(1, 7, "listened"))
        assert [e.payload for e in seen] == ["listened"] and got == []
        endpoint.deposit(_envelope(1, 8, "received"))
        receiver.join(10)
        assert [e.payload for e in got] == ["received"]
        assert endpoint.stats()["posted"] == 0

    def test_a_wildcard_recv_never_sees_a_listened_tag(self):
        def main(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.send("listened", dest=1, tag=7)
                comm.send("queued", dest=1, tag=8)
                return None
            seen = []
            comm.listen(7, seen.append)
            comm.barrier()
            status = Status()
            got = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            leftover = comm.iprobe(source=ANY_SOURCE, tag=ANY_TAG)
            comm.listen(7, None)
            return got, status.tag, [e.payload for e in seen], leftover

        assert run_world(2, main)[1] == ("queued", 8, ["listened"], None)


class TestAbortWatch:
    def test_a_watcher_runs_once_at_the_trip_or_at_once_after_it(self):
        flag = AbortFlag()
        calls = []
        flag.watch(lambda: calls.append("early"))
        assert calls == []
        flag.trip("first")
        flag.trip("second")
        assert calls == ["early"] and flag.reason == "first"
        flag.watch(lambda: calls.append("late"))
        assert calls == ["early", "late"]

    def test_an_abort_fails_a_router_call_still_awaiting_its_reply(self):
        worker_end, router_end = socket.socketpair()
        router = FrameConnection(router_end)
        spec = WorkerSpec(
            address=None, gid=0, group=(0,), rank=0, world_context=0,
            parent_group=(), inter_context=0, fn=None, args=(), world_name="w",
        )
        runtime = WorkerRuntime(spec, FrameConnection(worker_end))
        failures = []

        def call():
            try:
                runtime.allocate_context()
            except MPIAbort as exc:
                failures.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        kind, _ = router.recv()  # the call is on the wire; nobody answers
        assert kind == FrameKind.RPC_REQ
        runtime.abort_flag.trip("abort under test")
        caller.join(10)
        runtime.close()
        router.close()
        assert not caller.is_alive()
        assert len(failures) == 1 and "abort under test" in failures[0]


# module-level: the process backend forks these into a worker process


def _blocked_recv_rank(comm, outdir):
    failures = []

    def receive():
        try:
            comm.recv(source=0, tag=77)  # nothing is ever sent; no timeout
        except MPIAbort as exc:
            failures.append(type(exc).__name__)

    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    endpoint = comm._my_endpoint()
    while endpoint.stats()["posted"] == 0:  # the recv is posted
        time.sleep(0.001)
    comm.abort(reason="abort under test")
    receiver.join(1.0)
    with open(os.path.join(outdir, f"r{comm.rank}.json"), "w") as f:
        json.dump([receiver.is_alive(), failures], f)


def _spawn_blocked(comm, outdir):
    comm.spawn(_blocked_recv_rank, 1, args=(outdir,), name="blocked")


@pytest.mark.parametrize("launcher", ["threads", "processes"])
def test_an_abort_wakes_a_recv_without_a_timeout(tmp_path, launcher):
    with pytest.raises(MPIAbort, match="abort under test"):
        create_runtime(launcher).run(
            _spawn_blocked, 1, args=(str(tmp_path),), timeout=60.0
        )
    assert json.loads((tmp_path / "r0.json").read_text()) == [False, ["MPIAbort"]]
