"""A rank's life, decided by one record: ``_Rank`` driven bare.

``socket_transport._Rank`` owns what every event in a worker rank's life
means — HELLO, a frame bound for it, EOF, a respawn, BYE — as plain
methods that return what the router is to do.  The property below feeds
it every event sequence Hypothesis can think of (no socket, thread or
process: a connection is a token remembering its incarnation) next to a
model written from the rules, and holds:

* no frame is handed to an incarnation older than the rank's epoch;
* a rebirth is flushed every logged frame in forwarding order, then the
  parked ones; a first life what was parked for it;
* respawns never exceed the budget;
* an overflowed log is never replayed and holds nothing: a rebirth whose
  log overflowed while it was down gets the rank's ``respawn`` record.

Beside it: the wire has exactly seven frame kinds, and the router's call
table names only methods that exist — and every name a worker calls.
"""

import ast
import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FailureRecord
from repro.mpi import socket_transport
from repro.mpi.runtime import BaseRuntime, ProcessRuntime
from repro.mpi.socket_transport import (
    RouterTransport,
    WorkerRuntime,
    _Rank,
    _RedeliveryBuffer,
)
from repro.net.wire import FrameKind

WORLD = 8  # the rank's world context block: 8..11
CONTROL = 4  # an intercomm context: never logged

events = st.lists(
    st.one_of(
        st.just(("hello",)),
        st.just(("zombie",)),
        st.tuples(st.just("frame"), st.integers(1, 40), st.integers(0, 3),
                  st.booleans()),
        st.just(("lost",)),
        st.just(("respawn",)),
        st.just(("bye",)),
    ),
    max_size=40,
)


class Conn:
    """A connection token: which incarnation speaks on it."""

    def __init__(self, epoch):
        self.epoch = epoch


@settings(max_examples=300, deadline=None)
@given(events, st.integers(0, 3), st.integers(20, 200))
def test_a_rank_lives_by_its_record(sequence, budget, cap):
    rank = _Rank(gid=1, local_rank=0, world="w")
    if budget:  # what RouterTransport.expect arms with recovery on
        rank.redelivery = _RedeliveryBuffer(cap)
        rank.max_respawns, rank.world_context = budget, WORLD
    # the model: what the rules say, kept apart from the record
    log, logged_bytes, overflowed = [], 0, False
    parked, recovering, respawned, serial = [], False, 0, 0

    def recoverable():
        return bool(budget) and not overflowed and respawned < budget

    for event in sequence:
        kind = event[0]
        if kind == "hello":
            conn = Conn(rank.epoch)
            verdict = rank.hello(conn, pid=100 + rank.epoch, epoch=rank.epoch)
            if recovering and overflowed:
                # nothing whole to replay: the death is final, now
                assert isinstance(verdict, FailureRecord)
                assert verdict.kind == "respawn"
            elif recovering:
                # a rebirth: the whole log, forwarding order, then parked
                frames, offline = verdict
                assert frames == log + parked
                assert offline is not None and offline >= 0
            else:
                assert verdict == (parked, None)
            assert rank.conn is conn and rank.pid == 100 + rank.epoch
            parked, recovering = [], False
        elif kind == "zombie" and rank.epoch > 0:
            before = (rank.conn, rank.pid, rank.recovering_since)
            assert rank.hello(Conn(rank.epoch - 1), pid=66,
                              epoch=rank.epoch - 1) is None
            assert (rank.conn, rank.pid, rank.recovering_since) == before
        elif kind == "frame":
            _, nbytes, offset, in_world = event
            serial += 1
            frame = serial.to_bytes(2, "big") * nbytes  # unique, 2*nbytes long
            conn = rank.route(frame, WORLD + offset if in_world else CONTROL)
            assert conn is rank.conn
            # never handed to an incarnation older than the rank's epoch
            assert conn is None or conn.epoch == rank.epoch
            if budget and in_world and not overflowed:
                log.append(frame)
                logged_bytes += len(frame)
                if logged_bytes > cap:
                    log, logged_bytes, overflowed = [], 0, True
            if conn is None and not recovering:
                parked.append(frame)
        elif kind == "lost" and rank.conn is not None:
            verdict = rank.lost()
            assert rank.conn is None
            if recoverable():
                assert verdict == "respawn"
                parked, recovering = [], True
            else:
                assert isinstance(verdict, FailureRecord)
                assert verdict.kind == ("respawn" if budget else "rank")
        elif kind == "respawn":
            epoch, pid = rank.epoch, rank.pid
            verdict = rank.respawn()
            if recoverable():
                assert verdict == (epoch + 1, pid)
                assert rank.conn is None  # a hung incarnation is fenced too
                respawned += 1
                parked, recovering = [], True
            elif recovering:
                assert isinstance(verdict, FailureRecord)  # down for good
            else:
                assert verdict is None  # still up: its caller words it
                assert rank.epoch == epoch
        elif kind == "bye" and rank.conn is not None:
            rank.bye()
            assert rank.conn is None
            log, logged_bytes = [], 0
        # -- what holds after every event ------------------------------------
        assert rank.epoch == respawned <= budget
        assert rank.recoverable == recoverable()
        assert (rank.recovering_since is not None) == recovering
        assert rank.parked == parked
        if budget:
            buf = rank.redelivery
            assert (buf.frames, buf.nbytes, buf.overflowed) == (
                log, logged_bytes, overflowed
            )
            if overflowed:  # holds nothing, and nothing is replayed from it
                assert (buf.frames, buf.nbytes) == ([], 0)


def test_one_builder_words_every_way_a_rank_dies():
    rank = _Rank(gid=5, local_rank=2, world="job-w")
    plain, severed, early = (
        rank.failure(), rank.failure(truncated=True), rank.failure(exitcode=3)
    )
    assert (plain.kind, severed.kind, early.kind) == ("rank", "wire", "rank")
    assert "goodbye" in plain.error and "mid-frame" in severed.error
    assert "exited with code 3 before the rank handshake" in early.error
    rank.max_respawns = 1  # recovery armed: a death that sticks is "respawn"
    assert rank.failure(truncated=True).kind == "respawn"
    for record in (plain, severed, early):
        assert (record.worker, record.where) == (2, "job-w[2]")


# -- the wire's vocabulary ----------------------------------------------------------


def test_the_wire_has_exactly_six_frame_kinds():
    kinds = {n: v for n, v in vars(FrameKind).items() if not n.startswith("_")}
    assert sorted(kinds) == [
        "ABORT", "BYE", "ENVELOPE", "HELLO", "RPC_REP", "RPC_REQ",
    ]
    assert len(set(kinds.values())) == len(kinds)


def test_the_call_table_names_only_what_exists_and_all_a_worker_calls():
    runtime = ProcessRuntime()
    router = runtime.transport
    try:
        for name, call in router.calls.items():
            # a bound method of the driver runtime's contract, or the router's
            assert call.__name__ == name
            if call.__self__ is runtime:
                assert callable(getattr(BaseRuntime, name))
            else:
                assert call.__self__ is router
                assert callable(getattr(RouterTransport, name))
    finally:
        router.shutdown()
    # every name WorkerRuntime forwards under is in the table
    tree = ast.parse(inspect.getsource(socket_transport))
    called = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_cast", "_rpc")
        and node.args and isinstance(node.args[0], ast.Constant)
    }
    assert called == set(router.calls)
    assert all(hasattr(WorkerRuntime, name) or hasattr(RouterTransport, name)
               for name in called)
