"""A worker rank's connection is closed by the thread that reads it.

``WorkerRuntime.close()`` runs on the rank's main thread while the
``<world>[N]-wire`` reader may be inside ``recv`` on the same fd.  It
says BYE, shuts the connection down to wake the reader, and returns only
once the reader has closed the fd on its way out: an fd closed under a
blocked ``recv`` can be reused by the next socket the process opens.
"""

import socket
import threading

from repro.mpi.socket_transport import WorkerRuntime, WorkerSpec
from repro.net.wire import FrameConnection, FrameKind


def _runtime():
    """A rank's runtime over one end of a socketpair, its ``-wire`` reader
    and the router's end."""
    left, right = socket.socketpair()
    spec = WorkerSpec(
        address=None, gid=0, group=(0,), rank=0, world_context=0,
        parent_group=(), inter_context=0, fn=None, args=(),
        world_name="w", name="w[0]",
    )
    runtime = WorkerRuntime(spec, FrameConnection(left))
    (reader,) = [t for t in threading.enumerate() if t.name == "w[0]-wire"]
    return runtime, reader, FrameConnection(right)


def test_close_returns_once_the_reader_has_closed_the_fd():
    runtime, reader, router = _runtime()
    conn = runtime._conn
    closed_by, release = [], threading.Event()
    real_close = conn.close

    def close():
        closed_by.append(threading.current_thread().name)
        release.wait(5.0)  # holds the reader on its way out
        real_close()

    conn.close = close
    closer = threading.Thread(target=runtime.close)
    try:
        closer.start()
        closer.join(0.5)  # a close that does not wait returns now
        assert closer.is_alive()
    finally:
        release.set()
    closer.join(5.0)
    assert not closer.is_alive()
    assert not reader.is_alive()
    assert closed_by == ["w[0]-wire"]
    assert conn._sock.fileno() == -1
    kind, _ = router.recv()
    assert kind == FrameKind.BYE
    assert router.recv() is None
    assert not runtime.abort_flag.is_set()
    router.close()


def test_a_router_hang_up_closes_the_fd_and_aborts_the_rank():
    runtime, reader, router = _runtime()
    router.close()
    reader.join(5.0)
    assert not reader.is_alive()
    assert runtime._conn._sock.fileno() == -1
    assert "lost connection" in runtime.abort_flag.reason
