"""MPI matching semantics the indexed-mailbox transport must preserve.

The transport keeps one FIFO sub-queue per (context, source, tag) and a
wildcard path that picks the earliest arrival across sub-queues, and
matches arrivals against posted receives in post order; these tests pin
down the observable contract: non-overtaking per (source, tag),
exact/wildcard interleaving, posted order, probe consistency, and abort
wakeups.
"""

import sys
import threading
import time

import pytest

from repro.common.errors import MPIAbort
from repro.mpi import ANY_SOURCE, ANY_TAG, run_world
from repro.mpi.request import RecvRequest, waitany
from repro.mpi.transport import AbortFlag, Endpoint, Envelope


def _await_arrivals(comm, source, tag):
    """Handshake: block until the message sent *last* by ``source`` has
    arrived; eager deposits from one sender are ordered, so everything
    sent before it is then in the mailbox too."""
    while comm.iprobe(source=source, tag=tag) is None:
        time.sleep(0.001)


class TestNonOvertaking:
    def test_per_source_tag_order_with_many_tags(self):
        """Messages interleaved across tags stay FIFO within each tag."""

        def main(comm):
            if comm.rank == 0:
                for i in range(30):
                    comm.send(("t1", i), dest=1, tag=1)
                    comm.send(("t2", i), dest=1, tag=2)
                return None
            t2 = [comm.recv(source=0, tag=2)[1] for _ in range(30)]
            t1 = [comm.recv(source=0, tag=1)[1] for _ in range(30)]
            return (t1, t2)

        assert run_world(2, main)[1] == (list(range(30)), list(range(30)))

    def test_wildcard_and_exact_interleaved(self):
        """A mix of exact and wildcard receives still sees each
        (source, tag) stream in send order, and wildcards match the
        earliest pending message."""

        def main(comm):
            if comm.rank == 0:
                for i in range(6):
                    comm.send(i, dest=1, tag=7)
                comm.send("x", dest=1, tag=9)
                return None
            _await_arrivals(comm, source=0, tag=9)
            out = [
                comm.recv(source=0, tag=7),            # exact       -> 0
                comm.recv(source=ANY_SOURCE, tag=ANY_TAG),  # earliest -> 1
                comm.recv(source=0, tag=7),            # exact       -> 2
                comm.recv(source=ANY_SOURCE, tag=7),   # tag-only    -> 3
                comm.recv(source=0, tag=ANY_TAG),      # source-only -> 4
                comm.recv(source=0, tag=7),            # exact       -> 5
                comm.recv(source=0, tag=9),            # exact       -> "x"
            ]
            return out

        assert run_world(2, main)[1] == [0, 1, 2, 3, 4, 5, "x"]

    def test_wildcard_sees_global_arrival_order_per_sender(self):
        """With every message already deposited, pure-wildcard receives
        drain one sender's stream in its send order."""

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=10 + i)  # five distinct tags
                comm.send(None, dest=1, tag=99)
                return None
            _await_arrivals(comm, source=0, tag=99)
            got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(5)]
            comm.recv(source=0, tag=99)
            return got

        assert run_world(2, main)[1] == [0, 1, 2, 3, 4]


def _posted(endpoint, count):
    """Block until ``count`` receives are posted on ``endpoint``."""
    while endpoint.stats()["posted"] < count:
        time.sleep(0.001)


class TestPostedOrder:
    """An arrival completes the earliest posted receive it fits."""

    def test_irecvs_take_messages_in_post_order_whichever_waits_first(self):
        endpoint = Endpoint(0, AbortFlag())
        r0 = RecvRequest(endpoint, 0, 1, 5)
        r1 = RecvRequest(endpoint, 0, 1, 5)
        endpoint.deposit(Envelope(0, 1, 5, "m0", 1))
        endpoint.deposit(Envelope(0, 1, 5, "m1", 1))
        assert r1.wait() == "m1"
        assert r0.wait() == "m0"

    def test_a_recv_does_not_overtake_an_earlier_irecv_of_its_pattern(self):
        endpoint = Endpoint(0, AbortFlag())
        early = RecvRequest(endpoint, 0, 1, 5)
        got = []
        receiver = threading.Thread(
            target=lambda: got.append(endpoint.receive(0, 1, 5, timeout=10).payload),
            daemon=True,
        )
        receiver.start()
        _posted(endpoint, 2)
        endpoint.deposit(Envelope(0, 1, 5, "m0", 1))
        endpoint.deposit(Envelope(0, 1, 5, "m1", 1))
        receiver.join(10)
        assert (early.wait(), got) == ("m0", ["m1"])

    def test_waitany_completes_the_earlier_twin_first(self):
        endpoint = Endpoint(0, AbortFlag())
        requests = [RecvRequest(endpoint, 0, ANY_SOURCE, 5) for _ in range(2)]
        endpoint.deposit(Envelope(0, 2, 5, "m0", 1))
        assert waitany(requests[::-1]) == (1, "m0")
        assert not requests[1].test()[0]

    def test_a_probe_sees_the_arrival_a_later_receive_takes(self):
        endpoint = Endpoint(0, AbortFlag())
        statuses = []
        prober = threading.Thread(
            target=lambda: statuses.append(endpoint.probe(0, ANY_SOURCE, ANY_TAG)),
            daemon=True,
        )
        prober.start()
        _posted(endpoint, 1)
        request = RecvRequest(endpoint, 0, 3, ANY_TAG)
        endpoint.deposit(Envelope(0, 3, 9, "m0", 1))
        prober.join(10)
        assert [(s.source, s.tag) for s in statuses] == [(3, 9)]
        assert request.wait() == "m0"
        assert endpoint.stats() == {"pending": 0, "bytes_in": 1, "posted": 0}

    def test_a_timeout_withdraws_the_receive_and_a_cancel_too(self):
        endpoint = Endpoint(0, AbortFlag())
        with pytest.raises(TimeoutError):
            endpoint.receive(0, 1, 5, timeout=0.01)
        request = RecvRequest(endpoint, 0, 1, 5)
        request.cancel()
        assert request.test() == (True, None)
        endpoint.deposit(Envelope(0, 1, 5, "queued", 1))
        assert endpoint.stats() == {"pending": 1, "bytes_in": 1, "posted": 0}

    def test_racing_posts_withdrawals_and_deposits_lose_nothing(self):
        """More threads than cores, switching every microsecond: per
        source, exact receives and irecvs take a stream in send order,
        and receives that time out and retry race the deposits that would
        complete them — a withdrawn match would lose a message."""
        endpoint = Endpoint(0, AbortFlag())
        sources, count = (1, 2, 3), 300
        got = {source: [] for source in sources}
        retried = []

        def receive(source):
            for i in range(count):
                if i % 3:
                    got[source].append(endpoint.receive(0, source, 5, 30).payload)
                else:
                    got[source].append(RecvRequest(endpoint, 0, source, 5).wait(30))

        def receive_retrying():
            while len(retried) < len(sources) * count:
                try:
                    retried.append(endpoint.receive(0, ANY_SOURCE, 6, 0).payload)
                except TimeoutError:
                    pass

        def send(source):
            for i in range(count):
                endpoint.deposit(Envelope(0, source, 5, i, 1))
                endpoint.deposit(Envelope(0, source, 6, (source, i), 1))

        threads = [threading.Thread(target=receive_retrying, daemon=True)]
        for source in sources:
            threads.append(threading.Thread(target=receive, args=(source,), daemon=True))
            threads.append(threading.Thread(target=send, args=(source,), daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {source: list(range(count)) for source in sources}
        assert sorted(retried) == [(s, i) for s in sources for i in range(count)]
        assert endpoint.stats()["pending"] == endpoint.stats()["posted"] == 0

    def test_the_abort_fails_every_posted_receive(self):
        flag = AbortFlag()
        endpoint = Endpoint(0, flag)
        flag.watch(endpoint.wake)
        requests = [RecvRequest(endpoint, 0, 1, tag) for tag in (5, ANY_TAG)]
        flag.trip("abort under test")
        for request in requests:
            with pytest.raises(MPIAbort, match="abort under test"):
                request.wait()
        with pytest.raises(MPIAbort):
            waitany(requests)


class TestProbeConsistency:
    def test_probe_then_receive_gets_probed_message(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(b"payload-a", dest=1, tag=4)
                return None
            status = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            # probing twice must be idempotent (nothing consumed)
            again = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            assert (status.source, status.tag) == (again.source, again.tag)
            msg = comm.recv(source=status.source, tag=status.tag)
            return (status.source, status.tag, status.count > 0, msg)

        assert run_world(2, main)[1] == (0, 4, True, b"payload-a")

    def test_probe_reports_earliest_of_a_stream(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                comm.send(None, dest=1, tag=99)
                return None
            _await_arrivals(comm, source=0, tag=99)
            status = comm.probe(source=0, tag=ANY_TAG)
            first = comm.recv(source=0, tag=status.tag)
            return (status.tag, first)

        assert run_world(2, main)[1] == (1, "first")

    def test_iprobe_exact_does_not_see_other_tags(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=5)
                comm.send(None, dest=1, tag=99)
                return None
            _await_arrivals(comm, source=0, tag=99)
            assert comm.iprobe(source=0, tag=6) is None
            assert comm.iprobe(source=0, tag=5) is not None
            comm.recv(source=0, tag=5)
            comm.recv(source=0, tag=99)
            return "ok"

        assert run_world(2, main)[1] == "ok"


class TestAbortWakesReceivers:
    def test_abort_wakes_exact_match_receiver(self):
        """A receiver parked on a per-key condition must observe abort."""

        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=123)  # nothing ever sent
            else:
                time.sleep(0.1)
                raise RuntimeError("peer died")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="peer died"):
            run_world(2, main, timeout=60)
        # woken by the abort notification, not the 60 s runtime timeout
        assert time.monotonic() - start < 30

    def test_abort_wakes_wildcard_receiver(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            else:
                time.sleep(0.1)
                raise RuntimeError("peer died")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="peer died"):
            run_world(2, main, timeout=60)
        assert time.monotonic() - start < 30

    def test_abort_wakes_blocked_probe(self):
        def main(comm):
            if comm.rank == 0:
                comm.probe(source=1, tag=7)  # blocking peek, never satisfied
            else:
                time.sleep(0.1)
                raise RuntimeError("peer died")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="peer died"):
            run_world(2, main, timeout=60)
        assert time.monotonic() - start < 30


class TestIndexedMailboxHousekeeping:
    def test_pending_count_spans_subqueues(self):
        def main(comm):
            if comm.rank == 0:
                for tag in (1, 2, 3):
                    comm.send(tag, dest=1, tag=tag)
                comm.send(None, dest=1, tag=99)
                return None
            _await_arrivals(comm, source=0, tag=99)
            mailbox = comm.runtime.mailbox(comm.group[comm.rank])
            before = mailbox.stats()["pending"]
            for tag in (1, 2, 3):
                comm.recv(source=0, tag=tag)
            comm.recv(source=0, tag=99)
            return (before, mailbox.stats()["pending"])

        assert run_world(2, main)[1] == (4, 0)
