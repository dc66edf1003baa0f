"""MPI matching conformance on both launchers, by generated send schedules.

Ordering is the contract everything above the transport relies on (the
shuffle's per-stream sequence numbers, the collectives' tag discipline),
and the peer mesh will rewire the layer that provides it — so the rules
are held here first, against the star:

* **non-overtaking** — messages from one source on one (context, tag)
  are received in the order they were sent, however the receiver
  interleaves its receives;
* **wildcards** — an ``ANY_SOURCE``/``ANY_TAG`` receive sees each
  source's messages in that source's send order;
* **requests** — ``irecv`` completed by ``waitall``/``testall``/
  ``waitany`` or by waits in a shuffled order yields the right payloads
  with the right statuses, and same-pattern requests take their
  messages in the order they were posted, however they are completed.

Hypothesis draws the schedule (who sends what on which communicator and
tag) and a ``seed`` for the order in which the receiver goes about it;
both are arguments of the property, so a failing example prints its
schedule and its seed.  Two senders, one receiver, two contexts (the
world and a ``dup`` — which on the process backend is itself a call on
the router); few examples on ``processes``, where each one forks a world.
"""

import random
import time
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import create_runtime
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Status
from repro.mpi import request as mpi_request  # (a bare ``testall`` would be collected)

LAUNCHERS = ["threads", "processes"]
EXAMPLES = {"threads": 100, "processes": 5}
SENDERS = (1, 2)  # rank 0 receives

#: one sender's sends, in order: (communicator index, tag)
sends = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=6)
schedules = st.tuples(sends, sends)
seeds = st.integers(0, 2**32 - 1)


# -- the ranks (module-level: the process backend forks them) -----------------------


def _rank(comm, receive, schedule, seed):
    comms = (comm, comm.dup())
    if comm.rank == 0:
        seen = receive(comms, schedule, random.Random(seed))
        comm.parent.send(seen, dest=0, tag=1)
        return
    for k, (c, tag) in enumerate(schedule[comm.rank - 1]):
        comms[c].send((comm.rank, k), dest=0, tag=tag)


def _driver(comm, receive, schedule, seed):
    inter = comm.spawn(_rank, 1 + len(SENDERS), args=(receive, schedule, seed))
    return inter.recv(source=0, tag=1)


def observe(launcher, receive, schedule, seed):
    """What the receiver saw, as a list of (comm, source, tag, k)."""
    return create_runtime(launcher).run(
        _driver, 1, args=(receive, schedule, seed), timeout=60.0
    )[0]


def messages(schedule):
    """Every message of a schedule as (comm, source, tag, k), send order."""
    return [
        (c, source, tag, k)
        for source, sent in zip(SENDERS, schedule)
        for k, (c, tag) in enumerate(sent)
    ]


def holds(launcher, receive):
    """Run ``check(schedule, seen)`` over generated schedules."""

    def decorate(check):
        @settings(max_examples=EXAMPLES[launcher], deadline=None, print_blob=True)
        @given(schedules, seeds)
        def prop(schedule, seed):
            check(schedule, observe(launcher, receive, schedule, seed))

        prop()

    return decorate


def in_send_order(seen, key):
    """Per ``key(c, source, tag)``, the ``k`` of what was seen is ascending."""
    by_key = defaultdict(list)
    for c, source, tag, k in seen:
        by_key[key(c, source, tag)].append(k)
    return all(ks == sorted(ks) for ks in by_key.values())


# -- receivers ----------------------------------------------------------------------


def _exact_receives(comms, schedule, rng):
    """One exact-match receive per message, in a shuffled order."""
    todo = [(c, source, tag) for c, source, tag, _ in messages(schedule)]
    rng.shuffle(todo)
    seen = []
    for c, source, tag in todo:
        sender, k = comms[c].recv(source=source, tag=tag)
        assert sender == source
        seen.append((c, source, tag, k))
    return seen


def _wildcard_receives(comms, schedule, rng):
    """As many ``ANY_SOURCE``/``ANY_TAG`` receives per communicator as
    it carries messages, the communicators visited in a shuffled order."""
    todo = [c for c, _, _, _ in messages(schedule)]
    rng.shuffle(todo)
    seen = []
    for c in todo:
        status = Status()
        sender, k = comms[c].recv(ANY_SOURCE, ANY_TAG, status=status)
        assert sender == status.source
        seen.append((c, status.source, status.tag, k))
    return seen


def _requests(comms, schedule, rng):
    """One ``irecv`` per message, posted in a shuffled order and completed
    by ``waitall``, polled ``testall``, repeated ``waitany`` or one
    ``wait`` each in another shuffled order."""
    todo = [(c, source, tag) for c, source, tag, _ in messages(schedule)]
    rng.shuffle(todo)
    requests = [comms[c].irecv(source=source, tag=tag) for c, source, tag in todo]
    how = rng.choice(["waitall", "testall", "waitany", "shuffled"])
    if how == "waitall":
        payloads = mpi_request.waitall(requests)
    elif how == "testall":
        done, payloads = mpi_request.testall(requests)
        while not done:
            time.sleep(0.001)
            done, payloads = mpi_request.testall(requests)
    elif how == "waitany":
        payloads = [None] * len(requests)
        pending = list(range(len(requests)))
        while pending:
            at, payload = mpi_request.waitany([requests[i] for i in pending])
            payloads[pending.pop(at)] = payload
    else:
        payloads = [None] * len(requests)
        order = list(range(len(requests)))
        rng.shuffle(order)
        for i in order:
            payloads[i] = requests[i].wait()
    seen = []
    for (c, source, tag), request, (sender, k) in zip(todo, requests, payloads):
        # the request completed with a message of its own pattern, and its
        # status describes that very message
        assert (request.status.source, request.status.tag) == (source, tag)
        assert sender == source
        seen.append((c, source, tag, k))
    return seen


# -- the rules ----------------------------------------------------------------------


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_messages_on_one_context_source_and_tag_never_overtake(launcher):
    @holds(launcher, _exact_receives)
    def check(schedule, seen):
        assert Counter(seen) == Counter(messages(schedule))
        assert in_send_order(seen, key=lambda c, source, tag: (c, source, tag))


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_a_wildcard_receive_sees_each_source_in_send_order(launcher):
    @holds(launcher, _wildcard_receives)
    def check(schedule, seen):
        # nothing lost, nothing invented, tags reported as sent ...
        assert Counter(seen) == Counter(messages(schedule))
        # ... and per communicator, each source's messages in send order
        assert in_send_order(seen, key=lambda c, source, tag: (c, source))


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_irecv_requests_complete_with_the_right_payloads_and_statuses(launcher):
    @holds(launcher, _requests)
    def check(schedule, seen):
        assert Counter(seen) == Counter(messages(schedule))
        # ``seen`` is in posting order: same-pattern requests take their
        # messages in send order, whichever completes first
        assert in_send_order(seen, key=lambda c, source, tag: (c, source, tag))


# -- synchronous mode ---------------------------------------------------------------


def _ssend_rank(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=8)  # only then ...
        comm.recv(source=1, tag=7)  # ... is the synchronous send matched
        return
    request = comm.issend("sync", dest=0, tag=7)
    early, _ = request.test()
    comm.send("go", dest=0, tag=8)
    request.wait(timeout=30.0)
    comm.parent.send(early, dest=0, tag=1)


def _ssend_driver(comm):
    return comm.spawn(_ssend_rank, 2).recv(source=1, tag=1)


@pytest.mark.parametrize("launcher", [
    "threads",
    pytest.param("processes", marks=pytest.mark.xfail(strict=True, reason=(
        "WorkerTransport._route (mpi/socket_transport.py) completes "
        "``envelope.matched`` right after ``conn.send``: on the process "
        "backend issend().wait() returns once the frame is on the wire, "
        "not once the receiver matched it.  The mesh PR fixes this or "
        "keeps it knowingly."
    ))),
])
def test_a_synchronous_send_completes_only_once_matched(launcher):
    completed_early = create_runtime(launcher).run(
        _ssend_driver, 1, timeout=60.0
    )[0]
    assert not completed_early
