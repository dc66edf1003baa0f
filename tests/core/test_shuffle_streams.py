"""The shuffle's exactly-once rule, driven by generated schedules.

``_Channel`` (receive side) and ``_Outbound`` (send side) are plain
records: the properties below construct them bare — no thread, no MPI,
no sleeps — and feed them every interleaving Hypothesis can think of.
The send path, which runs on the calling thread, is then driven over a
recording world, and a send on a dead world is pinned to raise in the
task that made it.
"""

import tempfile
import threading
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataMPIError, MPIAbort
from repro.core.buffers import Block
from repro.core.partition import PartitionWindow
from repro.core.shuffle import (
    DUPLICATE,
    REPLAY,
    PlaneConfig,
    ShuffleService,
    _Channel,
    _Outbound,
)
from repro.serde.serialization import WritableSerializer
from tests.core.helpers import RecordingWorld

# -- (a) the channel, bare ------------------------------------------------------
#
# The channel never looks inside a block, so the "blocks" here are the
# integers 0..n-1: applied exactly once, in order, means the applied list
# is range(n).


def coalesce(n_blocks, cuts):
    """Blocks 0..n-1 as a stream of ``(seq, blocks, eos)`` envelopes, split
    at ``cuts``; a cut at 0 or ``n`` gives an empty first envelope or a bare
    EOS, both of which the sender can produce."""
    bounds = [0, *sorted(cuts), n_blocks]
    batches = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    return [
        (seq, blocks, seq == len(batches) - 1) for seq, blocks in enumerate(batches)
    ]


@st.composite
def streams(draw, min_batches=1):
    n_blocks = draw(st.integers(0, 12))
    cuts = draw(
        st.lists(st.integers(0, n_blocks), min_size=min_batches - 1, max_size=6)
    )
    return n_blocks, coalesce(n_blocks, cuts)


class Applied:
    """What a receiver does with the channel's answers."""

    def __init__(self, channel):
        self.channel = channel
        self.blocks = []
        self.eos = 0
        self.drops = Counter()

    def feed(self, envelope):
        seq, blocks, eos = envelope
        verdict = self.channel.accept(seq, blocks, eos)
        if verdict is DUPLICATE or verdict is REPLAY:
            self.drops[verdict] += 1
            return
        self.blocks.extend(verdict)
        self.eos += eos


@pytest.mark.parametrize("staging", [False, True])
class TestChannel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_duplicates_never_apply_twice(self, staging, data):
        """Any interleaving of duplicates of already-sent envelopes: every
        block applied once, in order, one EOS, one drop per duplicate."""
        n_blocks, stream = data.draw(streams())
        applied = Applied(_Channel(staging))
        injected = 0
        for sent, envelope in enumerate(stream):
            applied.feed(envelope)
            if staging and not envelope[2]:
                assert applied.blocks == []  # nothing lands before the commit
            for again in data.draw(st.lists(st.integers(0, sent), max_size=3)):
                applied.feed(stream[again])
                injected += 1
                if not staging:
                    assert applied.drops[REPLAY] == 0  # nothing ever commits
                elif envelope[2]:
                    assert applied.drops[REPLAY] > 0  # past the commit
        assert applied.blocks == list(range(n_blocks))
        assert applied.eos == 1
        assert applied.drops[DUPLICATE] + applied.drops[REPLAY] == injected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_lost_envelope_fails_loudly(self, staging, data):
        """Any lost non-final envelope raises at the next one (a lost final
        one is the plane timeout's to find: no later seq exposes it)."""
        _, stream = data.draw(streams(min_batches=2))
        lost = data.draw(st.integers(0, len(stream) - 2))
        applied = Applied(_Channel(staging))
        for envelope in stream[:lost]:
            applied.feed(envelope)
        before = list(applied.blocks)
        with pytest.raises(DataMPIError, match=f"expected seq {lost}, got {lost + 1}"):
            applied.feed(stream[lost + 1])
        assert applied.blocks == before and applied.eos == 0


class TestRebirth:
    """Rank recovery: the origin dies, its replacement re-sends the stream."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_replayed_stream_lands_once_and_whole(self, data):
        """A first life cut after any prefix — or after its EOS — then
        ``reset(1)`` and the same blocks re-coalesced at other boundaries:
        applied once, whole; every envelope of the second life is a REPLAY
        iff the first had committed.  A duplicated reset changes nothing."""
        n_blocks, first = data.draw(streams())
        second = coalesce(
            n_blocks, data.draw(st.lists(st.integers(0, n_blocks), max_size=6))
        )
        survived = data.draw(st.integers(0, len(first)))
        committed = survived == len(first)
        channel = _Channel(staging=True)
        applied = Applied(channel)
        for envelope in first[:survived]:
            applied.feed(envelope)
        assert channel.reset(1) is True
        echo = data.draw(st.integers(0, len(second)))  # the reset, duplicated
        for seq, envelope in enumerate(second):
            if seq == echo:
                assert channel.reset(1) is False
            if not committed:
                assert applied.blocks == []  # the first life left nothing
            applied.feed(envelope)
        assert applied.blocks == list(range(n_blocks))
        assert applied.eos == 1
        assert applied.drops[DUPLICATE] == 0
        assert applied.drops[REPLAY] == (len(second) if committed else 0)

    @given(epochs=st.lists(st.integers(0, 4), max_size=8))
    def test_a_reset_with_an_epoch_already_seen_changes_nothing(self, epochs):
        channel = _Channel(staging=True)
        channel.accept(0, ["a"], False)
        seen = 0
        for epoch in epochs:
            state = (channel.last, list(channel.staged), channel.committed)
            fresh = epoch > seen
            assert channel.reset(epoch) is fresh
            if fresh:
                seen = epoch
                assert (channel.last, channel.staged) == (-1, [])
                channel.accept(0, ["a"], False)
            else:
                assert (channel.last, channel.staged, channel.committed) == state
            assert channel.epoch == seen


# -- (b) the send path, over a recording world ---------------------------------------

NPROCS = 3
BATCH_BYTES = 100


def plane_config(_plane_id):
    return PlaneConfig(
        NPROCS, PartitionWindow(NPROCS, NPROCS), None, WritableSerializer(),
        tempfile.gettempdir(), 1 << 20,
    )


#: ("block", plane, partition, nbytes) | ("eos", plane)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("block"), st.sampled_from("ab"),
                  st.integers(0, NPROCS - 1), st.integers(1, 80)),
        st.tuples(st.just("eos"), st.sampled_from("ab")),
    ),
    max_size=40,
)


def on_the_wire(world):
    """Block ids per (plane, dest) stream, wire order, and the ended planes."""
    on_wire, ended = defaultdict(list), set()
    for (_, plane, (*_, blocks, eos)), dest in world.sent:
        on_wire[plane, dest] += [b.records for b in blocks]
        if eos:
            ended.add(plane)
    return on_wire, ended


def play(ops, reborn=False):
    """Run ``ops`` (then the two EOS) on a fresh service, checking after
    every call that a stream holds back only what is short of the cap and
    that an ended plane is on the wire whole; returns the world, the
    service and the block ids handed in per stream."""
    world = RecordingWorld(size=NPROCS, reborn=reborn)
    service = ShuffleService(world, plane_config, batch_bytes=BATCH_BYTES)
    handed = defaultdict(list)  # (plane, dest) -> block ids, hand-in order
    sizes = {}  # block id -> nbytes
    closed = set()
    try:
        for op in [*ops, ("eos", "a"), ("eos", "b")]:
            if op[1] in closed:
                continue
            if op[0] == "block":
                _, plane, partition, nbytes = op
                serial = len(sizes)
                sizes[serial] = nbytes
                service.send_block(plane, Block(partition, serial, nbytes, False))
                handed[plane, partition].append(serial)  # dest == partition
            else:
                closed.add(op[1])
                service.send_eos(op[1])
            on_wire, ended = on_the_wire(world)
            assert ended == closed
            for key, ids in handed.items():
                sent = on_wire.get(key, [])
                assert ids[: len(sent)] == sent
                held = ids[len(sent):]
                if key[0] in closed:
                    assert held == []  # the EOS call put it all on the wire
                else:  # held back only while short of the cap
                    assert sum(sizes[i] for i in held) < BATCH_BYTES
    finally:
        service.shutdown()
    return world, service, handed


class TestSenderStreams:
    @pytest.mark.parametrize("reborn", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_every_stream_is_sequenced_ordered_and_closed_once(self, reborn, ops):
        world, service, handed = play(ops, reborn)
        # coalescing follows the calls alone: the same calls, the same envelopes
        assert play(ops, reborn)[0].sent == world.sent

        by_stream = defaultdict(list)
        for (kind, plane, payload), dest in world.sent:
            by_stream[plane, dest].append((kind, payload))
        assert set(by_stream) == {(p, d) for p in "ab" for d in range(NPROCS)}
        for (plane, dest), messages in by_stream.items():
            # one message kind: a reborn incarnation names its epoch in
            # every batch, no reset goes ahead of them
            assert all(kind == "batch" for kind, _ in messages)
            envelopes = [payload for _, payload in messages]
            assert [seq for seq, *_ in envelopes] == list(range(len(envelopes)))
            assert all(origin == 0 for _, origin, *_ in envelopes)
            assert all(epoch == int(reborn) for _, _, epoch, *_ in envelopes)
            *before, last = [eos for *_, eos in envelopes]
            assert not any(before) and last is True
            blocks = [b for *_, batch, _ in envelopes for b in batch]
            assert [b.records for b in blocks] == handed[plane, dest]
            assert all(b.partition_id == dest for b in blocks)
            for *_, batch, _ in envelopes:
                # the cap flushes as soon as it is reached: at most one
                # block rides above it
                assert sum(b.nbytes for b in batch[:-1]) < BATCH_BYTES
        stats = service.stats()
        assert stats["envelopes_sent"] == len(world.sent)
        assert stats["blocks_sent"] == sum(map(len, handed.values()))

    def test_outbound_numbers_its_envelopes_and_hands_blocks_out_once(self):
        out = _Outbound()
        assert out.take() == (0, [], 0)  # a bare EOS envelope
        first, second = Block(0, "x", 7, False), Block(0, "y", 5, False)
        out.add(first)
        out.add(second)
        assert out.nbytes == 12
        assert out.take() == (1, [first, second], 12)
        assert (out.seq, out.blocks, out.nbytes) == (2, [], 0)


# -- (c) a dead world fails the task that sends ----------------------------------------


class DeadWorld(RecordingWorld):
    """A worker that lost its router: every send meets MPIAbort."""

    def __init__(self):
        super().__init__(size=NPROCS)
        self.runtime.abort_flag.trip("router lost")

    def send(self, obj, dest, tag=0):
        self.runtime.abort_flag.check()


class TestSendAfterAbort:
    def test_a_send_on_a_dead_world_raises_in_the_task_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        service = ShuffleService(DeadWorld(), plane_config)
        service.send_block("a", Block(0, 0, 10, False))  # held: short of the cap
        with pytest.raises(MPIAbort, match="router lost"):
            service.send_eos("a")
        # an open plane, and one opened now, report the world's reason
        for plane_id in ("a", "late"):
            with pytest.raises(MPIAbort, match="router lost"):
                service.plane(plane_id).wait_complete(60)
        service.shutdown()
        assert set(threading.enumerate()) <= before
