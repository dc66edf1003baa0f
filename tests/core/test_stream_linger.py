"""Age-bounded sealing (Streaming mode), driven by generated schedules.

A real ``TaskContext.send`` over a real ``SendPartitionList`` whose ``now``
is a fake clock the schedule advances; the shuffle is a list that collects
shipped blocks.  No thread, no sleep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import SendPartitionList
from repro.core.context import TaskContext
from repro.serde.batch import batch_from_pairs
from repro.serde.serialization import get_serializer
from tests.core.helpers import Shipped

SER = get_serializer("writable")
PARTITIONS = 3
LINGER = 0.004
FLUSH_BYTES = 256

#: (partition, key, value, seconds the clock advances before the send)
events = st.lists(
    st.tuples(
        st.integers(0, PARTITIONS - 1),
        st.text(max_size=12),
        st.integers(-1000, 1000),
        st.sampled_from([0.0, 0.0001, 0.001, 0.0039, 0.004, 0.0041, 0.02]),
    ),
    max_size=80,
)


def drive(schedule, linger):
    """Send the schedule; returns, per send, the clock and what the SPL
    still held after it as (added_at, record), the shipped blocks and the
    SPL."""
    clock = [100.0]
    spl = SendPartitionList(
        PARTITIONS, FLUSH_BYTES, None, serializer=SER,
        linger=linger, now=lambda: clock[0],
    )
    shipped = Shipped()
    ctx = TaskContext(
        kind="O", task_id=0, o_size=1, a_size=PARTITIONS, round_no=0, conf={},
        partitioner=lambda key, value, n: key[0], spl=spl,
        send_plane_id="fwd:0", shuffle=shipped, recv_plane=None,
    )
    held_after = []
    added = []  # (time added, partition, record) of everything sent so far
    for partition, key, value, dt in schedule:
        clock[0] += dt
        record = ((partition, key), value)
        ctx.send(*record)
        added.append((clock[0], partition, record))
        # a partition's blocks leave in send order (asserted on its own
        # below), so what it still holds is the tail of its records
        held = []
        for p in range(PARTITIONS):
            gone = sum(b.count for b in shipped.blocks if b.partition_id == p)
            held.extend([(t, r) for t, q, r in added if q == p][gone:])
        held_after.append((clock[0], held))
    return held_after, shipped.blocks, spl


def records_by_partition(blocks):
    out = {p: [] for p in range(PARTITIONS)}
    for block in blocks:
        out[block.partition_id].extend(block.records.iter_pairs(SER))
    return out


@settings(max_examples=200, deadline=None)
@given(events)
def test_no_record_outlives_the_linger_across_a_send(schedule):
    held_after, _blocks, _spl = drive(schedule, LINGER)
    for now, held in held_after:
        for added_at, record in held:
            assert now - added_at < LINGER, (
                f"{record} added at {added_at} still held after a send at {now}"
            )


@settings(max_examples=200, deadline=None)
@given(events)
def test_blocks_concatenate_to_arrival_order(schedule):
    _held, blocks, spl = drive(schedule, LINGER)
    blocks = blocks + spl.flush_all()
    expected = {p: [] for p in range(PARTITIONS)}
    for partition, key, value, _dt in schedule:
        expected[partition].append(((partition, key), value))
    assert records_by_partition(blocks) == expected
    assert spl.records_out == len(schedule)


@settings(max_examples=200, deadline=None)
@given(events)
def test_without_a_linger_the_boundaries_are_the_byte_threshold_alone(schedule):
    _held, blocks, spl = drive(schedule, None)
    blocks = blocks + spl.flush_all()
    # the rule, restated: a partition seals when the encoded bytes of the
    # records it holds reach the threshold, and at the end
    expected, sizes = [], {}
    runs = {p: [] for p in range(PARTITIONS)}
    for partition, key, value, _dt in schedule:
        record = ((partition, key), value)
        runs[partition].append(record)
        sizes[partition] = sizes.get(partition, 0) + len(
            batch_from_pairs([record], SER).data)
        if sizes[partition] >= FLUSH_BYTES:
            expected.append((partition, runs[partition]))
            runs[partition], sizes[partition] = [], 0
    expected.extend((p, run) for p, run in runs.items() if run)
    got = [(b.partition_id, list(b.records.iter_pairs(SER))) for b in blocks]
    assert got == expected


def test_a_flush_rearms_the_linger():
    clock = [0.0]
    spl = SendPartitionList(
        2, 1 << 20, None, serializer=SER, linger=LINGER, now=lambda: clock[0]
    )
    assert spl.next_seal == LINGER
    spl.add(0, "a", 1)
    clock[0] = 0.010
    (block,) = spl.flush_all("age")
    assert block.count == 1 and spl.next_seal == 0.010 + LINGER
    assert SendPartitionList(2, 64, None, serializer=SER).next_seal == float("inf")
