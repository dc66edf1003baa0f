"""``ctx.send_batch``: one array pass where it applies, N sends elsewhere.

A fixed-stride raw batch bound for a range partitioner is sorted, cut
and sealed by ``SendPartitionList.add_batch``; the reference is the same
batch sent pair by pair through ``add`` + ``flush_all``.  After a merge
every partition must be the same bytes, with equal keys in batch order.
A key equal to a boundary belongs to the partition *below* it (``keys <=
boundaries[i]`` land in ``i``): a concatenated output cannot tell, a
partition can.  Every send ``send_batch`` cannot take as an array —
another partitioner, a wrapped send, a batch of another shape — must be
exactly ``batch.count`` calls of ``ctx.send``.
"""

import os
import pickle
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import DataMPIError
from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.buffers import SendPartitionList
from repro.core.checkpoint import CheckpointManager, CheckpointReader, CheckpointWriter
from repro.core.constants import MPI_D_Constants as K
from repro.core.context import TaskContext
from repro.core.partition import hash_partitioner, range_partitioner
from repro.core.sorter import RunStore, merge_batches
from repro.hdfs import MiniDFSCluster
from repro.serde.batch import RecordBatch, _fixed_stride, batch_from_pairs, sort_batch
from repro.serde.comparators import bytes_compare, default_compare
from repro.workloads.teragen import RECORD_LEN, teragen_to_dfs
from repro.workloads.terasort import terasort_datampi
from tests.core.helpers import SERIALIZER as SER, FileCollector, Shipped

#: the ends of the unsigned byte range, NULs (trailing ones too) included
_key_byte = st.sampled_from([0x00, 0x01, 0xFF])


@st.composite
def _batches(draw):
    """A fixed-stride raw batch (odd ``klen`` included, duplicate keys the
    rule) and sorted boundaries, some of them equal to a key of it."""
    klen = draw(st.sampled_from([0, 1, 3, 10]))
    vlen = draw(st.sampled_from([8, 90, 127]))
    key = st.lists(_key_byte, min_size=klen, max_size=klen).map(bytes)
    keys = draw(st.lists(key, min_size=2, max_size=60))
    boundaries = draw(st.lists(
        st.one_of(st.sampled_from(keys), key), max_size=3).map(sorted))
    # the value names the pair's batch position: stability shows
    pairs = [(k, (b"%d" % i).ljust(vlen, b".")) for i, k in enumerate(keys)]
    return pairs, boundaries


def _spl(partitions, flush_bytes, cmp):
    return SendPartitionList(partitions, flush_bytes, cmp, serializer=SER, raw=True)


@settings(max_examples=150, deadline=None, print_blob=True)
@given(case=_batches(), flush_bytes=st.sampled_from([1, 64, 500, 32 * 1024]),
       cmp=st.sampled_from([bytes_compare, default_compare]), view=st.booleans())
# the boundary is a key of the batch: bisect_left would move it up a partition
@example(case=([(b"\x01", b"0......."), (b"\x00", b"1......."),
                (b"\x01", b"2......."), (b"\xff", b"3.......")], [b"\x01"]),
         flush_bytes=64, cmp=bytes_compare, view=False)
def test_add_batch_equals_pair_by_pair(case, flush_bytes, cmp, view):
    pairs, boundaries = case
    partitions = len(boundaries) + 1
    partition = range_partitioner(boundaries)
    batch = batch_from_pairs(pairs, None, raw=True)
    if view:
        batch = RecordBatch(memoryview(batch.data), batch.count, True)

    reference = _spl(partitions, flush_bytes, cmp)
    expected = []
    for key, value in pairs:
        block = reference.add(partition(key, value, partitions), key, value)
        if block is not None:
            expected.append(block)
    expected += reference.flush_all()

    spl = _spl(partitions, flush_bytes, cmp)
    blocks = spl.add_batch(batch, boundaries)

    stride = len(batch.data) // batch.count
    per_block = -(-flush_bytes // stride)
    assert all(0 < b.count <= per_block and b.sorted for b in blocks)
    assert all(b.nbytes == len(b.records.data) for b in blocks)
    for p in range(partitions):
        mine = [b.records for b in blocks if b.partition_id == p]
        theirs = [b.records for b in expected if b.partition_id == p]
        merged = merge_batches(mine, cmp, SER)
        assert bytes(merged.data) == bytes(merge_batches(theirs, cmp, SER).data)
        # the blocks are consecutive slices of one sorted array
        assert b"".join(bytes(b.data) for b in mine) == bytes(merged.data)
    assert (spl.records_out, spl.bytes_out) == (
        reference.records_out, reference.bytes_out)
    assert spl.records_out == len(pairs) and spl.bytes_out == len(batch.data)


# -- which sends take the array path -------------------------------------------

A_TASKS = 3
PAIRS = [(bytes([i * 37 % 256, i % 7]), b"v%03d" % i) for i in range(40)]
BOUNDS = sorted({k for k, _ in PAIRS})[10:12]


def _context(spl, partitioner=range_partitioner(BOUNDS), **kwargs):
    shipped = Shipped()
    ctx = TaskContext(
        kind="O", task_id=0, o_size=1, a_size=A_TASKS, round_no=0, conf={},
        partitioner=partitioner, spl=spl, send_plane_id="fwd:0",
        shuffle=shipped, recv_plane=None, **kwargs,
    )
    # count the array passes
    passes = []
    add_batch = spl.add_batch

    def counted(batch, boundaries):
        passes.append(batch.count)
        return add_batch(batch, boundaries)

    spl.add_batch = counted
    return ctx, shipped, passes


def _sent(spl, shipped):
    """Every record the task shipped or still holds, per partition, as
    the merged partition bytes."""
    blocks = shipped.blocks + spl.flush_all()
    return {
        p: bytes(merge_batches(
            [b.records for b in blocks if b.partition_id == p], spl.cmp, SER).data)
        for p in range(A_TASKS)
    }


def _per_pair(spl_args, pairs, partitioner=range_partitioner(BOUNDS)):
    spl = SendPartitionList(A_TASKS, 64, **spl_args)
    ctx, shipped, _ = _context(spl, partitioner)
    for key, value in pairs:
        ctx.send(key, value)
    return _sent(spl, shipped)


_RAW = {"cmp": bytes_compare, "serializer": SER, "raw": True}


def test_an_eligible_batch_is_one_array_pass():
    spl = SendPartitionList(A_TASKS, 64, **_RAW)
    ctx, shipped, passes = _context(spl)
    ctx.send_batch(batch_from_pairs(PAIRS, None, raw=True))
    assert passes == [len(PAIRS)]
    assert ctx.metrics.records_emitted == len(PAIRS)
    assert _sent(spl, shipped) == _per_pair(_RAW, PAIRS)


def _combine(key, values):
    yield b"".join(values)


@pytest.mark.parametrize("spl_args, partitioner, ctx_args, pairs", [
    pytest.param(_RAW, hash_partitioner, {}, PAIRS, id="hash-partitioner"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {"crash_after": 10**6}, PAIRS,
                 id="crash-counting"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {"key_class": bytes}, PAIRS,
                 id="key-class"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {"value_class": bytes}, PAIRS,
                 id="value-class"),
    pytest.param({**_RAW, "linger": 1.0}, range_partitioner(BOUNDS), {}, PAIRS,
                 id="linger"),
    pytest.param({**_RAW, "combiner": _combine}, range_partitioner(BOUNDS), {},
                 PAIRS, id="combiner"),
    pytest.param({**_RAW, "cmp": lambda a, b: bytes_compare(a, b)},
                 range_partitioner(BOUNDS), {}, PAIRS, id="custom-comparator"),
    pytest.param({**_RAW, "raw": False}, range_partitioner(BOUNDS), {}, PAIRS,
                 id="not-raw"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {},
                 PAIRS[:5] + [(b"\x01", b"mixed stride")], id="mixed-stride"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {}, PAIRS[:1], id="one-record"),
    pytest.param(_RAW, range_partitioner(BOUNDS), {}, [], id="empty"),
])
def test_anything_else_is_one_send_per_pair(spl_args, partitioner, ctx_args, pairs):
    spl = SendPartitionList(A_TASKS, 64, **spl_args)
    ctx, shipped, passes = _context(spl, partitioner, **ctx_args)
    ctx.send_batch(batch_from_pairs(pairs, None, raw=True))
    assert passes == []
    assert ctx.metrics.records_emitted == len(pairs)
    assert _sent(spl, shipped) == _per_pair(spl_args, pairs, partitioner)


def test_a_wrong_boundary_count_raises_as_send_does():
    spl = SendPartitionList(A_TASKS, 64, **_RAW)
    ctx, _, passes = _context(spl, range_partitioner(BOUNDS[:1]))
    with pytest.raises(DataMPIError, match="1 boundaries for 3 partitions"):
        ctx.send_batch(batch_from_pairs(PAIRS, None, raw=True))
    assert passes == []


# -- whole jobs, both launchers ---------------------------------------------------

O_TASKS = 2


def _job(out, partitioner, batched, conf, pairs_of):
    def o_fn(ctx):
        pairs = pairs_of(ctx.rank)
        if batched:
            ctx.send_batch(batch_from_pairs(pairs, None, raw=True))
        else:
            for key, value in pairs:
                ctx.send(key, value)

    def a_fn(ctx):
        for key, value in ctx.recv_iter():
            out(ctx.rank, key, value)

    return DataMPIJob(
        "send-batch", o_fn, a_fn, O_TASKS, A_TASKS, mode=Mode.MAPREDUCE,
        conf={K.SHUFFLE_RAW: True, K.SPL_PARTITION_BYTES: 64, **conf},
        partitioner=partitioner, comparator=bytes_compare,
    )


_INPUTS = {
    "many": lambda rank: PAIRS[rank::O_TASKS],
    "one-record": lambda rank: PAIRS[:1] if rank == 0 else [],
    "empty": lambda rank: [],
}


@pytest.mark.parametrize("launcher", ["threads", "processes"])
@pytest.mark.parametrize("partitioner, conf, inputs", [
    pytest.param(range_partitioner(BOUNDS), {}, "many", id="range"),
    pytest.param(hash_partitioner, {}, "many", id="hash"),
    pytest.param(range_partitioner(BOUNDS), {K.KEY_CLASS: "bytes"}, "many",
                 id="key-class-bytes"),
    pytest.param(range_partitioner(BOUNDS), {}, "one-record", id="one-record"),
    pytest.param(range_partitioner(BOUNDS), {}, "empty", id="empty"),
])
def test_a_job_sees_what_a_send_loop_sends(tmp_path, launcher, partitioner, conf,
                                           inputs):
    outputs = []
    for batched in (False, True):
        out = FileCollector(tmp_path / f"out-{batched}")
        job = _job(out, partitioner, batched, {K.LAUNCHER: launcher, **conf},
                   _INPUTS[inputs])
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        assert result.metrics.records_sent == sum(
            len(_INPUTS[inputs](r)) for r in range(O_TASKS))
        outputs.append({r: list(out.pairs_for(r)) for r in out.ranks()})
    assert outputs[0] == outputs[1]


# -- checkpointed sends -----------------------------------------------------------


def test_a_checkpointed_batch_is_one_array_pass_and_one_round(tmp_path):
    """With a checkpoint on, an eligible batch still sorts as one array,
    and the round file's payload is the batch's bytes, whole."""
    spl = SendPartitionList(A_TASKS, 64, **_RAW)
    writer = CheckpointWriter(str(tmp_path), "o0", SER, 1, raw=True)
    ctx, shipped, passes = _context(spl, checkpoint_writer=writer)
    batch = batch_from_pairs(PAIRS, None, raw=True)
    ctx.send_batch(batch)
    assert passes == [len(PAIRS)]
    assert writer.records_persisted == len(PAIRS)
    (round_file,) = tmp_path.iterdir()  # interval 1, yet a batch is not split
    data = round_file.read_bytes()
    # CRC32, the one-byte vint record count, then the batch as it came
    assert data[:4] == zlib.crc32(data[4:]).to_bytes(4, "big")
    assert data[4:] == bytes([len(PAIRS)]) + bytes(batch.data)
    replayed = CheckpointReader(str(tmp_path), "o0", SER, raw=True).replay()
    assert list(replayed) == PAIRS
    assert _sent(spl, shipped) == _per_pair(_RAW, PAIRS)


def test_a_resumed_task_sends_the_replay_window_per_pair(tmp_path):
    """A restarted task skips the pairs its checkpoint replayed: a batch
    inside that window is ``batch.count`` calls of ``send``, the batches
    past it are one array pass each."""
    first, second = (batch_from_pairs(half, None, raw=True)
                     for half in (PAIRS[:20], PAIRS[20:]))
    spl = SendPartitionList(A_TASKS, 64, **_RAW)
    writer = CheckpointWriter(str(tmp_path), "o0", SER, 7, raw=True)
    ctx, _, passes = _context(spl, checkpoint_writer=writer, crash_after=10)
    with pytest.raises(DataMPIError, match="injected crash"):
        ctx.send_batch(first)  # crash injection sends pair by pair
    assert passes == [] and writer.records_persisted == 7

    reader = CheckpointReader(str(tmp_path), "o0", SER, raw=True)
    spl = SendPartitionList(A_TASKS, 64, **_RAW)
    writer = CheckpointWriter(
        str(tmp_path), "o0", SER, 7, start_round=reader.max_round(), raw=True)
    ctx, shipped, passes = _context(
        spl, checkpoint_writer=writer, checkpoint_reader=reader)
    assert ctx.replay_checkpoint() == 7
    ctx.send_batch(first)  # 7 pairs skipped, 13 sent and persisted
    assert passes == []
    ctx.send_batch(second)
    assert passes == [20]
    ctx.close()
    assert ctx.metrics.records_emitted == len(PAIRS)
    assert writer.records_persisted == 33
    assert _sent(spl, shipped) == _per_pair(_RAW, PAIRS)  # each pair once
    assert list(reader.replay()) == PAIRS


#: six fixed-stride splits of eight records, three per O task
SPLIT = 8
SPLITS = [
    batch_from_pairs(
        [(bytes([i * 37 % 256, i % 7]), b"v%03d" % i)
         for i in range(s * SPLIT, (s + 1) * SPLIT)], None, raw=True)
    for s in range(6)
]


def _ft_job(out, batched, conf, crash_marker=None, crash_splits=0):
    """TeraSort's shape: O task r sends splits r, r + 2, ...; A tasks
    write their range as one part file.  ``crash_marker``: O task 0 raises
    after ``crash_splits`` splits unless the marker exists, and makes it —
    so the first attempt dies with whole batches persisted."""
    def o_fn(ctx):
        for n, batch in enumerate(SPLITS[ctx.rank::ctx.o_size], 1):
            if batched:
                ctx.send_batch(batch)
            else:
                for key, value in batch.iter_views():
                    ctx.send(key, value)
            if (crash_marker is not None and ctx.rank == 0 and n == crash_splits
                    and not os.path.exists(crash_marker)):
                open(crash_marker, "w").close()
                raise RuntimeError("o_fn crashed")

    def a_fn(ctx):
        with open(os.path.join(out, f"part-{ctx.rank:05d}"), "wb") as f:
            for key, value in ctx.recv_iter():
                f.write(key + value)

    return DataMPIJob(
        "ft-send-batch", o_fn, a_fn, O_TASKS, A_TASKS, mode=Mode.MAPREDUCE,
        conf={K.SHUFFLE_RAW: True, K.SPL_PARTITION_BYTES: 64, **conf},
        partitioner=range_partitioner(BOUNDS), comparator=bytes_compare,
    )


def _parts(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def ft_off_parts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ft-off")
    mpidrun(_ft_job(str(out), True, {}), nprocs=2, timeout=120.0,
            raise_on_error=True)
    return _parts(out)


@pytest.mark.parametrize("launcher", ["threads", "processes"])
@settings(max_examples=25, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(interval=st.sampled_from([1, 7, SPLIT]), batched=st.booleans(),
       crash=st.one_of(
           st.tuples(st.just("inject"), st.integers(0, 1),
                     st.integers(0, 3 * SPLIT - 1)),
           st.tuples(st.just("o_fn"), st.just(0), st.integers(1, 3))))
def test_a_restarted_job_writes_what_an_unfailed_one_does(
        tmp_path_factory, ft_off_parts, launcher, interval, batched, crash):
    """Crash an FT job, rerun it: the rerun reloads exactly what the first
    attempt persisted and writes the part files an FT-off job writes —
    no record lost, none sent twice."""
    how, task, point = crash
    root = tmp_path_factory.mktemp("ft")
    conf = {K.LAUNCHER: launcher, K.FT_ENABLED: True, K.FT_DIR: str(root),
            K.FT_INTERVAL_RECORDS: interval}
    marker = str(root / "crashed") if how == "o_fn" else None
    inject = {K.INJECT_CRASH_TASK: task, K.INJECT_CRASH_AFTER_RECORDS: point}
    first = mpidrun(
        _ft_job(str(root), batched, {**conf, **(inject if how == "inject" else {})},
                marker, point),
        nprocs=2, timeout=120.0)
    assert not first.success
    rounds = CheckpointManager(str(root), "ft-send-batch", SER, interval, raw=True)
    # the crashed task's rounds: a batch sent whole is persisted whole
    sent = point * SPLIT if how == "o_fn" else point
    assert rounds.reader(task).record_count() == (
        sent if how == "o_fn" and batched else sent // interval * interval)
    persisted = sum(rounds.reader(t).record_count() for t in range(O_TASKS))
    out = root / "out"
    out.mkdir()
    second = mpidrun(_ft_job(str(out), batched, conf, marker, point),
                     nprocs=2, timeout=120.0, raise_on_error=True)
    assert second.metrics.reloaded_records == persisted
    assert _parts(out) == ft_off_parts


# -- a batch's stride -------------------------------------------------------------


@pytest.fixture()
def built(monkeypatch):
    """Every ``RecordBatch`` constructed while the test runs."""
    batches = []
    init = RecordBatch.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        batches.append(self)

    monkeypatch.setattr(RecordBatch, "__init__", recording)
    return batches


def _checked_stride(batch):
    """The stride the full vectorised check finds in ``batch``'s bytes."""
    rows = _fixed_stride(RecordBatch(bytes(batch.data), batch.count, batch.raw))
    return None if rows is None else rows.shape[1]


def test_every_batch_the_terasort_path_builds_has_a_confirmed_stride(built):
    """Splits, their sorted arrays, the blocks cut from them, the merged
    partitions: each knows the stride its bytes have."""
    cluster = MiniDFSCluster(num_nodes=4, block_size=50 * RECORD_LEN)
    teragen_to_dfs(cluster.client(0), "/tera/in", 600)
    built.clear()
    terasort_datampi(cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3,
                     nprocs=2, conf={K.LAUNCHER: "threads"})
    made = list(built)
    # 12 splits, each read and sorted; at least one block and merge per part
    assert len(made) >= 2 * 12 + 2 * 3
    for batch in made:
        assert batch.stride == RECORD_LEN + 2
        assert batch.raw and len(batch.data) == batch.count * batch.stride
        if batch.count > 1:
            assert _checked_stride(batch) == batch.stride


def test_a_batch_off_the_wire_or_the_disk_carries_no_stride(built, tmp_path):
    """Pickled (the process wire), spilled and read back, checkpointed and
    replayed: such a batch is checked once, not trusted."""
    pairs = [(bytes([i % 5, i]), b"v%03d" % i) for i in range(40)]
    framed = batch_from_pairs(pairs, None, raw=True)
    batch = RecordBatch(framed.data, framed.count, True, _checked_stride(framed))
    assert pickle.loads(pickle.dumps(batch)).stride is None

    (tmp_path / "spill").mkdir()
    store = RunStore(bytes_compare, SER, str(tmp_path / "spill"), memory_budget=0)
    store.add_run(sort_batch(batch, bytes_compare, SER))
    assert len(store.disk_runs) == 1 and not store.memory_runs
    writer = CheckpointWriter(str(tmp_path), "o0", SER, 1, raw=True)
    writer.add_records(batch.data, batch.count)
    writer.close()
    built.clear()
    assert len(list(store)) == len(pairs)
    replayed = CheckpointReader(str(tmp_path), "o0", SER, raw=True).replay()
    assert list(replayed) == pairs
    assert built and all(b.stride is None for b in built)
    store.cleanup()
