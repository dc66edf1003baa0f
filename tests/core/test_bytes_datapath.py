"""Bytes-first datapath: record batches end-to-end, no per-record pickle.

The contract under test: after the sender-side buffer seals a block into
a :class:`~repro.serde.batch.RecordBatch`, no hop — coalescing, wire,
spill, merge — re-encodes a record.  Objects materialize only at the
user-function boundary (or never, for raw-byte consumers).
"""

import json
import os
import pickle
import threading

import pytest

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.buffers import Block, ReceivePartitionList, SendPartitionList
from repro.core.constants import MPI_D_Constants as K
from repro.core.sorter import RunStore
from repro.net import wire
from repro.serde.batch import RecordBatch, batch_from_pairs
from repro.serde.comparators import bytes_compare, default_compare
from repro.serde.serialization import get_serializer

from tests.serde.test_batch import CountingSerializer

SER = get_serializer("writable")


class TestSplSealsBatches:
    def test_seal_produces_record_batch(self):
        spl = SendPartitionList(
            num_partitions=1, flush_bytes=1 << 20, cmp=default_compare,
            serializer=SER,
        )
        for i in range(10):
            spl.add(0, f"k{i}", i)
        [block] = spl.flush_all()
        assert isinstance(block.records, RecordBatch)
        assert block.count == 10
        assert block.nbytes == len(block.records.data)
        assert block.sorted

    def test_seal_serializes_each_record_exactly_once(self):
        counting = CountingSerializer()
        spl = SendPartitionList(
            num_partitions=1, flush_bytes=1 << 20, cmp=default_compare,
            serializer=counting,
        )
        for i in range(30):
            spl.add(0, f"k{i}", i)
        spl.flush_all()
        assert counting.serialized == 60  # one per key + one per value
        assert counting.deserialized == 0

    def test_raw_seal_keeps_application_bytes(self):
        spl = SendPartitionList(
            num_partitions=1, flush_bytes=1 << 20, cmp=bytes_compare,
            serializer=SER, raw=True,
        )
        spl.add(0, b"bb", b"2")
        spl.add(0, b"aa", b"1")
        [block] = spl.flush_all()
        assert block.records.raw
        # raw layout: vint(2) 'aa' vint(1) '1' vint(2) 'bb' vint(1) '2'
        assert bytes(block.records.data) == b"\x02aa\x011\x02bb\x012"


class TestRplBatchPath:
    def _rpl(self, tmp_path, serializer=None, budget=1 << 20):
        store = RunStore(
            default_compare, serializer or SER, str(tmp_path), budget
        )
        return ReceivePartitionList(0, default_compare, store, 64)

    def test_batches_merge_without_decoding_values(self, tmp_path):
        counting = CountingSerializer()
        rpl = self._rpl(tmp_path, serializer=counting)
        for base in (0, 10):
            pairs = sorted((f"k{base + i:02d}", base + i) for i in range(10))
            batch = batch_from_pairs(pairs, SER)
            rpl.add_block(Block(0, batch, len(batch.data), sorted=True))
        rpl.store.compact(1)
        # compaction ordered 20 records by key; no value ever materialized
        assert counting.deserialized == 20
        assert counting.serialized == 0
        assert [k for k, _ in rpl.merged()] == [f"k{i:02d}" for i in range(20)]

    def test_merged_batch_fast_path(self, tmp_path):
        rpl = self._rpl(tmp_path)
        batch = batch_from_pairs([(b"a", b"1")], None, raw=True)
        rpl.add_block(Block(0, batch, len(batch.data), sorted=True))
        merged = rpl.merged_batch()
        assert merged is not None and merged.raw

    def test_spilled_store_declines_merged_batch(self, tmp_path):
        rpl = self._rpl(tmp_path, budget=0)  # everything spills
        batch = batch_from_pairs([(f"k{i}", i) for i in range(5)], SER)
        rpl.add_block(Block(0, batch, len(batch.data), sorted=True))
        assert rpl.merged_batch() is None
        assert [k for k, _ in rpl.merged()] == [f"k{i}" for i in range(5)]


class TestWireCodec:
    def _message(self, raw=False):
        if raw:
            batch = batch_from_pairs([(b"aa", b"11")], None, raw=True)
        else:
            batch = batch_from_pairs([("a", 1)], SER)
        block = Block(3, batch, len(batch.data), sorted=True)
        return ("batch", "fwd:0", (7, 2, 0, [block], True))

    def test_batch_message_roundtrips(self):
        body, flags = wire.encode_payload(self._message())
        assert flags == 0
        kind, plane_id, (seq, origin, _epoch, blocks, eos) = wire.decode_payload(
            body, flags
        )
        assert (kind, plane_id, seq, origin, eos) == ("batch", "fwd:0", 7, 2, True)
        [block] = blocks
        assert block.partition_id == 3 and block.sorted
        assert list(block.records.iter_pairs(SER)) == [("a", 1)]

    def test_raw_flag_roundtrips(self):
        body, flags = wire.encode_payload(self._message(raw=True))
        _, _, (*_, [block], _) = wire.decode_payload(body, flags)
        assert block.records.raw
        assert list(block.records.iter_pairs(SER)) == [(b"aa", b"11")]

    def test_a_block_cut_from_a_sorted_array_roundtrips(self):
        """``add_batch`` cuts blocks as views of one sorted array: the
        wire carries each block's own bytes, not the array's."""
        records = [(b"%02d" % (i * 7 % 10), b"v%d" % i) for i in range(10)]
        spl = SendPartitionList(
            num_partitions=2, flush_bytes=1 << 20, cmp=bytes_compare,
            serializer=SER, raw=True,
        )
        sent = spl.add_batch(batch_from_pairs(records, None, raw=True), [b"04"])
        assert isinstance(sent[1].records.data, memoryview)
        body, flags = wire.encode_payload(("batch", "fwd:0", (0, 1, 0, sent, True)))
        _, _, (*_, got, _) = wire.decode_payload(body, flags)
        assert [
            (b.partition_id, b.sorted, b.records.raw, b.count, b.nbytes)
            for b in got
        ] == [(0, True, True, 5, 30), (1, True, True, 5, 30)]
        for block, original in zip(got, sent):
            assert type(block.records.data) is bytes  # pins no frame body
            assert block.records.data == bytes(original.records.data)

    def test_non_batch_payload_falls_back_to_pickle(self):
        payload = ("task", 42)
        body, flags = wire.encode_payload(payload)
        assert flags == 0
        assert wire.decode_payload(body, flags) == payload

    def test_lookalike_application_message_falls_back_to_pickle(self):
        payload = ("batch", "fwd:0", (0, 0, 0, [("a", 1)], False))
        body, flags = wire.encode_payload(payload)
        assert flags == 0
        assert wire.decode_payload(body, flags) == payload


def _no_pickle_dumps(*args, **kwargs):
    raise AssertionError("pickle.dumps reached the shuffle hot loop")


class TestEndToEndNoPickle:
    def test_threads_shuffle_never_pickles(self, tmp_path, monkeypatch):
        """SPL -> coalescing -> RPL -> merge -> recv with pickle disabled."""
        outdir = str(tmp_path)

        def o_fn(ctx):
            for i in range(ctx.rank, 200, ctx.o_size):
                ctx.send(f"key-{i % 17:02d}", i)

        def a_fn(ctx):
            got = [k for k, _ in ctx.recv_iter()]
            with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                json.dump(got, f)

        job = DataMPIJob(
            "no-pickle", o_fn, a_fn, 2, 2, mode=Mode.MAPREDUCE,
            conf={K.SPL_PARTITION_BYTES: 256},
        )
        monkeypatch.setattr(pickle, "dumps", _no_pickle_dumps)
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        got = []
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                got.extend(json.load(f))
        assert sorted(got) == sorted(f"key-{i % 17:02d}" for i in range(200))


class TestOversizedAndEmpty:
    def test_single_record_larger_than_batch_cap(self, tmp_path):
        """One record beyond mpi.d.shuffle.batch.bytes still transmits."""
        outdir = str(tmp_path)
        big = "x" * 32_768

        def o_fn(ctx):
            ctx.send("big", big)
            ctx.send("small", "y")

        def a_fn(ctx):
            got = dict(ctx.recv_iter())
            with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                json.dump(got, f)

        job = DataMPIJob(
            "oversize", o_fn, a_fn, 1, 1, mode=Mode.MAPREDUCE,
            conf={K.SHUFFLE_BATCH_BYTES: 64, K.SPL_PARTITION_BYTES: 64},
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        with open(os.path.join(outdir, "a0.json")) as f:
            got = json.load(f)
        assert got == {"big": big, "small": "y"}

    def test_partition_with_no_records(self, tmp_path):
        """A tasks owning empty partitions see clean end-of-stream."""
        outdir = str(tmp_path)

        def o_fn(ctx):
            ctx.send("only", 1)  # single key: most partitions stay empty

        def a_fn(ctx):
            got = list(ctx.recv_iter())
            with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                json.dump(len(got), f)

        job = DataMPIJob(
            "empty-parts", o_fn, a_fn, 1, 4, mode=Mode.MAPREDUCE, conf={}
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        counts = []
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                counts.append(json.load(f))
        assert sum(counts) == 1


class TestRecvBatch:
    def test_raw_job_consumes_merged_batch(self, tmp_path):
        """The TeraSort shape: raw bytes in, one contiguous batch out."""
        outdir = str(tmp_path)
        used_batch = []

        def o_fn(ctx):
            for i in range(ctx.rank, 100, ctx.o_size):
                ctx.send(b"%04d" % (i * 7919 % 100), b"v" * 10)

        def a_fn(ctx):
            batch = ctx.recv_batch()
            used_batch.append(batch is not None)
            keys = [bytes(k) for k, _ in batch.iter_views()]
            with open(os.path.join(outdir, f"a{ctx.rank}.txt"), "w") as f:
                f.write("\n".join(k.decode() for k in keys))

        job = DataMPIJob(
            "raw-batch", o_fn, a_fn, 2, 2, mode=Mode.MAPREDUCE,
            conf={K.SHUFFLE_RAW: True},
            comparator=bytes_compare,
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert used_batch and all(used_batch)
        keys = []
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                part = f.read().split("\n")
            assert part == sorted(part)  # each partition key-sorted
            keys.extend(part)
        assert sorted(keys) == sorted("%04d" % (i * 7919 % 100) for i in range(100))

    def test_recv_batch_returns_none_after_recv(self, tmp_path):
        saw = []

        def o_fn(ctx):
            ctx.send(b"k", b"v")

        def a_fn(ctx):
            first = ctx.recv()
            saw.append((first, ctx.recv_batch()))

        job = DataMPIJob(
            "batch-after-recv", o_fn, a_fn, 1, 1, mode=Mode.MAPREDUCE,
            conf={K.SHUFFLE_RAW: True}, comparator=bytes_compare,
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        [(first, batch)] = saw
        assert first == (b"k", b"v")
        assert batch is None
