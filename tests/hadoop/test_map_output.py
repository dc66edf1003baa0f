"""Tests for the map side (the engine's buffers, output on local disk)
and the I/O formats."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataMPIError
from repro.core.partition import hash_partitioner
from repro.hadoop.io_formats import (
    BytesConcatOutputFormat,
    FixedLengthRecordFormat,
    KeyValueTextOutputFormat,
    TextInputFormat,
    compute_splits,
)
from repro.hadoop.job import HadoopJob
from repro.hadoop.shuffle_http import ShuffleServer
from repro.hadoop.tasks import SERDE, run_map_task
from repro.hdfs.cluster import MiniDFSCluster
from repro.serde.batch import batch_from_pairs


def run_map(pairs, num_partitions=2, partitioner=hash_partitioner,
            sort_buffer_bytes=10**9, combiner=None):
    """One map task on a one-node cluster whose mapper emits ``pairs``;
    returns each non-empty partition's segment as pulled by a reducer,
    and the task's record."""
    dfs = MiniDFSCluster(num_nodes=1, block_size=1024).client(0)
    dfs.write_file("/in", b"x\n")
    (split,) = compute_splits(dfs, "/in")

    def mapper(_k, _v, emit):
        for key, value in pairs:
            emit(key, value)

    job = HadoopJob(
        "m", "/in", "/out", mapper, None, num_partitions, combiner=combiner,
        partitioner=partitioner, sort_buffer_bytes=sort_buffer_bytes,
    )
    server = ShuffleServer(0)
    with tempfile.TemporaryDirectory() as local_dir:
        metrics = run_map_task(job, 0, split, dfs, server, local_dir)
        segments = {p: server.fetch(0, p) for p in range(num_partitions)}
    runs = {p: list(batch.iter_pairs(SERDE))
            for p, batch in segments.items() if batch is not None}
    return runs, metrics


class TestMapOutputBuffer:
    def test_collect_and_finish(self):
        runs, _ = run_map([(word, 1) for word in ["b", "a", "c", "a"]])
        all_records = [kv for run in runs.values() for kv in run]
        assert sorted(all_records) == [("a", 1), ("a", 1), ("b", 1), ("c", 1)]
        for run in runs.values():
            assert [k for k, _ in run] == sorted(k for k, _ in run)

    def test_spills_on_budget(self, map_spills):
        runs, _ = run_map(
            [(f"key{i}", "v" * 10) for i in range(50)], sort_buffer_bytes=100)
        # spill files beyond the one segment each partition writes
        assert len(map_spills) - len(runs) > 1
        assert sum(len(run) for run in runs.values()) == 50

    def test_multi_spill_merge_is_sorted(self, map_spills):
        import random

        rng = random.Random(0)
        keys = [f"{rng.randint(0, 999):03d}" for _ in range(100)]
        runs, _ = run_map(
            [(k, None) for k in keys], sort_buffer_bytes=64, num_partitions=1)
        (run,) = runs.values()
        assert len(map_spills) > 2
        assert [k for k, _ in run] == sorted(keys)

    def test_combiner_applied_per_spill_and_merge(self):
        runs, metrics = run_map(
            [("hot", 1)] * 40, sort_buffer_bytes=80, num_partitions=1,
            combiner=lambda k, vs: [sum(vs)],
        )
        (run,) = runs.values()
        assert run == [("hot", 40)]
        assert metrics.combined_away > 0

    def test_partitions_respected(self):
        runs, _ = run_map([(i, None) for i in range(30)], num_partitions=3,
                          partitioner=lambda k, v, n: k % n)
        for partition, run in runs.items():
            assert all(k % 3 == partition for k, _ in run)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=8), max_size=60))
    def test_no_records_lost(self, keys):
        runs, metrics = run_map(
            [(k, 1) for k in keys], sort_buffer_bytes=128, num_partitions=4)
        assert sum(len(r) for r in runs.values()) == len(keys)
        assert metrics.records_sent == len(keys)

    def test_a_partitioner_out_of_range_fails_the_task(self):
        with pytest.raises(DataMPIError):
            run_map([("k", 1)], partitioner=lambda k, v, n: n)


class TestTextInputFormat:
    def test_basic_lines(self):
        fmt = TextInputFormat()
        records = list(fmt.read_records(b"alpha\nbeta\n"))
        assert records == [(0, "alpha"), (6, "beta")]

    def test_line_stitching_across_blocks(self):
        """LineRecordReader semantics: no line lost or duplicated."""
        cluster = MiniDFSCluster(num_nodes=2, block_size=17)
        dfs = cluster.client(0)
        lines = [f"line-{i:04d}" for i in range(40)]
        dfs.write_file("/t", ("\n".join(lines) + "\n").encode())
        fmt = TextInputFormat()
        collected = []
        for split in compute_splits(dfs, "/t"):
            collected.extend(v for _, v in fmt.read_split(dfs, split))
        assert collected == lines

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=30), min_size=1,
                 max_size=30),
        st.integers(min_value=5, max_value=64),
    )
    def test_stitching_property(self, lines, block_size):
        cluster = MiniDFSCluster(num_nodes=1, block_size=block_size)
        dfs = cluster.client(0)
        dfs.write_file("/p", ("\n".join(lines) + "\n").encode())
        fmt = TextInputFormat()
        collected = []
        for split in compute_splits(dfs, "/p"):
            collected.extend(v for _, v in fmt.read_split(dfs, split))
        assert collected == lines


class TestFixedAndOutputFormats:
    def test_fixed_records(self):
        fmt = FixedLengthRecordFormat(record_len=10, key_len=3)
        data = b"aaa0000000bbb1111111"
        records = list(fmt.read_records(data))
        assert records == [(b"aaa", b"0000000"), (b"bbb", b"1111111")]

    def test_fixed_misaligned_raises(self):
        fmt = FixedLengthRecordFormat(record_len=10, key_len=3)
        with pytest.raises(DataMPIError):
            list(fmt.read_records(b"short"))

    @pytest.mark.parametrize("record_len, key_len", [(100, 10), (10, 3), (300, 10)])
    @pytest.mark.parametrize("records", [1, 7, 9])
    def test_a_split_reads_as_one_batch_of_its_records(
        self, record_len, key_len, records
    ):
        """One copy for fields up to 127 B (their framing is two constant
        columns), pair by pair for longer ones; the same bytes either way."""
        dfs = MiniDFSCluster(num_nodes=1, block_size=7 * record_len).client(0)
        dfs.write_file("/f", bytes(i % 251 for i in range(records * record_len)))
        fmt = FixedLengthRecordFormat(record_len, key_len)
        for split in compute_splits(dfs, "/f"):
            batch = fmt.read_batch(dfs, split)
            expected = batch_from_pairs(fmt.read_split(dfs, split), None, raw=True)
            assert batch.raw and batch.count == expected.count
            assert bytes(batch.data) == bytes(expected.data)

    def test_a_misaligned_split_does_not_read_as_a_batch(self):
        dfs = MiniDFSCluster(num_nodes=1, block_size=64).client(0)
        dfs.write_file("/f", b"short")
        (split,) = compute_splits(dfs, "/f")
        with pytest.raises(DataMPIError):
            FixedLengthRecordFormat(record_len=10, key_len=3).read_batch(dfs, split)

    def test_fixed_validation(self):
        with pytest.raises(DataMPIError):
            FixedLengthRecordFormat(record_len=10, key_len=10)

    def test_kv_text_roundtrip(self):
        fmt = KeyValueTextOutputFormat()
        blob = fmt.serialize([("a", 1), ("b", "x y")])
        assert fmt.parse(blob) == [("a", "1"), ("b", "x y")]

    def test_bytes_concat(self):
        fmt = BytesConcatOutputFormat()
        blob = fmt.serialize([(b"key", b"val")])
        assert blob == b"keyval"
