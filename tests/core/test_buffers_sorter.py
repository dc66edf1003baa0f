"""Tests for SPL/RPL buffer management and the sorter/run store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import ReceivePartitionList, SendPartitionList
from repro.core.sorter import (
    RunStore,
    combine_run,
    group_by_key,
    merge_runs,
    sort_block,
    spill_batch,
)
from repro.serde.batch import RecordBatch
from repro.serde.comparators import default_compare
from repro.serde.serialization import WritableSerializer
from tests.core.helpers import SERIALIZER as SER, batch_block


def run(records):
    """One sealed run for a :class:`RunStore`."""
    return batch_block(0, records).records


def pairs(block):
    return list(block.records.iter_pairs(SER))


class TestSortBlock:
    def test_sorts_by_key(self):
        records = [("b", 1), ("a", 2), ("c", 3)]
        assert sort_block(records) == [("a", 2), ("b", 1), ("c", 3)]

    def test_stable_for_equal_keys(self):
        records = [("k", 1), ("k", 2), ("k", 3)]
        assert sort_block(records) == records

    @given(st.lists(st.tuples(st.integers(), st.integers()), max_size=50))
    def test_matches_sorted(self, records):
        assert [k for k, _ in sort_block(records)] == sorted(k for k, _ in records)


class TestMergeRuns:
    def test_merges_in_order(self):
        r1 = [("a", 1), ("c", 1)]
        r2 = [("b", 2), ("d", 2)]
        assert [k for k, _ in merge_runs([r1, r2])] == ["a", "b", "c", "d"]

    def test_empty_runs_skipped(self):
        assert list(merge_runs([[], [("a", 1)], []])) == [("a", 1)]

    def test_no_runs(self):
        assert list(merge_runs([])) == []

    def test_ties_break_by_run_index(self):
        r1 = [("k", "first")]
        r2 = [("k", "second")]
        assert [v for _, v in merge_runs([r1, r2])] == ["first", "second"]

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(-50, 50), st.integers()), max_size=20),
            max_size=6,
        )
    )
    def test_merge_equals_global_sort(self, runs):
        sorted_runs = [sort_block(r) for r in runs]
        merged = [k for k, _ in merge_runs(sorted_runs)]
        flat = sorted(k for r in runs for k, _ in r)
        assert merged == flat

    def test_lazy(self):
        def gen():
            yield ("a", 1)
            raise AssertionError("must not be pulled past first record")

        it = merge_runs([gen()])
        assert next(it) == ("a", 1)


class TestGroupCombine:
    def test_group_by_key(self):
        stream = [("a", 1), ("a", 2), ("b", 3)]
        assert list(group_by_key(stream)) == [("a", [1, 2]), ("b", [3])]

    def test_group_empty(self):
        assert list(group_by_key([])) == []

    def test_single_group(self):
        assert list(group_by_key([("x", 1)])) == [("x", [1])]

    def test_combine_run_sums(self):
        run = [("a", 1), ("a", 2), ("b", 5)]
        combined = combine_run(run, lambda k, vs: [sum(vs)])
        assert combined == [("a", 3), ("b", 5)]

    def test_combiner_may_emit_multiple(self):
        run = [("a", 1), ("a", 2)]
        combined = combine_run(run, lambda k, vs: [min(vs), max(vs)])
        assert combined == [("a", 1), ("a", 2)]


class TestRunStore:
    def make_store(self, budget, tmp_path, cmp=default_compare):
        return RunStore(cmp, WritableSerializer(), str(tmp_path), budget)

    def test_all_in_memory_under_budget(self, tmp_path):
        store = self.make_store(10**9, tmp_path)
        store.add_run(run([("a", 1), ("c", 1)]))
        store.add_run(run([("b", 2)]))
        assert [k for k, _ in store] == ["a", "b", "c"]
        assert not store.disk_runs

    def test_spills_over_budget(self, tmp_path):
        store = self.make_store(budget=50, tmp_path=tmp_path)
        for i in range(10):
            store.add_run(run(sorted((f"k{i}-{j}", "v" * 10) for j in range(5))))
        assert store.disk_runs  # something spilled
        assert store.spilled_bytes > 0
        keys = [k for k, _ in store]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_zero_budget_spills_everything(self, tmp_path):
        store = self.make_store(budget=0, tmp_path=tmp_path)
        store.add_run(run([("b", 1)]))
        store.add_run(run([("a", 2)]))
        assert not store.memory_runs
        assert [k for k, _ in store] == ["a", "b"]

    def test_unsorted_mode_concatenates(self, tmp_path):
        store = self.make_store(10**9, tmp_path, cmp=None)
        store.add_run(run([("z", 1)]))
        store.add_run(run([("a", 2)]))
        assert [k for k, _ in store] == ["z", "a"]

    def test_resident_runs_merge_once_on_read(self, tmp_path, monkeypatch):
        import repro.core.sorter as sorter

        sorts = []
        real = sorter.sort_batch
        monkeypatch.setattr(
            sorter, "sort_batch",
            lambda batch, cmp, ser: sorts.append(batch.count) or real(batch, cmp, ser),
        )
        store = self.make_store(10**9, tmp_path)
        for i in reversed(range(10)):
            store.add_run(run([(f"k{i}", i)]))
        assert len(store.memory_runs) == 10 and not sorts  # filed, not merged
        assert [k for k, _ in store] == [f"k{i}" for i in range(10)]
        assert [k for k, _ in store] == [f"k{i}" for i in range(10)]
        # one pass over all ten records, reused by the second read
        assert sorts == [10]
        assert len(store.memory_runs) == 1
        assert store.total_records == 10

    def test_one_merge_span_per_merge(self, tmp_path, monkeypatch):
        import repro.core.sorter as sorter
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        tracer.enable(job="test")
        monkeypatch.setattr(sorter, "_T", tracer)
        runs = [run([(f"k{i}", i)]) for i in range(7)]
        size = len(runs[0].data)
        assert all(len(r.data) == size for r in runs)
        store = RunStore(
            default_compare, WritableSerializer(), str(tmp_path),
            4 * size + size // 2, stem="fwd:0-p3",
        )
        for r in runs:  # the fifth arrival overflows: merge, then spill
            store.add_run(r)
        assert len(list(store)) == len(list(store)) == 7
        merges = [e for e in tracer.drain() if e["name"] == "rpl.merge"]
        assert [e["cat"] for e in merges] == ["merge", "merge"]
        assert [e["args"] for e in merges] == [
            {"stem": "fwd:0-p3", "runs": 5, "records": 5, "bytes": 5 * size},
            {"stem": "fwd:0-p3", "runs": 2, "records": 2, "bytes": 2 * size},
        ]

    def test_equal_keys_keep_arrival_order_across_spills(self, tmp_path):
        runs = [run([("k", i), ("k", i + 100)]) for i in range(13)]
        size = len(runs[0].data)
        assert all(len(r.data) == size for r in runs)
        # every third arrival overflows
        store = self.make_store(budget=2 * size + size // 2, tmp_path=tmp_path)
        for r in runs:
            store.add_run(r)
        assert len(store.disk_runs) == 4 and len(store.memory_runs) == 1
        expected = [v for i in range(13) for v in (i, i + 100)]
        assert [v for _, v in store] == expected

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        budget=st.integers(1, 400),
    )
    def test_spill_granularity_and_accounting(self, tmp_path_factory, sizes, budget):
        """One coarse file per overflow, not one per block; the footprint
        estimate stays within [0, budget] after every arrival."""
        ser = WritableSerializer()
        batches = [
            run(sorted((f"k{(7 * i + j) % 50:02d}", j) for j in range(n)))
            for i, n in enumerate(sizes)
        ]
        total = sum(len(b.data) for b in batches)
        spill_dir = str(tmp_path_factory.mktemp("spill"))
        store = RunStore(default_compare, ser, spill_dir, budget)
        resident = RunStore(default_compare, ser, spill_dir, 10**9)
        for batch in batches:
            store.add_run(batch)
            resident.add_run(batch)
            assert 0 <= store.memory_bytes <= budget
        assert len(store.disk_runs) <= -(-total // budget) + 1
        assert store.spilled_bytes == sum(s.nbytes for s in store.disk_runs)
        assert list(store) == list(resident)
        assert not resident.disk_runs
        store.cleanup()

    def test_cleanup_removes_spills(self, tmp_path):
        import os

        store = self.make_store(budget=0, tmp_path=tmp_path)
        store.add_run(run([("a", 1)]))
        paths = [s.path for s in store.disk_runs]
        store.cleanup()
        assert all(not os.path.exists(p) for p in paths)

    def test_spill_roundtrip(self, tmp_path):
        records = [("key", [1, 2]), ("other", "value")]
        spill = spill_batch(run(records), SER, str(tmp_path), "t")
        assert list(spill) == records
        spill.delete()


class TestSendPartitionList:
    def test_seals_on_threshold(self):
        spl = SendPartitionList(
            num_partitions=2, flush_bytes=40, cmp=None, serializer=SER
        )
        blocks = []
        for i in range(10):
            block = spl.add(0, f"key{i}", "v" * 10)
            if block:
                blocks.append(block)
        assert blocks, "threshold never triggered"
        assert all(b.partition_id == 0 for b in blocks)

    def test_flush_all_covers_leftovers(self):
        spl = SendPartitionList(2, flush_bytes=10**9, cmp=None, serializer=SER)
        spl.add(0, "a", 1)
        spl.add(1, "b", 2)
        blocks = spl.flush_all()
        assert {b.partition_id for b in blocks} == {0, 1}
        assert spl.records_out == 2

    def test_sorted_blocks_when_cmp(self):
        spl = SendPartitionList(
            1, flush_bytes=10**9, cmp=default_compare, serializer=SER
        )
        for k in ["c", "a", "b"]:
            spl.add(0, k, None)
        (block,) = spl.flush_all()
        assert [k for k, _ in pairs(block)] == ["a", "b", "c"]
        assert block.sorted

    def test_combiner_shrinks_blocks(self):
        spl = SendPartitionList(
            1,
            flush_bytes=10**9,
            cmp=default_compare,
            combiner=lambda k, vs: [sum(vs)],
            serializer=SER,
        )
        for _ in range(5):
            spl.add(0, "w", 1)
        (block,) = spl.flush_all()
        assert pairs(block) == [("w", 5)]
        assert spl.combined_away == 4
        # the sealed bytes are the block's size: nothing is re-counted
        assert block.nbytes == spl.bytes_out == len(block.records.data)

    def test_counters(self):
        spl = SendPartitionList(2, flush_bytes=10**9, cmp=None, serializer=SER)
        spl.add(0, "a", 1)
        assert spl.records_in == 1
        spl.flush_all()
        assert spl.records_out == 1
        assert spl.bytes_out > 0


class TestReceivePartitionList:
    def _store(self, tmp_path, cmp=default_compare):
        return RunStore(cmp, WritableSerializer(), str(tmp_path), 10**9)

    def test_accumulates_and_merges(self, tmp_path):
        rpl = ReceivePartitionList(0, default_compare, self._store(tmp_path))
        rpl.add_block(batch_block(0, [("b", 1)]))
        rpl.add_block(batch_block(0, [("a", 2)]))
        assert [k for k, _ in rpl.merged()] == ["a", "b"]
        assert rpl.blocks_received == 2
        assert rpl.records_received == 2

    def test_unsorted_blocks_sorted_on_arrival(self, tmp_path):
        rpl = ReceivePartitionList(0, default_compare, self._store(tmp_path))
        rpl.add_block(batch_block(0, [("z", 1), ("a", 2)], sorted_=False))
        assert [k for k, _ in rpl.merged()] == ["a", "z"]

    def test_add_block_files_without_merging(self, tmp_path, monkeypatch):
        """Arrival is O(1): no key is extracted and nothing is merged
        until the partition is read; then every record is merged once."""
        indexed = []
        real = RecordBatch.key_index
        monkeypatch.setattr(
            RecordBatch, "key_index",
            lambda batch, ser: indexed.append(batch.count) or real(batch, ser),
        )
        store = self._store(tmp_path)
        rpl = ReceivePartitionList(0, default_compare, store)
        for i in reversed(range(40)):
            rpl.add_block(batch_block(0, [(f"k{i:02d}", i), (f"k{i:02d}x", i)]))
        assert len(store.memory_runs) == 40 and not indexed
        keys = [k for k, _ in rpl.merged()]
        assert keys == sorted(keys) and len(keys) == 80
        assert indexed == [80]

    def test_unretained_block_is_only_counted(self, tmp_path):
        store = self._store(tmp_path)
        rpl = ReceivePartitionList(0, default_compare, store)
        rpl.add_block(batch_block(0, [("a", 1), ("b", 2)]), retain=False)
        assert (rpl.blocks_received, rpl.records_received) == (1, 2)
        assert not store.memory_runs and store.memory_bytes == 0


class TestSinglePassAccounting:
    """The spill/seal paths must size each record exactly once."""

    def test_overflow_spills_everything_resident_as_one_run(self, tmp_path):
        store = RunStore(
            default_compare, WritableSerializer(), str(tmp_path),
            memory_budget=1200,
        )
        many_tiny = sorted((f"k{j}", "") for j in range(50))  # ~500 bytes total
        store.add_run(run(many_tiny))
        assert not store.disk_runs
        store.add_run(run([("huge", "x" * 2000)]))
        # sort-and-spill: one merged file, nothing left to re-merge later
        assert [spill.count for spill in store.disk_runs] == [51]
        assert not store.memory_runs and store.memory_bytes == 0
        keys = [k for k, _ in store]
        assert keys == sorted(keys) and len(keys) == 51

    def test_seal_sizes_each_record_once(self, monkeypatch):
        import repro.core.buffers as buffers

        kv_calls = [0]
        real_kv = buffers.kv_bytes

        def counting_kv(key, value):
            kv_calls[0] += 1
            return real_kv(key, value)

        # buffers binds the name at import time; patch its namespace
        monkeypatch.setattr(buffers, "kv_bytes", counting_kv)

        spl = SendPartitionList(
            1, flush_bytes=10**9, cmp=default_compare, serializer=SER
        )
        for i in range(10):
            spl.add(0, f"k{i}", i)
        (block_,) = spl.flush_all()
        assert len(block_.records) == 10
        assert kv_calls[0] == 10  # once per record, in add(); never at seal
