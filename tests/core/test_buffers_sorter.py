"""Tests for SPL/RPL buffer management and the sorter/run store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import _size_of
from repro.core.buffers import ReceivePartitionList, SendPartitionList
from repro.core.metrics import TaskMetrics
from repro.core.partition import _stable_hash, hash_partitioner
from repro.core.sorter import (
    RunStore,
    combine_run,
    group_by_key,
    merge_runs,
    sort_block,
    spill_batch,
)
from repro.serde.batch import RecordBatch, batch_from_pairs
from repro.common.errors import SerializationError
from repro.serde.comparators import bytes_compare, default_compare
from repro.serde.serialization import WritableSerializer
from repro.serde.writable import IntWritable, Text
from tests.core.helpers import SERIALIZER as SER, batch_block
from tests.core.test_merge_differential import _by_length


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
    @given(st.sampled_from([
        (default_compare, st.integers(-50, 50)),
        # raw keys in byte order: NULs, 0xFF, keys that prefix each other
        (bytes_compare,
         st.lists(st.sampled_from([0x00, 0x01, 0xFF]), max_size=3).map(bytes)),
    ]).flatmap(lambda case: st.tuples(st.just(case[0]), st.lists(
        st.lists(st.tuples(case[1], st.integers()), max_size=20), max_size=6))))
    def test_merge_equals_global_sort(self, case):
        cmp, runs = case
        sorted_runs = [sort_block(r, cmp) for r in runs]
        merged = [k for k, _ in merge_runs(sorted_runs, cmp)]
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

        parsed, batches = [], []
        key_index, merge = RecordBatch.key_index, sorter.merge_batches
        monkeypatch.setattr(
            RecordBatch, "key_index",
            lambda batch, ser, values=False: (
                parsed.append((batch.count, values)) or key_index(batch, ser, values)),
        )
        monkeypatch.setattr(
            sorter, "merge_batches",
            lambda runs, cmp, ser: batches.append(len(runs)) or merge(runs, cmp, ser),
        )
        store = self.make_store(10**9, tmp_path)
        for i in reversed(range(10)):
            store.add_run(run([(f"k{i}", i)]))
        assert len(store.memory_runs) == 10 and not parsed  # filed, not merged
        assert [k for k, _ in store] == [f"k{i}" for i in range(10)]
        # one pass over all ten records — keys and values of one parse —
        # and no merged batch built for it
        assert parsed == [(10, True)] and not batches
        assert len(store.memory_runs) == 10
        assert list(store) == [(f"k{i}", i) for i in range(10)]  # and again
        # a consumer of the partition's bytes gets the merged batch, once
        assert store.as_batch() is store.as_batch() and batches == [10]
        assert list(store.as_batch().iter_pairs(SER)) == list(store)
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
        assert [e["cat"] for e in merges] == ["merge"] * 3
        # the spill's merge, then one per read of the two resident runs
        read = {"stem": "fwd:0-p3", "runs": 2, "records": 2, "bytes": 2 * size}
        assert [e["args"] for e in merges] == [
            {"stem": "fwd:0-p3", "runs": 5, "records": 5, "bytes": 5 * size},
            read, read,
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


    @settings(max_examples=60, deadline=None, print_blob=True)
    @given(
        records=st.lists(
            st.tuples(st.binary(max_size=5), st.one_of(
                st.binary(max_size=40), st.binary(min_size=120, max_size=400))),
            max_size=30,
        ),
        raw=st.booleans(), chunk=st.sampled_from([1, 7, 64, 1 << 16]),
    )
    def test_spill_streams_back_in_record_aligned_chunks(
        self, tmp_path_factory, records, raw, chunk
    ):
        """Reads of any size — a record or a length prefix cut anywhere, a
        record longer than many reads — decode to what was written, and
        never hold more than the unread tail of one record plus a read."""
        import repro.core.sorter as sorter

        batch = batch_from_pairs(records, SER, raw=raw)
        spill = spill_batch(batch, SER, str(tmp_path_factory.mktemp("spill")), "t")
        before, sorter._SPILL_CHUNK_BYTES = sorter._SPILL_CHUNK_BYTES, chunk
        try:
            assert list(spill) == records
            with open(spill.path, "r+b") as f:
                f.truncate(max(0, spill.nbytes - 1))
            if records:
                with pytest.raises(SerializationError, match="records short"):
                    list(spill)
        finally:
            sorter._SPILL_CHUNK_BYTES = before
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
        assert spl.add(0, "a", 1) is None
        assert (spl.records_out, spl.bytes_out) == (0, 0)  # counted at seal
        (block,) = spl.flush_all()
        assert spl.records_out == 1
        assert spl.bytes_out == block.nbytes > 0
        assert spl.flush_all() == []


    def test_send_owns_its_bytes_when_add_returns(self):
        """MPI buffer semantics: the caller may reuse what it passed.  The
        record *and* its sort key are snapshots taken by ``add``."""
        spl = SendPartitionList(
            1, 10**9, cmp=bytes_compare, serializer=SER, raw=True
        )
        buf = bytearray(4)
        for i, value in enumerate((b"v3", b"v1", b"v2")):
            buf[:] = bytes([3 - i]) * 4  # keys arrive in descending order
            spl.add(0, buf, value)
        buf[:] = b"\xff" * 4
        (block,) = spl.flush_all()
        assert pairs(block) == [
            (b"\x01" * 4, b"v2"), (b"\x02" * 4, b"v1"), (b"\x03" * 4, b"v3"),
        ]

    def test_a_value_mutated_after_add_ships_as_it_was_sent(self):
        for cmp in (default_compare, None):
            spl = SendPartitionList(1, 10**9, cmp=cmp, serializer=SER)
            value = [1]
            for key in ("b", "a"):
                spl.add(0, key, value)
                value.append(len(value) + 1)
            (block,) = spl.flush_all()
            assert sorted(pairs(block)) == [("a", [1, 2]), ("b", [1])]

    def test_a_combiner_partition_holds_values_by_reference_until_its_seal(self):
        """Documented, not promised otherwise: the combiner sees the value
        as it is at the seal."""
        spl = SendPartitionList(
            1, 10**9, default_compare, combiner=lambda k, vs: [sum(vs, [])],
            serializer=SER,
        )
        value = [1]
        spl.add(0, "a", value)
        value.append(2)
        (block,) = spl.flush_all()
        assert pairs(block) == [("a", [1, 2])]

    def test_a_pair_that_cannot_be_encoded_fails_its_add_and_leaves_no_trace(self):
        raw = SendPartitionList(1, 10**9, bytes_compare, serializer=SER, raw=True)
        framed = SendPartitionList(1, 10**9, default_compare, serializer=SER)
        raw.add(0, b"k", b"v")
        framed.add(0, "k", "v")
        for spl, bad in (
            (raw, ("text", b"v")), (raw, (b"k", 5)), (raw, (b"k" * 200, None)),
            (framed, ("k", (i for i in ()))), (framed, ((i for i in ()), "v")),
        ):
            with pytest.raises(SerializationError):
                spl.add(0, *bad)
        assert pairs(raw.flush_all()[0]) == [(b"k", b"v")]
        assert pairs(framed.flush_all()[0]) == [("k", "v")]


def _reversed_compare(k1, k2):
    return default_compare(k2, k1)


#: key strategies of the framed-seal property: equal keys are the rule
_FRAMED_KEYS = {
    "text": st.text("abc", max_size=2),
    "numbers": st.sampled_from([0, 0.0, 1, 1.5, -1, 2**70]),
    "long": st.text("xy", min_size=126, max_size=130),
    # int, str and bytes in one block: native ``<`` raises, the seal must
    # fall back to the total-order comparator
    "mixed": st.one_of(st.integers(-2, 2), st.text("ab", max_size=2),
                       st.binary(max_size=2)),
}
_RAW_FIELDS = st.one_of(st.binary(max_size=3), st.binary(min_size=126, max_size=130))


class TestFramedSeal:
    """Without a combiner ``add`` frames each pair and the seal permutes
    the framed records: for pairs that never reach the flush threshold the
    block must be, byte for byte, ``batch_from_pairs(sort_block(pairs))``."""

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(
        keys=st.sampled_from(sorted(_FRAMED_KEYS)),
        cmp=st.sampled_from([default_compare, _reversed_compare, None]),
        data=st.data(),
    )
    def test_writable_block_is_the_sorted_pairs_encoded(self, keys, cmp, data):
        if cmp is _reversed_compare and keys == "long":
            cmp = _by_length  # ties across distinct keys
        records = data.draw(st.lists(
            st.tuples(_FRAMED_KEYS[keys], st.one_of(
                st.integers(-5, 5), st.text("v", min_size=120, max_size=135),
                st.lists(st.integers(0, 3), max_size=2),
            )), max_size=40,
        ))
        self._check(records, cmp, raw=False)

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(
        records=st.lists(st.tuples(_RAW_FIELDS, _RAW_FIELDS), max_size=40),
        cmp=st.sampled_from([bytes_compare, _by_length, None]),
        as_bytearray=st.booleans(),
    )
    def test_raw_block_is_the_sorted_pairs_framed(self, records, cmp, as_bytearray):
        if as_bytearray:
            records = [(bytearray(k), memoryview(v)) for k, v in records]
        self._check(records, cmp, raw=True)

    @staticmethod
    def _check(records, cmp, raw):
        spl = SendPartitionList(2, 10**9, cmp, serializer=SER, raw=raw)
        for i, (key, value) in enumerate(records):
            assert spl.add(i % 2, key, value) is None
        blocks = {b.partition_id: b for b in spl.flush_all()}
        for p in (0, 1):
            mine = records[p::2]
            if cmp is not None:
                mine = sort_block(mine, cmp)
            expected = batch_from_pairs(mine, SER, raw=raw)
            if not mine:
                assert p not in blocks
                continue
            block = blocks[p]
            assert bytes(block.records.data) == bytes(expected.data)
            assert (block.count, block.nbytes) == (len(mine), len(expected.data))
            assert block.records.raw is raw and block.sorted is (cmp is not None)
        assert spl.records_out == len(records) and spl.combined_away == 0


def _sum(_key, values):
    return [sum(values)]


def _ends_and_count(_key, values):
    """Several values per key, and sensitive to the values' order."""
    return [values[0], len(values), values[-1]]


#: key strategies of the hash-combine property; small domains so that
#: keys repeat within a block
_COMBINE_KEYS = {
    "str": st.text("abc", max_size=2),
    "equal_numbers": st.sampled_from([0, 0.0, False, 1, 1.0, True, 2, 2.5, -1]),
    "tuple": st.tuples(st.integers(0, 2), st.sampled_from(["a", "b", ""])),
    "text": st.builds(Text, st.text("xy", max_size=2)),
    "int_writable": st.builds(IntWritable, st.integers(-2, 2)),
    "mixed_writables": st.one_of(
        st.builds(Text, st.text("xy", max_size=1)),
        st.builds(IntWritable, st.integers(0, 2)),
    ),
    "list_unhashable": st.lists(st.integers(0, 2), max_size=2),
    "tuple_and_list": st.one_of(
        st.tuples(st.integers(0, 1)), st.lists(st.integers(0, 1), max_size=1),
    ),
    # b"a" == bytearray(b"a"), and only one of the two hashes
    "bytes_and_bytearray": st.sampled_from(
        [b"a", b"b", b""]
    ).flatmap(lambda b: st.sampled_from([b, bytearray(b)])),
}


class TestHashCombine:
    """With a combiner the SPL groups values by key as they arrive and
    seals by sorting the unique keys.  The blocks must be what sorting,
    grouping and combining the buffered tuples gives: same flush points,
    same bytes."""

    @staticmethod
    def _reference(records, num_partitions, flush_bytes, cmp, combiner):
        """The tuple-list SPL under the held-bytes rule: a pair adds its
        value's size, and its key's only when no equal key is held in its
        partition yet (dict semantics: ``1``, ``True`` and ``1.0`` are one
        held key); a partition that met an unhashable key counts every
        pair's key until its seal.  Per block (index of the sealing record,
        or None at the final flush; partition; bytes), and the
        combined-away total."""
        held = [[] for _ in range(num_partitions)]
        #: per partition, the keys it holds (a dict); None once in tuples
        held_keys = [{} for _ in range(num_partitions)]
        sizes = [0] * num_partitions
        out, combined_away = [], 0

        def seal(at, partition):
            nonlocal combined_away
            run = combine_run(sort_block(held[partition], cmp), combiner)
            out.append((at, partition, bytes(batch_from_pairs(run, SER).data)))
            combined_away += len(held[partition]) - len(run)
            held[partition], sizes[partition] = [], 0
            held_keys[partition] = {}

        def key_is_held(partition, key):
            keys = held_keys[partition]
            if keys is None:
                return False
            try:
                if key in keys:
                    return True
                keys[key] = None
            except TypeError:  # unhashable: tuples until the seal
                held_keys[partition] = None
            return False

        for at, (partition, key, value) in enumerate(records):
            held[partition].append((key, value))
            sizes[partition] += _size_of(value)
            if not key_is_held(partition, key):
                sizes[partition] += _size_of(key)
            if sizes[partition] >= flush_bytes:
                seal(at, partition)
        for partition in range(num_partitions):
            if held[partition]:
                seal(None, partition)
        return out, combined_away

    @staticmethod
    def _actual(records, num_partitions, flush_bytes, cmp, combiner, bound=False):
        """The SPL's blocks, through :meth:`SendPartitionList.add` or (with
        ``bound``) a send core bound to ``hash_partitioner``, whose memo
        hits are then part of the run; each record's partition must be the
        hash's."""
        spl = SendPartitionList(
            num_partitions, flush_bytes, cmp, combiner=combiner, serializer=SER
        )
        add = spl.add
        if bound:
            core = spl.bind(hash_partitioner, None, TaskMetrics())

            def add(partition, key, value):
                assert hash_partitioner(key, value, num_partitions) == partition
                return core(key, value)
        sealed = [
            (at, add(partition, key, value))
            for at, (partition, key, value) in enumerate(records)
        ]
        sealed = [(at, block) for at, block in sealed if block is not None]
        sealed += [(None, block) for block in spl.flush_all()]
        assert spl.flush_all() == []
        assert all(b.sorted and b.nbytes == len(b.records.data) for _, b in sealed)
        assert spl.records_out == sum(b.count for _, b in sealed)
        assert spl.records_out == len(records) - spl.combined_away
        return (
            [(at, b.partition_id, bytes(b.records.data)) for at, b in sealed],
            spl.combined_away,
        )

    @pytest.mark.parametrize("keys", sorted(_COMBINE_KEYS))
    @pytest.mark.parametrize(
        "cmp, combiner",
        [
            (default_compare, lambda key, values: [sum(values)]),
            (default_compare, _ends_and_count),
            (_reversed_compare, _ends_and_count),
        ],
        ids=["sum", "several_values", "custom_comparator"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), flush_bytes=st.sampled_from([1, 40, 150, 10**6]))
    def test_blocks_are_byte_identical_to_sort_group_combine(
        self, keys, cmp, combiner, data, flush_bytes
    ):
        records = data.draw(st.lists(
            st.tuples(st.integers(0, 1), _COMBINE_KEYS[keys], st.integers(-5, 5)),
            max_size=60,
        ))
        args = (records, 2, flush_bytes, cmp, combiner)
        assert self._actual(*args) == self._reference(*args)

    # -- the held-bytes rule, case by case: ``_size_of`` of "a" is 5 and of
    # an int or float 8; ``_size_of(["l"])`` is 9
    @staticmethod
    def _seal_points(records, flush_bytes, bound=False):
        args = (records, 1, flush_bytes, default_compare, _sum)
        actual = TestHashCombine._actual(*args, bound=bound)
        assert actual == TestHashCombine._reference(*args)
        return [at for at, _, _ in actual[0]]

    @pytest.mark.parametrize("bound", [False, True], ids=["add", "bound_core"])
    def test_a_repeated_key_adds_only_its_value(self, bound):
        """13, 21, 29, 37: the fourth pair lands exactly on 37 and seals;
        counting the key with every pair sealed at the third (39)."""
        records = [(0, "a", 1)] * 6
        assert self._seal_points(records, 37, bound) == [3, None]
        assert self._seal_points(records, 38, bound) == [4, None]

    def test_a_memo_hit_seals_the_partition(self):
        spl = SendPartitionList(1, 40, default_compare, combiner=_sum, serializer=SER)
        core = spl.bind(hash_partitioner, None, TaskMetrics())
        (memo,) = spl._memos
        sealed = []
        for at in range(5):  # 13, 21, 29, 37, then a hit reaches 45
            hit = "a" in memo
            block = core("a", 1)
            if block is not None:
                sealed.append((at, hit, pairs(block)))
        assert sealed == [(4, True, [("a", 5)])]
        assert not memo and spl._nbytes == [0]
        assert self._seal_points([(0, "a", 1)] * 5, 40, bound=True) == [4]

    def test_one_true_and_one_point_oh_are_one_held_key(self):
        """16 for 1, then 8 each for True and 1.0: 32 held, no seal at 40
        (per-pair keys would read 16 + 9 + 16 = 41)."""
        spl = SendPartitionList(1, 40, default_compare, combiner=_sum, serializer=SER)
        for key in (1, True, 1.0):
            assert spl.add(0, key, 1) is None
        assert spl._nbytes == [32] and spl._held == [{1: [1, 1, 1]}]
        records = [(0, key, 1) for key in (1, True, 1.0)]
        assert self._seal_points(records, 40) == [None]
        assert self._seal_points(records, 32) == [2]

    def test_an_unhashable_key_mid_partition_counts_every_later_key(self):
        """Key "a" thrice (29), ["l"] (46), then "a" counts its key again: 59.
        At 56 that seals on the last pair; a dict rule that outlived the
        tuples would stop at 54, per-pair keys would seal at 56 one pair
        earlier."""
        records = [(0, "a", 1)] * 3 + [(0, ["l"], 1), (0, "a", 1)]
        assert self._seal_points(records, 56) == [4]
        assert self._seal_points(records, 60) == [None]
        assert self._seal_points(records + [(0, "a", 1)], 72) == [5]

    def test_a_block_that_met_an_unhashable_key_groups_again_after_its_seal(self):
        spl = SendPartitionList(
            1, 10**9, default_compare, combiner=lambda k, vs: [sum(vs)],
            serializer=SER,
        )
        for key in ("a", ["l"], "a", ["l"]):
            spl.add(0, key, 1)
        (block,) = spl.flush_all()
        assert pairs(block) == [(["l"], 2), ("a", 2)]  # 'list' < 'str'
        assert spl._held == [{}]
        spl.add(0, "a", 1)
        assert spl._held == [{"a": [1]}]

    def test_no_combiner_or_no_comparator_holds_framed_records(self):
        combiner = lambda k, vs: [sum(vs)]  # noqa: E731
        framed = [batch_from_pairs([(key, 1)], SER).data for key in "bab"]
        for cmp, comb in ((default_compare, None), (None, combiner)):
            spl = SendPartitionList(1, 10**9, cmp, combiner=comb, serializer=SER)
            for key in ("b", "a", "b"):
                spl.add(0, key, 1)
            assert spl._held == [framed]  # the records' bytes, no tuple
            (block,) = spl.flush_all()
            assert sorted(pairs(block)) == [("a", 1), ("b", 1), ("b", 1)]
            assert spl.combined_away == 0
            assert spl._held == [[]] and spl._keys == [[]]


#: a subclass of each type the exact-type fronts answer
_SUBCLASS = {
    base: type(f"_{base.__name__.title()}", (base,), {})
    for base in (str, bytes, int, float)
}


class TestExactTypeFronts:
    """``_size_of`` and ``_stable_hash`` answer the common types by exact
    type before their isinstance ladders; the values are pinned so the
    two cannot drift apart (flush points and partitions depend on them)."""

    TABLE = [
        # obj, _size_of, _stable_hash — as measured before the fronts existed
        ("", 4, 0),
        ("word042", 11, 767629384),
        ("clé-日本語", 11, 3974492310),
        (b"", 4, 0),
        (b"0123456789", 14, 2793719750),
        (0, 8, 0),
        (42, 8, 42),
        (-1, 8, 0x7FFFFFFF),
        (2**40 + 5, 8, 5),
        (True, 1, 1),
        (False, 1, 0),
        (2.5, 8, 2233083363),
        (None, 1, 3751981041),
        (("a", 1), 4 + 5 + 8, 1521240739),
        ((), 4, 0x811C9DC5),
        ((b"k", (2, None)), 4 + 5 + (4 + 8 + 1), 1013171580),
        (["a", 1], 4 + 5 + 8, 3591595165),
        (bytearray(b"abc"), 7, 4236384222),
        (Text("hello"), 6, 289235339),
        (IntWritable(7), 4, 3206564543),
        (_SUBCLASS[str]("word042"), 11, 767629384),
        (_SUBCLASS[int](42), 8, 42),
        (_SUBCLASS[int](-1), 8, 0x7FFFFFFF),
    ]

    @pytest.mark.parametrize("obj, size, hashed", TABLE, ids=lambda v: repr(v)[:20])
    def test_pinned_values(self, obj, size, hashed):
        assert _size_of(obj) == size
        assert _stable_hash(obj) == hashed

    @given(st.one_of(
        st.text(max_size=20), st.binary(max_size=20), st.integers(), st.floats(),
    ))
    def test_fronts_agree_with_the_ladders(self, obj):
        """A subclass instance misses the front and takes the ladder."""
        via_ladder = _SUBCLASS[type(obj)](obj)
        assert type(via_ladder) is not type(obj)
        assert _size_of(obj) == _size_of(via_ladder)
        try:
            expected = _stable_hash(via_ladder)
        except UnicodeEncodeError:  # lone surrogate: the front raises too
            with pytest.raises(UnicodeEncodeError):
                _stable_hash(obj)
        else:
            assert _stable_hash(obj) == expected


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
        until the partition is read; then every record is parsed once."""
        parsed = []
        real = RecordBatch.key_index
        monkeypatch.setattr(
            RecordBatch, "key_index",
            lambda batch, ser, values=False: (
                parsed.append(batch.count) or real(batch, ser, values)),
        )
        store = self._store(tmp_path)
        rpl = ReceivePartitionList(0, default_compare, store)
        for i in reversed(range(40)):
            rpl.add_block(batch_block(0, [(f"k{i:02d}", i), (f"k{i:02d}x", i)]))
        assert len(store.memory_runs) == 40 and not parsed
        keys = [k for k, _ in rpl.merged()]
        assert keys == sorted(keys) and len(keys) == 80
        assert parsed == [80]

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

    def test_seal_sizes_each_record_once(self):
        """A record is sized once, in ``add``, and exactly — it is framed
        there: for a fixed input the partition seals after the same
        records, and each block's ``nbytes`` is what ``add`` counted."""
        spl = SendPartitionList(
            1, flush_bytes=100, cmp=default_compare, serializer=SER
        )
        records = [(f"k{i:02d}", i) for i in range(25)]
        # encoded: vint 5 + (tag, vint 3, 3 chars) + vint 2 + (tag, 1 byte)
        # = 9 bytes a record (the ``kv_bytes`` estimate said 15): 12 reach 100
        assert {len(batch_from_pairs([kv], SER).data) for kv in records} == {9}
        sealed = [
            (i, block) for i, (k, v) in enumerate(records)
            if (block := spl.add(0, k, v)) is not None
        ]
        assert [i for i, _ in sealed] == [11, 23]
        blocks = [block for _, block in sealed] + spl.flush_all()
        assert [b.count for b in blocks] == [12, 12, 1]
        assert [b.nbytes for b in blocks] == [9 * 12, 9 * 12, 9]
        assert all(b.nbytes == len(b.records.data) for b in blocks)
        assert spl.bytes_out == sum(b.nbytes for b in blocks)
        assert [kv for b in blocks for kv in pairs(b)] == records
