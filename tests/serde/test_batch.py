"""Tests for the record-batch representation (bytes-first datapath)."""

import pickle

import pytest

from repro.common.errors import SerializationError
from repro.core.sorter import merge_batches, spill_batch
from repro.serde.batch import (
    RecordBatch,
    batch_from_pairs,
    concat_batches,
    framer,
    sort_batch,
)
from repro.serde.comparators import bytes_compare, default_compare
from repro.serde.io import DataInput, DataOutput
from repro.serde.serialization import Serializer, get_serializer
from repro.serde.writable import IntWritable, LongWritable


SER = get_serializer("writable")


class CountingSerializer(Serializer):
    """Wraps a serializer and counts every per-value encode/decode."""

    name = "counting"

    def __init__(self, inner=None):
        self.inner = inner or get_serializer("writable")
        self.serialized = 0
        self.deserialized = 0

    def serialize(self, value, out):
        self.serialized += 1
        self.inner.serialize(value, out)

    def deserialize(self, src):
        self.deserialized += 1
        return self.inner.deserialize(src)


class TestRoundTrip:
    def test_serialized_pairs_roundtrip(self):
        pairs = [(f"k{i}", i) for i in range(50)]
        batch = batch_from_pairs(pairs, SER)
        assert len(batch) == 50
        assert list(batch.iter_pairs(SER)) == pairs

    def test_writable_pairs_roundtrip_on_fresh_serializer(self):
        # batches are decoded by a different serializer instance (another
        # worker); writable class ids must be globally stable
        pairs = [(IntWritable(i), LongWritable(i * 2**33)) for i in range(8)]
        batch = batch_from_pairs(pairs, SER)
        fresh = get_serializer("writable")
        assert list(batch.iter_pairs(fresh)) == pairs

    def test_raw_pairs_roundtrip(self):
        pairs = [(b"%03d" % i, b"v" * i) for i in range(40)]
        batch = batch_from_pairs(pairs, None, raw=True)
        assert batch.raw
        assert list(batch.iter_pairs(SER)) == pairs

    def test_raw_rejects_non_bytes(self):
        frame = framer(None, raw=True)
        for bad in (("text", b"v"), (b"k", 5), (b"k" * 200, "long and not bytes")):
            with pytest.raises(SerializationError, match="bytes-like"):
                frame(*bad)
        assert frame(bytearray(b"k"), memoryview(b"v")) == b"\x01k\x01v"

    def test_builder_requires_serializer_unless_raw(self):
        with pytest.raises(SerializationError):
            framer(None, raw=False)
        with pytest.raises(SerializationError):
            batch_from_pairs([], None)

    def test_pickle_roundtrip_off_hot_path(self):
        batch = batch_from_pairs([(b"a", b"b")], None, raw=True)
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone.iter_pairs(SER)) == [(b"a", b"b")]
        assert clone.raw


class TestEdgeCases:
    def test_empty_batch(self):
        batch = batch_from_pairs([], SER)
        assert len(batch) == 0
        assert batch.data == b""
        assert list(batch.iter_pairs(SER)) == []
        assert list(batch.iter_views()) == []
        assert batch.key_index(SER) == ([], [])

    def test_concat_empty_list(self):
        batch = concat_batches([])
        assert len(batch) == 0

    def test_oversized_fields_use_multibyte_vints(self):
        # field lengths beyond 127 exercise the multi-byte vint framing
        pairs = [(b"k" * 300, b"v" * 70_000)]
        batch = batch_from_pairs(pairs, None, raw=True)
        assert list(batch.iter_pairs(SER)) == pairs
        key, value = next(batch.iter_views())
        assert bytes(key) == pairs[0][0] and len(value) == 70_000

    def test_memoryview_over_bytearray_input(self):
        # a batch may alias a mutable buffer (wire frame body); iteration
        # and spilling must not be broken by the memoryview export
        source = batch_from_pairs([(b"aa", b"1"), (b"bb", b"2")], None, raw=True)
        backing = bytearray(source.data)
        batch = RecordBatch(memoryview(backing), source.count, raw=True)
        assert list(batch.iter_pairs(SER)) == [(b"aa", b"1"), (b"bb", b"2")]
        assert [bytes(k) for k, _ in batch.iter_views()] == [b"aa", b"bb"]

    def test_spill_roundtrip_from_memoryview(self, tmp_path):
        source = batch_from_pairs(
            [(("k%d" % i), i) for i in range(20)], SER
        )
        batch = RecordBatch(memoryview(bytearray(source.data)), 20)
        spill = spill_batch(batch, SER, str(tmp_path), "mv")
        assert list(spill) == [("k%d" % i, i) for i in range(20)]

    def test_concat_mixed_raw_and_serialized_rejected(self):
        raw = batch_from_pairs([(b"a", b"b")], None, raw=True)
        enc = batch_from_pairs([("a", "b")], SER)
        with pytest.raises(SerializationError):
            concat_batches([raw, enc])


class TestSortAndMerge:
    def test_sort_batch_native_bytes(self):
        pairs = [(b"c", b"3"), (b"a", b"1"), (b"b", b"2")]
        batch = sort_batch(
            batch_from_pairs(pairs, None, raw=True), bytes_compare, SER
        )
        assert list(batch.iter_pairs(SER)) == sorted(pairs)

    def test_sort_batch_heterogeneous_keys_falls_back(self):
        # int and str keys: native < raises TypeError; total order applies
        pairs = [("z", 1), (3, 2), ("a", 3), (1, 4)]
        batch = sort_batch(batch_from_pairs(pairs, SER), default_compare, SER)
        keys = [k for k, _ in batch.iter_pairs(SER)]
        assert sorted(map(str, keys)) == sorted(map(str, keys))
        assert len(keys) == 4

    def test_merge_batches_ordered(self):
        b1 = batch_from_pairs([(b"a", b"1"), (b"c", b"3")], None, raw=True)
        b2 = batch_from_pairs([(b"b", b"2"), (b"d", b"4")], None, raw=True)
        merged = merge_batches([b1, b2], bytes_compare, SER)
        assert [k for k, _ in merged.iter_pairs(SER)] == [b"a", b"b", b"c", b"d"]

    def test_merge_batches_unsorted_concats(self):
        b1 = batch_from_pairs([(b"x", b"1")], None, raw=True)
        b2 = batch_from_pairs([(b"a", b"2")], None, raw=True)
        merged = merge_batches([b1, b2], None, SER)
        assert [k for k, _ in merged.iter_pairs(SER)] == [b"x", b"a"]


class TestSerializeOnce:
    def test_build_serializes_each_field_exactly_once(self):
        counting = CountingSerializer()
        pairs = [("k%d" % i, i) for i in range(25)]
        batch = batch_from_pairs(pairs, counting)
        assert counting.serialized == 50  # one call per key + per value
        assert counting.deserialized == 0

    def test_merge_decodes_keys_only(self):
        counting = CountingSerializer()
        b1 = batch_from_pairs([("a", 1), ("c", 3)], SER)
        b2 = batch_from_pairs([("b", 2)], SER)
        merged = merge_batches([b1, b2], default_compare, counting)
        # ordering needs the 3 keys; the 3 values stay opaque bytes
        assert counting.deserialized == 3
        assert counting.serialized == 0
        assert list(merged.iter_pairs(SER)) == [("a", 1), ("b", 2), ("c", 3)]

    def test_decode_deferred_to_iteration(self):
        counting = CountingSerializer()
        batch = batch_from_pairs([("a", 1), ("b", 2)], SER)
        iterator = batch.iter_pairs(counting)
        assert counting.deserialized == 0  # nothing until consumed
        next(iterator)
        assert counting.deserialized == 2
