"""Writable-typed pipelines: Hadoop-style typed keys end to end.

The paper's Java binding "can support the serialization mechanisms of
both Java (Serializable and primitives) and Hadoop (Writable)" (§III-B).
These tests push Writable keys/values through the full engine — typing,
partitioning, sorting, spilling — and through the serde spill path.
"""

import threading

import pytest

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.serde.writable import IntWritable, LongWritable, Text


def run_job(o_fn, conf=None, o_tasks=2, a_tasks=2, nprocs=2):
    sink, lock = {}, threading.Lock()

    def a_fn(ctx):
        got = list(ctx.recv_iter())
        with lock:
            sink[ctx.rank] = got

    job = DataMPIJob(
        "writable", o_fn, a_fn, o_tasks, a_tasks, mode=Mode.MAPREDUCE,
        conf=conf or {},
    )
    assert mpidrun(job, nprocs=nprocs, raise_on_error=True).success
    return sink


class TestWritableKeys:
    def test_text_keys_sort_and_route(self):
        def o_fn(ctx):
            for word in ["pear", "apple", "fig", "date"]:
                ctx.send(Text(word), IntWritable(ctx.rank))

        sink = run_job(o_fn)
        all_keys = [k for got in sink.values() for k, _ in got]
        assert len(all_keys) == 8  # 2 O tasks x 4 words
        for got in sink.values():
            keys = [k for k, _ in got]
            assert keys == sorted(keys)  # Text is orderable through the sort
            assert all(isinstance(k, Text) for k in keys)

    def test_same_text_key_same_partition(self):
        def o_fn(ctx):
            ctx.send(Text("hot"), ctx.rank)

        sink = run_job(o_fn, o_tasks=4, a_tasks=3, nprocs=3)
        non_empty = [rank for rank, got in sink.items() if got]
        assert len(non_empty) == 1  # deterministic Writable hashing
        assert len(sink[non_empty[0]]) == 4

    def test_key_class_coerces_raw_strings_to_text(self):
        conf = {K.KEY_CLASS: "org.apache.hadoop.io.Text"}

        def o_fn(ctx):
            ctx.send("plain string", 1)  # engine wraps it in Text

        sink = run_job(o_fn, conf=conf, o_tasks=1, a_tasks=1, nprocs=1)
        (key, value), = sink[0][:1]
        assert isinstance(key, Text)
        assert key.get() == "plain string"

    def test_longwritable_values_spill_roundtrip(self):
        """Writables survive the serialize-to-disk spill path."""
        conf = {K.MEMORY_CACHE_BYTES: 0, K.SPL_PARTITION_BYTES: 64}

        def o_fn(ctx):
            for i in range(40):
                ctx.send(IntWritable(i), LongWritable(i * 2**33))

        sink = run_job(o_fn, conf=conf, o_tasks=1, a_tasks=2, nprocs=2)
        pairs = [kv for got in sink.values() for kv in got]
        assert len(pairs) == 40
        for key, value in pairs:
            assert isinstance(key, IntWritable)
            assert isinstance(value, LongWritable)
            assert value.get() == key.get() * 2**33

    def test_mixed_text_and_primitive_values(self):
        def o_fn(ctx):
            ctx.send(Text("a"), "primitive-str")
            ctx.send(Text("b"), IntWritable(9))

        sink = run_job(o_fn, o_tasks=1, a_tasks=1, nprocs=1)
        values = dict((k.get(), v) for k, v in sink[0])
        assert values == {"a": "primitive-str", "b": IntWritable(9)}
