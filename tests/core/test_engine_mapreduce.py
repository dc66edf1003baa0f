"""End-to-end MapReduce-mode jobs on the DataMPI engine."""

import glob
import os
import tempfile

import pytest

from repro.core import Mode, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.serde.comparators import reverse, default_compare

from tests.core.helpers import (
    Collector,
    FileCollector,
    expected_wordcount,
    int_range_input,
    wordcount_pieces,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the dog barks at the fox",
    "quick quick slow",
    "a b c d e f g",
    "the end",
]


def run_wordcount(o_tasks, a_tasks, nprocs, conf=None, combiner=None):
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    out = Collector()
    job = mapreduce_job(
        "wc",
        provider,
        mapper,
        reducer,
        out,
        o_tasks=o_tasks,
        a_tasks=a_tasks,
        conf=conf,
        combiner=combiner,
    )
    result = mpidrun(job, nprocs=nprocs, raise_on_error=True)
    return result, out


class TestWordCountShapes:
    """The same job across every process/task geometry of Figure 6."""

    @pytest.mark.parametrize(
        "o_tasks,a_tasks,nprocs",
        [
            (3, 2, 3),  # NUMO > NUMA
            (2, 2, 2),  # NUMO = NUMA
            (2, 5, 2),  # NUMO < NUMA (A waves)
            (5, 3, 2),  # multiwave O and A
            (1, 1, 1),  # degenerate
            (4, 4, 6),  # more processes than either side
        ],
    )
    def test_counts_correct(self, o_tasks, a_tasks, nprocs):
        result, out = run_wordcount(o_tasks, a_tasks, nprocs)
        assert result.success
        assert out.merged() == expected_wordcount(TEXTS)

    def test_every_a_task_is_data_local(self):
        result, _ = run_wordcount(4, 3, 2)
        assert result.a_data_locality == 1.0

    def test_task_counts_reported(self):
        result, _ = run_wordcount(4, 3, 2)
        assert result.metrics.o_tasks_run == 4
        assert result.metrics.a_tasks_run == 3

    def test_no_duplicate_outputs_across_a_tasks(self):
        _, out = run_wordcount(3, 4, 3)
        words = [k for k, _ in out.all_pairs()]
        assert len(words) == len(set(words))


class TestSortedExchange:
    def test_a_side_sees_keys_in_order(self):
        """MapReduce mode must deliver each partition key-sorted."""
        from repro.core import DataMPIJob

        seen = {}

        def o_fn(ctx):
            import random

            rng = random.Random(ctx.rank)
            for _ in range(50):
                ctx.send(rng.randint(0, 999), None)

        def a_fn(ctx):
            keys = [k for k, _ in ctx.recv_iter()]
            seen[ctx.rank] = keys

        job = DataMPIJob("sorted", o_fn, a_fn, 3, 2, mode=Mode.MAPREDUCE)
        assert mpidrun(job, nprocs=3, raise_on_error=True).success
        total = 0
        for keys in seen.values():
            assert keys == sorted(keys)
            total += len(keys)
        assert total == 150

    def test_custom_comparator_reverses_order(self):
        from repro.core import DataMPIJob

        seen = {}

        def o_fn(ctx):
            for i in range(20):
                ctx.send(i, None)

        def a_fn(ctx):
            seen[ctx.rank] = [k for k, _ in ctx.recv_iter()]

        job = DataMPIJob(
            "rev",
            o_fn,
            a_fn,
            2,
            2,
            mode=Mode.MAPREDUCE,
            comparator=reverse(default_compare),
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        for keys in seen.values():
            assert keys == sorted(keys, reverse=True)


class TestTableIIUserFunctions:
    def test_custom_partitioner_controls_destination(self):
        from repro.core import DataMPIJob

        seen = {}

        def odd_even(key, value, n):
            return key % n

        def o_fn(ctx):
            for i in range(30):
                ctx.send(i, None)

        def a_fn(ctx):
            seen[ctx.rank] = sorted(k for k, _ in ctx.recv_iter())

        job = DataMPIJob(
            "part", o_fn, a_fn, 2, 2, mode=Mode.MAPREDUCE, partitioner=odd_even
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        # both O tasks emit range(30), so every key arrives twice
        assert seen[0] == sorted([i for i in range(30) if i % 2 == 0] * 2)
        assert seen[1] == sorted([i for i in range(30) if i % 2 == 1] * 2)

    def test_bad_partitioner_fails_job(self):
        from repro.core import DataMPIJob

        def bad(key, value, n):
            return n + 5

        job = DataMPIJob(
            "bad",
            lambda ctx: ctx.send("k", 1),
            lambda ctx: None,
            1,
            1,
            mode=Mode.MAPREDUCE,
            partitioner=bad,
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        assert "partitioner" in result.error

    def test_combiner_reduces_shuffled_records(self):
        texts = ["word " * 200]  # heavy duplication: combiner should help

        def provider(rank, size):
            if rank == 0:
                yield (0, texts[0])

        def mapper(_k, line, emit):
            for w in line.split():
                emit(w, 1)

        def reducer(k, vs, emit):
            emit(k, sum(vs))

        def run(combiner):
            out = Collector()
            job = mapreduce_job(
                "comb",
                provider,
                mapper,
                reducer,
                out,
                o_tasks=1,
                a_tasks=1,
                combiner=combiner,
                conf={K.SPL_PARTITION_BYTES: 256},  # force many flushes
            )
            return mpidrun(job, nprocs=1, raise_on_error=True), out

        plain, out_plain = run(None)
        combined, out_combined = run(lambda k, vs: [sum(vs)])
        assert out_plain.merged() == out_combined.merged() == {"word": 200}
        assert combined.metrics.records_sent < plain.metrics.records_sent
        assert combined.metrics.combined_away > 0


class TestLargerPipelines:
    def test_many_records_through_small_buffers(self):
        """Small SPL blocks force the full pipeline: seal/send/merge."""
        n = 2000
        out = Collector()

        def mapper(k, v, emit):
            emit(v % 50, 1)

        def reducer(k, vs, emit):
            emit(k, sum(vs))

        job = mapreduce_job(
            "dense",
            int_range_input(n),
            mapper,
            reducer,
            out,
            o_tasks=4,
            a_tasks=3,
            conf={K.SPL_PARTITION_BYTES: 128},
        )
        result = mpidrun(job, nprocs=4, raise_on_error=True)
        assert result.success
        assert result.metrics.blocks_sent > 10  # pipeline actually streamed
        merged = out.merged()
        assert sum(merged.values()) == n
        assert merged == {k: 40 for k in range(50)}

    def test_spill_to_disk_with_tiny_cache(self):
        """Zero cache fraction spills everything yet output is identical."""
        n = 800
        out = Collector()

        def mapper(k, v, emit):
            emit(v % 10, v)

        def reducer(k, vs, emit):
            emit(k, sum(vs))

        job = mapreduce_job(
            "spill",
            int_range_input(n),
            mapper,
            reducer,
            out,
            o_tasks=2,
            a_tasks=2,
            conf={K.MEMORY_CACHE_BYTES: 0, K.SPL_PARTITION_BYTES: 256},
        )
        result = mpidrun(job, nprocs=2, raise_on_error=True)
        assert result.metrics.spilled_bytes > 0
        expected = {k: sum(v for v in range(n) if v % 10 == k) for k in range(10)}
        assert out.merged() == expected


class TestScratchDirectory:
    """Spills need a directory; a job must not leave one behind."""

    @staticmethod
    def _spilling_job(launcher, out_dir, **conf):
        def mapper(k, v, emit):
            emit(v % 10, v)

        def reducer(k, vs, emit):
            emit(k, sum(vs))

        return mapreduce_job(
            "scratch", int_range_input(800), mapper, reducer,
            FileCollector(out_dir), o_tasks=2, a_tasks=2,
            conf={K.LAUNCHER: launcher, K.MEMORY_CACHE_BYTES: 0,
                  K.SPL_PARTITION_BYTES: 256, **conf},
        )

    def test_a_job_leaves_nothing_in_the_temp_directory(
        self, launcher, tmp_path, monkeypatch
    ):
        # a short path (the router's AF_UNIX socket lives under it too);
        # forked rank processes inherit the module global
        with tempfile.TemporaryDirectory(prefix="t") as private_tmp:
            monkeypatch.setattr(tempfile, "tempdir", private_tmp)
            job = self._spilling_job(launcher, tmp_path / "out")
            result = mpidrun(job, nprocs=2, raise_on_error=True)
            assert result.metrics.spilled_bytes > 0  # the directory was used
            assert glob.glob(os.path.join(private_tmp, "datampi-*")) == []

    def test_a_user_supplied_local_dir_is_kept(self, launcher, tmp_path):
        local = tmp_path / "local"
        local.mkdir()
        job = self._spilling_job(
            launcher, tmp_path / "out", **{K.LOCAL_DIR: str(local)}
        )
        result = mpidrun(job, nprocs=2, raise_on_error=True)
        assert result.metrics.spilled_bytes > 0
        assert local.is_dir() and list(local.iterdir()) == []  # spills removed
