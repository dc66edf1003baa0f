"""Engine edge cases: degenerate geometries, empty data, misuse errors."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from tests.core.helpers import batch_block


def collect_all(sink, lock):
    def a_fn(ctx):
        got = list(ctx.recv_iter())
        with lock:
            sink[ctx.rank] = got

    return a_fn


class TestEmptyAndDegenerate:
    def test_o_tasks_emit_nothing(self):
        sink, lock = {}, threading.Lock()
        job = DataMPIJob(
            "empty", lambda ctx: None, collect_all(sink, lock), 3, 2,
            mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=2, raise_on_error=True)
        assert result.success
        assert sink == {0: [], 1: []}
        assert result.metrics.records_sent == 0

    def test_single_everything(self):
        sink, lock = {}, threading.Lock()
        job = DataMPIJob(
            "one", lambda ctx: ctx.send("k", "v"), collect_all(sink, lock),
            1, 1, mode=Mode.MAPREDUCE,
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        assert sink == {0: [("k", "v")]}

    def test_more_processes_than_tasks(self):
        sink, lock = {}, threading.Lock()
        job = DataMPIJob(
            "wide", lambda ctx: ctx.send(ctx.rank, None),
            collect_all(sink, lock), 2, 2, mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=6, raise_on_error=True)
        assert result.success
        assert sum(len(v) for v in sink.values()) == 2

    def test_one_hot_partition(self):
        """Every record to one A task; others still terminate cleanly."""
        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            for i in range(50):
                ctx.send(0, i)  # int key 0 -> partition 0 always

        job = DataMPIJob(
            "skew", o_fn, collect_all(sink, lock), 2, 4, mode=Mode.MAPREDUCE,
            partitioner=lambda k, v, n: 0,
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert len(sink[0]) == 100
        assert sink[1] == sink[2] == sink[3] == []

    def test_large_values_cross_flush_threshold(self):
        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            ctx.send("big", "x" * 500_000)  # single value >> SPL threshold

        job = DataMPIJob(
            "big", o_fn, collect_all(sink, lock), 1, 1, mode=Mode.MAPREDUCE,
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        assert len(sink[0][0][1]) == 500_000

    def test_unicode_and_binary_keys(self):
        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            ctx.send("clé-日本語", 1)
            ctx.send("ascii", 2)

        job = DataMPIJob(
            "uni", o_fn, collect_all(sink, lock), 1, 1, mode=Mode.MAPREDUCE,
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        assert dict(sink[0]) == {"clé-日本語": 1, "ascii": 2}


class TestMisuseErrors:
    def test_a_task_send_in_mapreduce_rejected(self):
        """One-way communication: A tasks cannot Send in MapReduce mode."""

        def a_fn(ctx):
            list(ctx.recv_iter())
            ctx.send("illegal", 1)

        job = DataMPIJob(
            "oneway", lambda ctx: ctx.send("k", 1), a_fn, 1, 1,
            mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        assert "cannot Send" in result.error

    def test_o_task_recv_in_mapreduce_rejected(self):
        def o_fn(ctx):
            ctx.recv()

        job = DataMPIJob(
            "norecv", o_fn, lambda ctx: list(ctx.recv_iter()), 1, 1,
            mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        assert "nothing to Recv" in result.error

    def test_user_exception_in_a_task_fails_job(self):
        def a_fn(ctx):
            raise ValueError("user a-side bug")

        job = DataMPIJob(
            "abug", lambda ctx: ctx.send(1, 1), a_fn, 1, 1, mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success and "user a-side bug" in result.error

    def test_raise_on_error_propagates(self):
        from repro.common.errors import DataMPIError

        job = DataMPIJob(
            "raise", lambda ctx: ctx.send("k", 1),
            lambda ctx: (_ for _ in ()).throw(DataMPIError("boom")),
            1, 1, mode=Mode.MAPREDUCE,
        )
        with pytest.raises(Exception, match="boom"):
            mpidrun(job, nprocs=1, raise_on_error=True)


class TestCombinerNeedsSortedExchange:
    """A combiner groups equal keys of a *sorted* block; a job whose
    profile does not sort must be refused, not silently left uncombined."""

    @staticmethod
    def _job(mode, conf=None):
        return DataMPIJob(
            "combine", lambda ctx: ctx.send("k", 1),
            lambda ctx: list(ctx.recv_iter()), 1, 1, mode=mode,
            conf=conf or {}, combiner=lambda key, values: [sum(values)],
        )

    @pytest.mark.parametrize(
        "mode, conf",
        [
            (Mode.STREAMING, None),
            (Mode.ITERATION, None),
            (Mode.MAPREDUCE, {K.SORT: False}),
            (Mode.COMMON, {K.SORT: False}),
        ],
    )
    def test_unsorted_profile_rejects_combiner(self, mode, conf):
        from repro.common.errors import DataMPIError

        with pytest.raises(DataMPIError, match=f"combiner.*{mode.value} mode"):
            mpidrun(self._job(mode, conf), nprocs=1)

    @pytest.mark.parametrize(
        "mode, conf",
        [
            (Mode.MAPREDUCE, None),
            (Mode.COMMON, None),
            (Mode.ITERATION, {K.SORT: True}),
        ],
    )
    def test_sorted_profile_combines(self, mode, conf):
        job = self._job(mode, conf)
        job.o_fn = lambda ctx: [ctx.send("k", 1) for _ in range(5)]
        result = mpidrun(job, nprocs=1)
        assert result.success, result.error
        assert result.metrics.combined_away == 4


class TestConfPlumbing:
    def test_pickle_serializer_via_conf(self):
        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            ctx.send("obj", {"nested": {1, 2, 3}})  # set: needs pickle-ish

        job = DataMPIJob(
            "pickle", o_fn, collect_all(sink, lock), 1, 1, mode=Mode.MAPREDUCE,
            conf={K.SERIALIZER: "pickle", K.MEMORY_CACHE_BYTES: 0,
                  K.SPL_PARTITION_BYTES: 16},  # force the spill/serde path
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        assert sink[0] == [("obj", {"nested": {1, 2, 3}})]

    def test_key_class_enforced(self):
        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            ctx.send("17", "2.5")  # strings coerced per the conf classes

        job = DataMPIJob(
            "typed", o_fn, collect_all(sink, lock), 1, 1, mode=Mode.MAPREDUCE,
            conf={K.KEY_CLASS: "java.lang.Integer",
                  K.VALUE_CLASS: "java.lang.Double"},
        )
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        assert sink[0] == [(17, 2.5)]

    def test_uncoercible_key_fails(self):
        job = DataMPIJob(
            "badtype", lambda ctx: ctx.send(["list"], 1),
            lambda ctx: list(ctx.recv_iter()), 1, 1, mode=Mode.MAPREDUCE,
            conf={K.KEY_CLASS: "java.lang.Integer"},
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        assert "cannot be coerced" in result.error

    def test_unknown_serializer_fails_cleanly(self):
        job = DataMPIJob(
            "badser", lambda ctx: None, lambda ctx: list(ctx.recv_iter()),
            1, 1, mode=Mode.MAPREDUCE, conf={K.SERIALIZER: "capnproto"},
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success

    def test_wall_duration_recorded(self):
        job = DataMPIJob(
            "timed", lambda ctx: ctx.send(1, 1),
            lambda ctx: list(ctx.recv_iter()), 1, 1, mode=Mode.MAPREDUCE,
        )
        result = mpidrun(job, nprocs=1, raise_on_error=True)
        assert result.metrics.duration > 0


class TestDiversifiedTopologies:
    def test_sparse_bipartite_graph(self):
        """§II-A Diversified: Dryad/S4-style *sparse* bipartite graphs —
        each O task talks to a small subset of A tasks.  The library must
        route exactly those edges and nothing else."""
        import threading

        sink, lock = {}, threading.Lock()
        edges = {0: [0, 1], 1: [2], 2: [3, 4], 3: [4]}  # O rank -> A tasks

        def o_fn(ctx):
            for dest in edges[ctx.rank]:
                ctx.send((dest, ctx.rank), f"edge-{ctx.rank}->{dest}")

        def a_fn(ctx):
            got = list(ctx.recv_iter())
            with lock:
                sink[ctx.rank] = got

        job = DataMPIJob(
            "sparse", o_fn, collect_all(sink, lock), 4, 5,
            mode=Mode.MAPREDUCE,
            partitioner=lambda key, v, n: key[0],  # key carries the A task
        )
        assert mpidrun(job, nprocs=3, raise_on_error=True).success
        senders_by_a = {
            a: sorted(key[1] for key, _ in got) for a, got in sink.items()
        }
        assert senders_by_a == {0: [0], 1: [0], 2: [1], 3: [2], 4: [2, 3]}

    def test_complete_bipartite_graph(self):
        """The MapReduce extreme: every O task reaches every A task."""
        import threading

        sink, lock = {}, threading.Lock()

        def o_fn(ctx):
            for a in range(ctx.a_size):
                ctx.send(a, ctx.rank)

        job = DataMPIJob(
            "dense", o_fn, collect_all(sink, lock), 3, 3, mode=Mode.MAPREDUCE,
            partitioner=lambda key, v, n: key % n,
        )
        assert mpidrun(job, nprocs=3, raise_on_error=True).success
        for a, got in sink.items():
            assert sorted(v for _, v in got) == [0, 1, 2]


class _RecordingShuffle:
    """Stands in for the ShuffleService: keeps what ``send`` ships."""

    def __init__(self):
        self.shipped = []

    def send_blocks(self, plane_id, blocks, eos=False):
        self.shipped.extend((plane_id, block) for block in blocks)


class TestBoundSend:
    """``ctx.send`` is built once per task; every check it used to make
    per record still holds through the bound closure."""

    @staticmethod
    def _context(spl=None, *, kind="O", a_size=2, flush_bytes=10**9, **parts):
        from repro.core.buffers import SendPartitionList
        from repro.core.context import TaskContext
        from repro.core.partition import hash_partitioner
        from repro.serde.comparators import default_compare
        from tests.core.helpers import SERIALIZER

        if spl is None and kind == "O":
            spl = SendPartitionList(
                a_size, flush_bytes, default_compare, serializer=SERIALIZER
            )
        parts.setdefault("partitioner", hash_partitioner)
        parts.setdefault("shuffle", _RecordingShuffle())
        return TaskContext(
            kind=kind, task_id=3, o_size=4, a_size=a_size, round_no=0, conf=None,
            spl=spl, send_plane_id="fwd:0" if spl is not None else None,
            recv_plane=None, **parts,
        )

    @staticmethod
    def _buffered(ctx):
        from tests.core.helpers import SERIALIZER

        return sorted(
            kv for block in ctx._spl.flush_all()
            for kv in block.records.iter_pairs(SERIALIZER)
        )

    @pytest.mark.parametrize("crash_after", [0, 1, 7])
    def test_injected_crash_after_exactly_n_records(self, crash_after):
        from repro.common.errors import DataMPIError

        ctx = self._context(crash_after=crash_after)
        for i in range(crash_after):
            ctx.send(i, i)
        for _ in range(2):  # and it keeps raising
            with pytest.raises(DataMPIError, match=(
                f"injected crash in O task 3 after {crash_after} records"
            )):
                ctx.send("one too many", 0)
        assert ctx.metrics.records_emitted == crash_after
        assert self._buffered(ctx) == [(i, i) for i in range(crash_after)]

    def test_resumed_task_skips_replayed_emits_and_writes_the_rest(self, tmp_path):
        from repro.core.checkpoint import CheckpointReader, CheckpointWriter
        from tests.core.helpers import SERIALIZER

        emits = [(f"k{i}", i) for i in range(10)]
        first = CheckpointWriter(str(tmp_path), "o3", SERIALIZER, 2)
        for key, value in emits[:5]:
            first.add(key, value)  # two complete rounds: 4 records on disk
        reader = CheckpointReader(str(tmp_path), "o3", SERIALIZER)
        writer = CheckpointWriter(
            str(tmp_path), "o3", SERIALIZER, 2, start_round=reader.max_round()
        )
        ctx = self._context(checkpoint_reader=reader, checkpoint_writer=writer)
        assert ctx.replay_checkpoint() == 4
        assert ctx.metrics.records_emitted == 4
        assert writer.records_persisted == 0  # replayed pairs are not rewritten
        for key, value in emits:  # the rerun emits everything again
            ctx.send(key, value)
        ctx.close()
        assert ctx.metrics.records_emitted == 10
        assert writer.records_persisted == 6
        assert self._buffered(ctx) == emits  # each pair exactly once
        assert list(reader.replay()) == emits

    @pytest.mark.parametrize("rejected", ["range", "encode"])
    def test_a_pair_the_core_rejects_is_never_counted(self, tmp_path, rejected):
        """A pair the core rejects — its partitioner answers 5 of 2, or its
        value cannot be encoded — raises in every attempt, inside the replay
        window too, and never advances the counter: a resumed task sends
        each later pair once."""
        from repro.common.errors import ReproError
        from repro.core.checkpoint import CheckpointReader, CheckpointWriter
        from repro.core.partition import hash_partitioner
        from tests.core.helpers import SERIALIZER

        bad = ("bad", threading.Lock() if rejected == "encode" else 0)

        def partitioner(key, value, n):
            if rejected == "range" and key == "bad":
                return 5
            return hash_partitioner(key, value, n)

        def attempt(ctx, pairs):
            for key, value in pairs:
                try:
                    ctx.send(key, value)
                except ReproError:
                    assert key == "bad"  # the user catches the rejection

        pairs = [(1, "a"), bad, (2, "b"), (3, "c")]
        first = self._context(
            partitioner=partitioner,
            checkpoint_writer=CheckpointWriter(str(tmp_path), "o3", SERIALIZER, 1),
        )
        attempt(first, pairs)  # then the task dies, its three rounds on disk
        reader = CheckpointReader(str(tmp_path), "o3", SERIALIZER)
        ctx = self._context(
            partitioner=partitioner, checkpoint_reader=reader,
            checkpoint_writer=CheckpointWriter(
                str(tmp_path), "o3", SERIALIZER, 1, start_round=reader.max_round()
            ),
        )
        assert ctx.replay_checkpoint() == 3
        attempt(ctx, [*pairs, (4, "d")])
        assert self._buffered(ctx) == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
        assert ctx.metrics.records_emitted == 4

    def test_crash_counts_skipped_emits(self, tmp_path):
        from repro.common.errors import DataMPIError
        from repro.core.checkpoint import CheckpointReader, CheckpointWriter
        from tests.core.helpers import SERIALIZER

        writer = CheckpointWriter(str(tmp_path), "o3", SERIALIZER, 1)
        for i in range(4):
            writer.add(i, i)
        ctx = self._context(
            checkpoint_reader=CheckpointReader(str(tmp_path), "o3", SERIALIZER),
            crash_after=6,
        )
        assert ctx.replay_checkpoint() == 4
        for i in range(6):
            ctx.send(i, i)
        with pytest.raises(DataMPIError, match="after 6 records"):
            ctx.send(6, 6)
        assert ctx.metrics.records_emitted == 6  # 4 replayed + 2 new

    def test_key_and_value_class_coerce_or_raise(self, tmp_path):
        from repro.common.errors import DataMPIError
        from repro.core.checkpoint import CheckpointReader, CheckpointWriter
        from tests.core.helpers import SERIALIZER

        writer = CheckpointWriter(str(tmp_path), "o3", SERIALIZER, 1)
        ctx = self._context(
            key_class=int, value_class=float, checkpoint_writer=writer
        )
        ctx.send("17", "2.5")
        ctx.send(4, 1.5)  # conforming pairs pass untouched
        with pytest.raises(DataMPIError, match=(
            r"O task 3: key \['x'\] is not a int and cannot be coerced"
        )):
            ctx.send(["x"], 1.0)
        with pytest.raises(DataMPIError, match="value 'y' is not a float"):
            ctx.send(1, "y")
        assert ctx.metrics.records_emitted == 2
        assert self._buffered(ctx) == [(4, 1.5), (17, 2.5)]
        # the checkpoint holds the coerced pair, as the shuffle does
        replayed = list(CheckpointReader(str(tmp_path), "o3", SERIALIZER).replay())
        assert replayed == [(17, 2.5), (4, 1.5)]
        only_value = self._context(value_class=str)
        only_value.send(b"raw", 5)
        assert self._buffered(only_value) == [(b"raw", "5")]

    def test_a_pair_coercion_rejects_is_never_counted(self, tmp_path):
        """The rejected pair raises in every attempt and takes no place in
        the replay count, so a resumed task sends each pair once."""
        from repro.common.errors import DataMPIError
        from repro.core.checkpoint import CheckpointReader, CheckpointWriter
        from tests.core.helpers import SERIALIZER

        pairs = [(1, "a"), ("bad", "x"), (2, "b"), (3, "c")]

        def run(ctx, pairs):
            for key, value in pairs:
                try:
                    ctx.send(key, value)
                except DataMPIError:
                    assert key == "bad"  # the user catches it and carries on
            ctx.close()

        first = CheckpointWriter(str(tmp_path), "o3", SERIALIZER, 1)
        run(self._context(key_class=int, checkpoint_writer=first), pairs)
        reader = CheckpointReader(str(tmp_path), "o3", SERIALIZER)
        ctx = self._context(
            key_class=int, checkpoint_reader=reader,
            checkpoint_writer=CheckpointWriter(
                str(tmp_path), "o3", SERIALIZER, 1,
                start_round=reader.max_round(),
            ),
        )
        assert ctx.replay_checkpoint() == 3
        run(ctx, pairs + [(4, "d")])
        sent = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
        assert self._buffered(ctx) == sent
        assert list(reader.replay()) == sent

    @pytest.mark.parametrize("dest", [2, -1])
    def test_partitioner_out_of_range_raises(self, dest):
        from repro.common.errors import DataMPIError

        ctx = self._context(partitioner=lambda key, value, n: dest)
        with pytest.raises(DataMPIError, match=(
            rf"partitioner returned {dest}, outside \[0, 2\)"
        )):
            ctx.send("k", 1)
        assert ctx.metrics.records_emitted == 0
        assert self._buffered(ctx) == []

    def test_records_emitted_is_exact_per_task(self):
        first = self._context()
        second = self._context(first._spl)  # a rank's tasks share its SPL
        for i in range(3):
            first.send(i, "a")
        for i in range(5):
            second.send(i, "b")
        assert first.metrics.records_emitted == 3
        assert second.metrics.records_emitted == 5
        assert len(self._buffered(first)) == 8

    def test_sealed_blocks_ship_on_the_tasks_plane(self):
        ctx = self._context(flush_bytes=64, partitioner=lambda k, v, n: k % n)
        for i in range(40):
            ctx.send(i, "x" * 8)
        shipped = ctx._shuffle.shipped
        assert shipped and {plane for plane, _ in shipped} == {"fwd:0"}
        assert {block.partition_id for _, block in shipped} == {0, 1}
        total = sum(block.count for _, block in shipped)
        assert total + len(self._buffered(ctx)) == 40 == ctx.metrics.records_emitted

    def test_shuffle_is_resolved_when_a_block_seals(self):
        """``bench/replay.py`` times the dispatch with a bare ``object()``
        for the shuffle and an SPL stub that never seals."""
        added = []

        class NeverSeals:
            def add(self, partition, key, value):
                added.append((partition, key, value))

        ctx = self._context(
            NeverSeals(), shuffle=object(), partitioner=lambda k, v, n: 1
        )
        ctx.send("k", "v")
        assert added == [(1, "k", "v")] and ctx.metrics.records_emitted == 1

    def test_a_task_send_outside_iteration_mode_raises(self):
        from repro.common.errors import DataMPIError
        from repro.core import MPI_D
        from repro.core import context as context_mod

        ctx = self._context(kind="A")
        with pytest.raises(DataMPIError, match="A task 3 cannot Send in this mode"):
            ctx.send("k", 1)
        context_mod.bind(ctx)
        try:
            with pytest.raises(DataMPIError, match="cannot Send in this mode"):
                MPI_D.Send("k", 1)
        finally:
            context_mod.bind(None)
        assert ctx.metrics.records_emitted == 0

    def test_mpi_d_send_reaches_the_bound_send(self):
        from repro.core import MPI_D
        from repro.core import context as context_mod

        ctx = self._context(crash_after=5)
        context_mod.bind(ctx)
        try:
            MPI_D.Send("k", 1)
        finally:
            context_mod.bind(None)
        assert ctx.metrics.records_emitted == 1
        assert self._buffered(ctx) == [("k", 1)]

    def test_engine_crash_injection_names_the_exact_count(self, tmp_path):
        def o_fn(ctx):
            for i in range(50):
                ctx.send(i, ctx.rank)

        job = DataMPIJob(
            "crash", o_fn, lambda ctx: list(ctx.recv_iter()), 3, 2,
            mode=Mode.MAPREDUCE,
            conf={K.INJECT_CRASH_AFTER_RECORDS: 13, K.INJECT_CRASH_TASK: 2},
        )
        result = mpidrun(job, nprocs=2)
        assert not result.success
        assert "injected crash in O task 2 after 13 records" in result.error

    def test_engine_reports_exact_records_emitted_per_task(self):
        def o_fn(ctx):
            for i in range(10 * (ctx.rank + 1)):
                ctx.send(i, 1)

        job = DataMPIJob(
            "emitted", o_fn, lambda ctx: list(ctx.recv_iter()), 3, 2,
            mode=Mode.MAPREDUCE, combiner=lambda key, values: [sum(values)],
        )
        result = mpidrun(job, nprocs=2, raise_on_error=True)
        emitted = {
            t.task_id: t.records_emitted for t in result.metrics.tasks
            if t.kind == "O"
        }
        assert emitted == {0: 10, 1: 20, 2: 30}


class _StorePlane:
    """Stands in for a completed plane: one partition, a real RunStore."""

    def __init__(self, store):
        self.store = store

    def merged_iter(self, _partition):
        return iter(self.store)


class TestRecvCounts:
    """``records_received`` is the number of pairs handed to the task,
    however it asked for them."""

    @settings(max_examples=100, deadline=None, print_blob=True)
    @given(
        runs=st.lists(st.lists(st.integers(0, 5), max_size=6), max_size=4),
        # take this many pairs through one ``recv_iter()``, then drop it
        # where it stands; 0: one ``recv()``
        steps=st.lists(st.integers(0, 5), max_size=12),
        spilled=st.booleans(),
    )
    def test_recv_and_recv_iter_mixed_and_abandoned(
        self, tmp_path_factory, runs, steps, spilled
    ):
        from itertools import islice

        from repro.core.context import TaskContext
        from repro.core.sorter import RunStore
        from repro.serde.comparators import default_compare
        from tests.core.helpers import SERIALIZER

        store = RunStore(
            default_compare, SERIALIZER, str(tmp_path_factory.mktemp("recv")),
            0 if spilled else 10**9,
        )
        for r, keys in enumerate(runs):
            store.add_run(batch_block(
                0, [(key, (r, i)) for i, key in enumerate(sorted(keys))]).records)
        expected = list(store)
        assert len(expected) == sum(map(len, runs))
        ctx = TaskContext(
            kind="A", task_id=0, o_size=1, a_size=1, round_no=0, conf=None,
            partitioner=None, spl=None, send_plane_id=None, shuffle=None,
            recv_plane=_StorePlane(store),
        )
        try:
            got = []
            for step in steps:
                if step == 0:
                    pair = ctx.recv()
                    got.extend([pair] if pair is not None else [])
                else:
                    got.extend(islice(ctx.recv_iter(), step))
                assert ctx.metrics.records_received == len(got)
            assert got == expected[: len(got)]
            got.extend(ctx.recv_iter())
            assert got == expected
            assert ctx.recv() is None and list(ctx.recv_iter()) == []
            assert ctx.metrics.records_received == len(expected)
        finally:
            store.cleanup()
