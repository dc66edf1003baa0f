"""End-to-end tests of Common, Iteration and Streaming modes."""

import sys
import threading
import time

from repro.core import DataMPIJob, Mode, MPI_D, common_job, mpidrun
from repro.core.partition import PartitionWindow


class TestCommonMode:
    def test_listing1_sort(self):
        """The paper's Listing 1: parallel sort via the MPI_D API."""
        outputs = {}
        lock = threading.Lock()

        def o_fn(ctx):
            MPI_D.Init(None, MPI_D.Mode.COMMON, dict(ctx.conf))
            rank = MPI_D.Comm_rank(MPI_D.COMM_BIPARTITE_O)
            size = MPI_D.Comm_size(MPI_D.COMM_BIPARTITE_O)
            assert MPI_D.COMM_BIPARTITE_A is None  # dichotomic
            for i in range(rank, 40, size):
                MPI_D.Send(f"key-{i:03d}", "")
            MPI_D.Finalize()

        def a_fn(ctx):
            MPI_D.Init()
            rank = MPI_D.Comm_rank(MPI_D.COMM_BIPARTITE_A)
            assert MPI_D.COMM_BIPARTITE_O is None
            got = []
            kv = MPI_D.Recv()
            while kv is not None:
                got.append(kv[0])
                kv = MPI_D.Recv()
            with lock:
                outputs[rank] = got
            MPI_D.Finalize()

        job = common_job("sort", o_fn, a_fn, o_tasks=4, a_tasks=2)
        assert mpidrun(job, nprocs=4, raise_on_error=True).success
        all_keys = []
        for rank in sorted(outputs):
            assert outputs[rank] == sorted(outputs[rank])  # per-partition order
            all_keys.extend(outputs[rank])
        assert sorted(all_keys) == [f"key-{i:03d}" for i in range(40)]

    def test_comm_sizes_report_task_counts(self):
        sizes = {}

        def o_fn(ctx):
            sizes.setdefault("O", set()).add(
                (MPI_D.Comm_rank(MPI_D.COMM_BIPARTITE_O),
                 MPI_D.Comm_size(MPI_D.COMM_BIPARTITE_O))
            )

        def a_fn(ctx):
            sizes.setdefault("A", set()).add(
                (MPI_D.Comm_rank(MPI_D.COMM_BIPARTITE_A),
                 MPI_D.Comm_size(MPI_D.COMM_BIPARTITE_A))
            )
            list(ctx.recv_iter())

        job = common_job("naming", o_fn, a_fn, o_tasks=5, a_tasks=3)
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert sizes["O"] == {(r, 5) for r in range(5)}
        assert sizes["A"] == {(r, 3) for r in range(3)}


class TestIterationMode:
    def test_three_round_accumulation(self):
        """Each round A sums what O sent and feeds it back."""
        final = {}
        lock = threading.Lock()

        def o_fn(ctx):
            if ctx.round == 0:
                ctx.send(ctx.rank % ctx.a_size, 1.0)
            else:
                total = sum(v for _, v in ctx.recv_iter())
                ctx.send(ctx.rank % ctx.a_size, total + 1.0)

        def a_fn(ctx):
            total = sum(v for _, v in ctx.recv_iter())
            if ctx.round < 2:
                # send back to the O tasks (bidirectional plane)
                ctx.send(ctx.rank % ctx.o_size, total)
            else:
                with lock:
                    final[ctx.rank] = total

        job = DataMPIJob(
            "iter", o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.ITERATION, rounds=3
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        # 2 O tasks send 1.0 each -> A totals 1.0; feedback adds 1 per round
        assert sum(final.values()) == 2 * 3.0

    def test_process_local_state_survives_rounds(self):
        """A tasks stash into ctx.state; next round's O task reads it."""
        observations = []
        lock = threading.Lock()

        def o_fn(ctx):
            if ctx.round > 0:
                with lock:
                    observations.append(ctx.state.get(("acc", ctx.rank)))
                list(ctx.recv_iter())
            ctx.send(ctx.rank, ctx.round)

        def a_fn(ctx):
            values = [v for _, v in ctx.recv_iter()]
            ctx.state[("acc", ctx.rank)] = sum(values)
            if ctx.round < 1:
                ctx.send(ctx.rank, 0)

        job = DataMPIJob(
            "state", o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.ITERATION, rounds=2
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        # round-1 O tasks observed round-0 A state (same process, same rank pin)
        assert observations == [0, 0]

    def test_iteration_o_tasks_pinned_per_round(self):
        """O task t must always run on process t % nprocs (state locality),
        and every task, O or A, where its Partition Window names."""
        placements = []
        lock = threading.Lock()

        def o_fn(ctx):
            if ctx.round > 0:
                list(ctx.recv_iter())
            with lock:
                placements.append((ctx.round, ctx.rank, threading.get_ident()))
            ctx.send(ctx.rank % ctx.a_size, 1)

        def a_fn(ctx):
            list(ctx.recv_iter())
            if ctx.round < 2:
                ctx.send(ctx.rank % ctx.o_size, 1)

        job = DataMPIJob(
            "pin", o_fn, a_fn, o_tasks=3, a_tasks=2, mode=Mode.ITERATION, rounds=3
        )
        result = mpidrun(job, nprocs=3, raise_on_error=True)
        assert result.success
        by_task = {}
        for _round, rank, thread in placements:
            by_task.setdefault(rank, set()).add(thread)
        # each O task stayed on one worker thread across all rounds
        assert all(len(threads) == 1 for threads in by_task.values())
        windows = {"O": PartitionWindow(3, 3), "A": PartitionWindow(2, 3)}
        ran = sorted((t.kind, t.round_no, t.task_id, t.worker)
                     for t in result.metrics.tasks)
        assert ran == sorted(
            (kind, r, task, window.owner(task))
            for kind, window in windows.items()
            for r in range(3) for task in range(window.num_partitions)
        )


class TestStreamingMode:
    def test_records_delivered_before_o_phase_ends(self):
        """The pipelined feature: A sees data while O is still producing."""
        first_recv_time = {}
        o_end_time = {}
        lock = threading.Lock()

        def o_fn(ctx):
            for i in range(40):
                ctx.send(i % 2, ("payload", time.perf_counter()))
                time.sleep(0.005)  # a slow stream
            with lock:
                o_end_time[ctx.rank] = time.perf_counter()

        def a_fn(ctx):
            kv = ctx.recv()
            with lock:
                first_recv_time[ctx.rank] = time.perf_counter()
            count = 1
            while kv is not None:
                kv = ctx.recv()
                count = count + 1 if kv is not None else count
            assert count == 40

        from repro.core.constants import MPI_D_Constants as K

        job = DataMPIJob(
            "stream",
            o_fn,
            a_fn,
            o_tasks=2,
            a_tasks=2,
            mode=Mode.STREAMING,
            # tiny flush threshold: every couple of records ships immediately,
            # so delivery genuinely overlaps production
            conf={K.SPL_PARTITION_BYTES: 64},
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert min(first_recv_time.values()) < min(o_end_time.values())

    def test_unsorted_arrival_order_preserved_per_sender(self):
        received = {}

        def o_fn(ctx):
            for i in range(30):
                ctx.send(0, (ctx.rank, i))

        def a_fn(ctx):
            received[ctx.rank] = [v for _, v in ctx.recv_iter()]

        job = DataMPIJob("order", o_fn, a_fn, 1, 1, mode=Mode.STREAMING)
        assert mpidrun(job, nprocs=1, raise_on_error=True).success
        # one sender, one receiver: per-sender FIFO must hold
        assert received[0] == [(0, i) for i in range(30)]

    def test_streaming_counts_complete(self):
        total = {"n": 0}
        lock = threading.Lock()

        def o_fn(ctx):
            for i in range(100):
                ctx.send(i % 5, i)

        def a_fn(ctx):
            n = sum(1 for _ in ctx.recv_iter())
            with lock:
                total["n"] += n

        job = DataMPIJob("cnt", o_fn, a_fn, o_tasks=3, a_tasks=5, mode=Mode.STREAMING)
        result = mpidrun(job, nprocs=3, raise_on_error=True)
        assert result.success
        assert total["n"] == 300

    def test_concurrent_a_tasks_of_one_rank_are_all_counted(self):
        """The A-task threads of a rank used to bump ``a_tasks_run`` and
        ``local_a_tasks`` themselves, unlocked: a lost update in waiting.
        The main thread counts them after the join."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            job = DataMPIJob(
                "cnt8", lambda ctx: ctx.send(ctx.rank, 1),
                lambda ctx: sum(1 for _ in ctx.recv_iter()),
                o_tasks=1, a_tasks=8, mode=Mode.STREAMING,
            )
            result = mpidrun(job, nprocs=1, raise_on_error=True)
        finally:
            sys.setswitchinterval(interval)
        assert result.metrics.a_tasks_run == 8
        assert result.metrics.local_a_tasks == 8
