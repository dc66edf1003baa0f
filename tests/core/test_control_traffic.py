"""Control traffic and task placement.

mpidrun deals only first-come-first-served O tasks (MapReduce, Common,
Streaming).  Every A task, and every Iteration O task, runs on the rank
the Partition Window names, which computes it without asking the driver.
Iteration planes are dropped once the rank is done with them.
"""

import pytest

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.partition import PartitionWindow
from repro.core.scheduler import TaskScheduler
from repro.obs.journal import read_journal

from tests.core.helpers import FileCollector

NPROCS = 2


def _fns(rounds):
    """Each O task sends 5 records a round; in Iteration mode each A task
    sends 3 back in every round but the last."""

    def o_fn(ctx):
        if ctx.round > 0:
            list(ctx.recv_iter())
        for i in range(5):
            ctx.send(i % ctx.a_size, ctx.rank)

    def a_fn(ctx):
        list(ctx.recv_iter())
        if ctx.round < rounds - 1:
            for i in range(3):
                ctx.send(i % ctx.o_size, ctx.rank)

    return o_fn, a_fn


def _job(mode, launcher, o_tasks=4, a_tasks=4, rounds=1):
    return DataMPIJob(
        f"ctl-{mode.value}", *_fns(rounds), o_tasks=o_tasks, a_tasks=a_tasks,
        mode=mode, rounds=rounds, conf={K.LAUNCHER: launcher},
    )


def _assigns(tmp_path, job):
    path = str(tmp_path / "job.trace.jsonl")
    job.conf[K.TRACE_PATH] = path
    result = mpidrun(job, nprocs=NPROCS, timeout=120.0, raise_on_error=True)
    assert result.success
    return [e for e in read_journal(path).instants if e["name"] == "sched.assign"]


class TestDriverDealsOnlyDynamicOTasks:
    def test_a_mapreduce_job_asks_for_its_o_tasks_alone(self, tmp_path, launcher):
        assigns = _assigns(tmp_path, _job(Mode.MAPREDUCE, launcher))
        assert sorted(e["args"]["task"] for e in assigns) == [0, 1, 2, 3]

    def test_an_iteration_job_asks_for_nothing(self, tmp_path, launcher):
        job = _job(Mode.ITERATION, launcher, o_tasks=3, a_tasks=2, rounds=3)
        assert _assigns(tmp_path, job) == []


class TestPlacement:
    @pytest.mark.parametrize(
        "mode, rounds",
        [(Mode.MAPREDUCE, 1), (Mode.STREAMING, 1), (Mode.ITERATION, 3)],
        ids=["mapreduce", "streaming", "iteration"],
    )
    def test_every_a_task_runs_where_the_window_puts_it(self, launcher, mode, rounds):
        job = _job(mode, launcher, o_tasks=3, a_tasks=5, rounds=rounds)
        result = mpidrun(job, nprocs=NPROCS, timeout=120.0, raise_on_error=True)
        window = PartitionWindow(5, NPROCS)
        ran = [(t.round_no, t.task_id, t.worker)
               for t in result.metrics.tasks if t.kind == "A"]
        assert sorted(ran) == sorted(
            (r, task, window.owner(task)) for r in range(rounds) for task in range(5)
        )
        assert result.a_data_locality == 1.0


class TestSchedulerUnit:
    def test_each_o_task_of_a_round_is_dealt_once(self):
        scheduler = TaskScheduler(_job(Mode.MAPREDUCE, "threads", o_tasks=5))
        for round_no in (0, 1):
            dealt = []
            for worker in (0, 1, 0, 1, 1, 0, 1):
                task = scheduler.next_task(round_no, worker)
                if task is not None:
                    dealt.append(task)
            assert dealt == [0, 1, 2, 3, 4]
            assert scheduler.next_task(round_no, 0) is None

    def test_requeue_hands_the_reborn_worker_exactly_its_dealt_o_tasks(self):
        scheduler = TaskScheduler(_job(Mode.MAPREDUCE, "threads", o_tasks=5))
        workers = (1, 0, 1, 1)
        first_life = [scheduler.next_task(0, w) for w in workers]
        mine = [t for t, w in zip(first_life, workers) if w == 1]
        assert scheduler.requeue_worker(1) == len(mine) == 3
        replayed = []
        while (task := scheduler.next_task(0, 1)) is not None:
            replayed.append(task)
            if len(replayed) == len(mine):
                break
        assert replayed == mine
        # then the shared queue carries on where it was: task 4 is undealt
        assert scheduler.next_task(0, 0) == 4
        assert scheduler.next_task(0, 1) is None


class TestIterationPlanes:
    ROUNDS = 6

    def test_a_rank_holds_at_most_three_planes(self, tmp_path, launcher):
        planes = FileCollector(tmp_path / "planes")
        inner_o, inner_a = _fns(self.ROUNDS)

        def o_fn(ctx):
            planes(100 + ctx.rank, ctx.round, len(ctx._shuffle._planes))
            inner_o(ctx)

        def a_fn(ctx):
            planes(ctx.rank, ctx.round, len(ctx._shuffle._planes))
            inner_a(ctx)

        job = DataMPIJob(
            "planes", o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.ITERATION,
            rounds=self.ROUNDS, conf={K.LAUNCHER: launcher},
        )
        result = mpidrun(job, nprocs=NPROCS, timeout=120.0, raise_on_error=True)
        held = [n for _round, n in planes.pairs()]
        assert len(held) == 2 * 2 * self.ROUNDS
        assert 0 < max(held) <= 3
        # 2 O tasks x 5 records a round, 2 A tasks x 3 records back in
        # all rounds but the last: what the job received before any drop
        expected = 2 * 5 * self.ROUNDS + 2 * 3 * (self.ROUNDS - 1)
        assert result.metrics.records_received == expected
        assert result.metrics.records_sent == expected
