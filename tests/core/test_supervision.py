"""Supervised execution: auto checkpoint-resume, heartbeat detection,
structured failure causes (tentpole of the robustness PR).

One ``mpidrun`` call must ride out an injected crash (restart + reload),
a severed worker must be blamed by name within the heartbeat deadline,
and every failure path must produce a precise structured record instead
of a hang or a bare timeout.

Every test here runs on both rank backends (the ``launcher`` fixture):
supervision must behave identically whether ranks are threads or OS
processes behind the socket router.
"""

import threading
import time

import pytest

from repro.common.errors import JobFailedError
from repro.core import DataMPIJob, Mode, mapreduce_job, mpidrun
from repro.core.constants import CONTROL_TAG, MPI_D_Constants as K
from repro.core.engine import WorkerEngine
from repro.core.shuffle import ShufflePlane
from repro.mpi import FaultInjector

from tests.core.helpers import (
    Collector,
    FileCollector,
    expected_wordcount,
    wordcount_pieces,
)

TEXTS = [f"alpha w{i % 7} w{(i * 3) % 5} omega" for i in range(40)]
O_TASKS, A_TASKS, NPROCS = 4, 2, 2


def _combiner(word, counts):
    yield sum(counts)


def make_job(out, ft_dir, conf=None, launcher="threads"):
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    base = {
        K.LAUNCHER: launcher,
        K.FT_ENABLED: True,
        K.FT_DIR: str(ft_dir),
        K.JOB_ID: "sup-wc",
        K.FT_INTERVAL_RECORDS: 10,
        K.MEMORY_CACHE_BYTES: 1024,  # force spills
        K.RESTART_BACKOFF_SECONDS: 0.01,
    }
    base.update(conf or {})
    return mapreduce_job(
        "sup-wc", provider, mapper, reducer, out,
        o_tasks=O_TASKS, a_tasks=A_TASKS, conf=base, combiner=_combiner,
    )


class TestAutoResume:
    def test_single_call_rides_out_injected_crash(self, tmp_path, launcher):
        expected = expected_wordcount(TEXTS)
        out = FileCollector(tmp_path / "out")
        result = mpidrun(
            make_job(out, tmp_path, launcher=launcher, conf={
                K.JOB_MAX_RESTARTS: 2,
                K.INJECT_CRASH_AFTER_RECORDS: 12,
                K.INJECT_CRASH_TASK: 1,
            }),
            nprocs=NPROCS,
        )
        assert result.success
        assert result.restarts >= 1
        assert result.metrics.restarts == result.restarts
        assert result.metrics.reloaded_records > 0
        assert out.merged() == expected
        # the crash that was survived is still on the record, attributed
        # to its task and attempt
        task_failures = [r for r in result.failures if r.kind == "task"]
        assert task_failures and task_failures[0].attempt == 1
        assert task_failures[0].task_id == 1
        assert "injected crash" in task_failures[0].error

    def test_no_restart_budget_reports_structured_cause(self, tmp_path, launcher):
        result = mpidrun(
            make_job(Collector(), tmp_path, launcher=launcher, conf={
                K.INJECT_CRASH_AFTER_RECORDS: 12,
                K.INJECT_CRASH_TASK: 1,
            }),
            nprocs=NPROCS,
        )
        assert not result.success
        assert result.restarts == 0
        primary = result.failures[0]
        assert primary.kind == "task"
        assert primary.phase == "O"
        assert primary.task_id == 1
        assert primary.worker >= 0
        assert primary.attempt == 1
        assert primary.traceback
        assert "injected crash" in result.error

    def test_a_failed_job_s_metrics_count_its_restarts(self, tmp_path, launcher):
        job = make_job(Collector(), tmp_path, launcher=launcher, conf={
            K.JOB_MAX_RESTARTS: 2,
        })

        def raising_o_fn(ctx):  # fails on every attempt
            raise ValueError("always")

        job.o_fn = raising_o_fn
        result = mpidrun(job, nprocs=NPROCS)
        assert not result.success
        assert result.restarts == 2
        assert result.metrics.restarts == 2  # one number, wherever it is read

    def test_task_max_attempts_stops_the_retry_loop(self, tmp_path, launcher):
        job = make_job(Collector(), tmp_path, launcher=launcher, conf={
            K.JOB_MAX_RESTARTS: 5,
            K.TASK_MAX_ATTEMPTS: 2,
        })
        o_fn = job.o_fn

        def buggy_o_fn(ctx):  # a deterministic bug: fails on every attempt
            if ctx.task_id == 1:
                raise ValueError("bug in O task 1")
            o_fn(ctx)

        job.o_fn = buggy_o_fn
        result = mpidrun(job, nprocs=NPROCS)
        assert not result.success
        assert result.restarts == 1  # gave up well before the 5-restart budget
        assert "mpi.d.task.max.attempts=2" in result.error
        attempts = sorted(
            r.attempt for r in result.failures if r.kind == "task"
        )
        assert attempts == [1, 2]


class TestHeartbeatDetection:
    def test_severed_worker_blamed_by_name_within_deadline(self, tmp_path, launcher):
        injector = FaultInjector()
        injector.sever(2)  # worker 1: globals are driver=0, workers=1..n
        out = Collector()
        start = time.monotonic()
        result = mpidrun(
            make_job(out, tmp_path, launcher=launcher, conf={
                K.HEARTBEAT_DEADLINE_SECONDS: 1.0,
                K.PLANE_TIMEOUT_SECONDS: 30.0,
            }),
            nprocs=NPROCS,
            timeout=120.0,
            fault_injector=injector,
        )
        elapsed = time.monotonic() - start
        assert not result.success
        assert elapsed < 30.0  # detected at the deadline, not a hung timeout
        hb = [r for r in result.failures if r.kind == "heartbeat"]
        assert hb and hb[0].worker == 1
        assert result.failures[0].kind == "heartbeat"  # and it is the primary
        assert "worker 1" in result.error
        assert "deadline" in result.error

    def test_deadline_zero_disables_detection(self, tmp_path, launcher):
        # a healthy job under heartbeats: detection must not misfire even
        # while enabled, and disabling it changes nothing for clean runs
        for deadline in (0, 2.0):
            out = FileCollector(tmp_path / f"out{deadline}")
            result = mpidrun(
                make_job(out, tmp_path / f"d{deadline}", launcher=launcher, conf={
                    K.HEARTBEAT_DEADLINE_SECONDS: deadline,
                }),
                nprocs=NPROCS,
                raise_on_error=True,
            )
            assert result.success
            assert out.merged() == expected_wordcount(TEXTS)


    def test_no_deadline_no_beat_thread(self):
        # with detection off the supervisor never checks, so nobody beats
        def beat_threads(deadline):
            def beating():
                return {t for t in threading.enumerate() if t.name.startswith("hb-w")}

            before = beating()  # an earlier test's wedged rank may still beat
            seen = []

            def o_fn(ctx):
                seen.extend(t.name for t in beating() - before)

            job = DataMPIJob(
                "beats", o_fn, lambda ctx: list(ctx.recv_iter()), 2, 1,
                conf={K.HEARTBEAT_DEADLINE_SECONDS: deadline},
            )
            assert mpidrun(job, nprocs=2, raise_on_error=True).success
            return seen

        assert beat_threads(0) == []
        assert beat_threads(15.0)


class TestOneRoute:
    """A failure is recorded once, where it is detected, and reaches
    mpidrun by the runtime only: no copy of a record, and no ``abort``
    record restating a cause that is already on file."""

    @staticmethod
    def _job(launcher, failing_side, failing_tasks):
        def body(side):
            def fn(ctx):
                if side == failing_side and ctx.task_id in failing_tasks:
                    raise ValueError(f"boom {side}{ctx.task_id}")
                if side == "O":
                    ctx.send(ctx.task_id, 1)
                else:
                    list(ctx.recv_iter())
            return fn

        return DataMPIJob(
            "route", body("O"), body("A"), o_tasks=2, a_tasks=2,
            mode=Mode.MAPREDUCE, conf={K.LAUNCHER: launcher},
        )

    @staticmethod
    def _check(failures, side, raised):
        keys = [
            (r.kind, r.worker, r.phase, r.task_id, r.round_no, r.attempt)
            for r in failures
        ]
        assert len(set(keys)) == len(keys), keys  # nothing filed twice
        assert failures[0].kind == "task"
        assert {r.kind for r in failures} == {"task"}, keys  # no abort beside it
        assert {r.phase for r in failures} == {side}
        assert {r.task_id for r in failures} <= raised
        assert all(r.attempt == 1 for r in failures)

    @pytest.mark.parametrize(
        "side, raised", [("O", {0, 1}), ("A", {0})], ids=["two-O", "one-A"]
    )
    def test_each_raising_task_is_on_record_once(self, launcher, side, raised):
        for _ in range(5):
            result = mpidrun(self._job(launcher, side, raised), nprocs=2,
                             timeout=120.0)
            assert not result.success
            self._check(result.failures, side, raised)

    def test_raise_on_error_raises_what_the_result_would_hold(self, launcher):
        job = self._job(launcher, "A", {0})
        result = mpidrun(job, nprocs=2, timeout=120.0)
        for _ in range(5):
            with pytest.raises(JobFailedError) as raised:
                mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
            exc = raised.value
            self._check(exc.failures, "A", {0})
            assert [(r.kind, r.phase, r.task_id) for r in exc.failures] == [
                (r.kind, r.phase, r.task_id) for r in result.failures
            ]
            assert str(exc) == result.error
            # the task's own exception, also after crossing the wire
            assert isinstance(exc.__cause__, ValueError)
            assert "boom A0" in str(exc.__cause__)

    def test_two_raising_tasks_raise_job_failed_whatever_the_timing(self, launcher):
        for _ in range(5):
            with pytest.raises(JobFailedError) as raised:
                mpidrun(self._job(launcher, "O", {0, 1}), nprocs=2,
                        timeout=120.0, raise_on_error=True)
            self._check(raised.value.failures, "O", {0, 1})


    @pytest.mark.parametrize("raw", [True, False], ids=["raw-str-key", "unpicklable"])
    def test_an_unencodable_pair_fails_the_send_that_passed_it(self, launcher, raw):
        """The pair is framed inside ``ctx.send``: what cannot be encoded is
        the sending task's failure, not a later seal's or the rank's (the
        end-of-task ``flush_all`` used to be the first to encode it)."""
        bad = ("text", b"v") if raw else (b"k", threading.Lock())

        def o_fn(ctx):
            ctx.send(b"k", b"v")
            if ctx.task_id == 1:
                ctx.send(*bad)
                raise AssertionError("the send took a pair it cannot encode")

        job = DataMPIJob(
            "unencodable", o_fn, lambda ctx: list(ctx.recv_iter()),
            o_tasks=2, a_tasks=2, mode=Mode.MAPREDUCE,
            conf={K.LAUNCHER: launcher, K.SHUFFLE_RAW: raw},
        )
        for _ in range(3):
            result = mpidrun(job, nprocs=2, timeout=120.0)
            assert not result.success
            assert [(r.kind, r.phase, r.task_id) for r in result.failures] == [
                ("task", "O", 1)
            ]
            assert "SerializationError" in result.failures[0].error


class TestDriverRobustness:
    def test_unknown_control_message_aborts_instead_of_hanging(
        self, tmp_path, monkeypatch, launcher
    ):
        # on the process backend the monkeypatched class is inherited by
        # the forked workers, so the bogus report fires there too
        def bogus_report(self):
            self.parent.send(("bogus", self.rank), dest=0, tag=CONTROL_TAG)

        monkeypatch.setattr(WorkerEngine, "_report", bogus_report)
        start = time.monotonic()
        result = mpidrun(make_job(Collector(), tmp_path, launcher=launcher),
                         nprocs=NPROCS, timeout=120.0)
        assert time.monotonic() - start < 60.0
        assert not result.success
        assert "unknown control message" in result.error


class TestStreamingRoundFailures:
    def _streaming_job(self, a_fn, launcher, conf=None):
        def o_fn(ctx):
            for i in range(20):
                ctx.send(f"k{i % 3}", i)

        base = {K.PLANE_TIMEOUT_SECONDS: 1.0, K.LAUNCHER: launcher}
        base.update(conf or {})
        return DataMPIJob(
            "stream-fail", o_fn, a_fn, o_tasks=1, a_tasks=1,
            mode=Mode.STREAMING, conf=base,
        )

    def test_stuck_a_task_raises_descriptive_timeout(self, tmp_path, launcher):
        def stuck_a(ctx):
            for _ in ctx.recv_iter():
                pass
            time.sleep(60)  # never finishes within the plane budget

        start = time.monotonic()
        result = mpidrun(self._streaming_job(stuck_a, launcher), nprocs=1,
                         timeout=120.0)
        assert time.monotonic() - start < 60.0
        assert not result.success
        assert "still running" in result.error
        assert "plane timeout" in result.error

    def test_consumer_error_outranks_stuck_siblings(self, tmp_path, launcher):
        def failing_a(ctx):
            raise ValueError("consumer exploded")

        result = mpidrun(self._streaming_job(failing_a, launcher), nprocs=1,
                         timeout=120.0)
        assert not result.success
        task_failures = [r for r in result.failures if r.kind == "task"]
        assert task_failures and task_failures[0].phase == "A"
        assert "consumer exploded" in task_failures[0].error

    def test_failing_o_task_ends_the_job_at_once_with_one_record(self, launcher):
        """A surviving rank's A tasks sat in ``stream.get()`` with no way to
        learn of the abort: the job took the whole plane timeout to fail and
        blamed that rank as well (120.05 s with the default timeout)."""

        def o_fn(ctx):
            for i in range(2000):
                ctx.send(f"k{i % 7}", i)
            if ctx.rank == 1:
                raise ValueError("producer exploded")

        def a_fn(ctx):
            for _ in ctx.recv_iter():
                pass

        job = DataMPIJob(
            "stream-o-fail", o_fn, a_fn, o_tasks=2, a_tasks=2,
            mode=Mode.STREAMING, conf={K.LAUNCHER: launcher},
        )
        start = time.monotonic()
        result = mpidrun(job, nprocs=2, timeout=120.0)
        assert time.monotonic() - start < 5.0
        assert not result.success
        assert [(r.kind, r.phase, r.task_id) for r in result.failures] == [
            ("task", "O", 1)
        ]
        assert "producer exploded" in result.failures[0].error

    def test_a_clean_job_ends_its_a_tasks_through_the_eos_marker(self, monkeypatch):
        # only a world abort offers the abort marker: a clean job's A
        # tasks end at the EOS, and nothing ever aborts its planes
        aborted = []
        monkeypatch.setattr(ShufflePlane, "abort_streams", aborted.append)
        seen = Collector()

        def a_fn(ctx):
            for key, value in ctx.recv_iter():
                seen(ctx.rank, key, value)

        result = mpidrun(self._streaming_job(a_fn, "threads"), nprocs=1,
                         timeout=120.0, raise_on_error=True)
        assert result.success and not result.failures
        assert sorted(seen.all_pairs()) == sorted((f"k{i % 3}", i) for i in range(20))
        assert aborted == []
