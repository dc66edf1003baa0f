"""Fault-tolerance flows: checkpoint-enabled jobs, crash, restart (§IV-E)."""

import pytest

from repro.core import mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K

from tests.core.helpers import Collector, int_range_input

N = 200
O_TASKS, A_TASKS, NPROCS = 4, 2, 2


def _mapper(k, v, emit):
    emit(str(v % 13), v)


def _reducer(k, values, emit):
    emit(k, sum(values))


def make_job(out, ft_dir, crash_after=-1, crash_task=1, interval=10, ft=True):
    conf = {
        K.FT_ENABLED: ft,
        K.FT_DIR: str(ft_dir),
        K.JOB_ID: "ft-job",
        K.FT_INTERVAL_RECORDS: interval,
        K.INJECT_CRASH_AFTER_RECORDS: crash_after,
        K.INJECT_CRASH_TASK: crash_task,
    }
    return mapreduce_job(
        "ftwc",
        int_range_input(N),
        _mapper,
        _reducer,
        out,
        o_tasks=O_TASKS,
        a_tasks=A_TASKS,
        conf=conf if ft else {},
    )


def reference_output(tmp_path):
    out = Collector()
    assert mpidrun(make_job(out, tmp_path / "noft", ft=False), nprocs=NPROCS,
                   raise_on_error=True).success
    return out.merged()


class TestCheckpointedExecution:
    def test_ft_run_matches_plain_run(self, tmp_path):
        expected = reference_output(tmp_path)
        out = Collector()
        result = mpidrun(make_job(out, tmp_path), nprocs=NPROCS, raise_on_error=True)
        assert result.success
        assert out.merged() == expected
        assert result.metrics.checkpointed_records > 0

    def test_all_emitted_records_checkpointed(self, tmp_path):
        out = Collector()
        result = mpidrun(make_job(out, tmp_path), nprocs=NPROCS, raise_on_error=True)
        # each input record emits exactly one pair; close() flushes tails
        assert result.metrics.checkpointed_records == N


    def test_the_next_job_of_the_same_name_replays_nothing(self, tmp_path):
        # no mpi.d.job.id: both jobs checkpoint under their shared name
        def run(n, ft):
            out = Collector()
            job = mapreduce_job(
                "same-name", int_range_input(n), _mapper, _reducer, out,
                o_tasks=O_TASKS, a_tasks=A_TASKS,
                conf={K.FT_ENABLED: True, K.FT_DIR: str(tmp_path),
                      K.FT_INTERVAL_RECORDS: 10} if ft else {},
            )
            return mpidrun(job, nprocs=NPROCS, raise_on_error=True), out.merged()

        for n in (100, 40):
            result, output = run(n, ft=True)
            assert output == run(n, ft=False)[1]
            assert result.metrics.reloaded_records == 0
        assert not (tmp_path / "same-name").exists()


class TestCrashAndRecover:
    def test_crash_reported_as_failure(self, tmp_path):
        out = Collector()
        result = mpidrun(make_job(out, tmp_path, crash_after=15), nprocs=NPROCS)
        assert not result.success
        assert "injected crash" in result.error

    def test_restart_produces_identical_output(self, tmp_path):
        expected = reference_output(tmp_path)
        crashed = Collector()
        first = mpidrun(make_job(crashed, tmp_path, crash_after=15), nprocs=NPROCS)
        assert not first.success
        recovered = Collector()
        second = mpidrun(make_job(recovered, tmp_path), nprocs=NPROCS,
                         raise_on_error=True)
        assert second.success
        assert recovered.merged() == expected

    def test_restart_reloads_persisted_records(self, tmp_path):
        first = mpidrun(make_job(Collector(), tmp_path, crash_after=25),
                        nprocs=NPROCS)
        assert not first.success
        out = Collector()
        second = mpidrun(make_job(out, tmp_path), nprocs=NPROCS,
                         raise_on_error=True)
        # the crashed task had persisted at least two complete rounds
        assert second.metrics.reloaded_records >= 20
        # reloaded records are skipped, never double-sent
        assert out.merged() == reference_output(tmp_path)

    def test_more_checkpoints_more_reload(self, tmp_path):
        """Reload volume grows with how much was persisted (Figure 13a).

        Only the crashed task's persisted rounds are deterministic (other
        tasks race with the abort), so the assertion looks at that task's
        checkpoint files directly.
        """
        from repro.core.checkpoint import CheckpointManager
        from repro.serde.serialization import WritableSerializer

        def crash_then_count(subdir, crash_after):
            mpidrun(
                make_job(Collector(), tmp_path / subdir, crash_after=crash_after),
                nprocs=NPROCS,
            )
            mgr = CheckpointManager(
                str(tmp_path / subdir), "ft-job", WritableSerializer(), 10
            )
            return mgr.reader(1).record_count()

        early = crash_then_count("early", 12)
        late = crash_then_count("late", 45)
        assert early == 10  # one complete round of 10
        assert late == 40  # four complete rounds
        # and the restart actually reloads at least that much
        out = Collector()
        result = mpidrun(
            make_job(out, tmp_path / "late"), nprocs=NPROCS, raise_on_error=True
        )
        assert result.metrics.reloaded_records >= 40

    def test_double_crash_then_recover(self, tmp_path):
        expected = reference_output(tmp_path)
        assert not mpidrun(
            make_job(Collector(), tmp_path, crash_after=12), nprocs=NPROCS
        ).success
        assert not mpidrun(
            make_job(Collector(), tmp_path, crash_after=30), nprocs=NPROCS
        ).success
        out = Collector()
        final = mpidrun(make_job(out, tmp_path), nprocs=NPROCS, raise_on_error=True)
        assert final.success
        assert out.merged() == expected

    def test_checkpoint_interval_one_persists_everything_before_crash(self, tmp_path):
        crash_at = 17
        mpidrun(
            make_job(Collector(), tmp_path, crash_after=crash_at, interval=1),
            nprocs=NPROCS,
        )
        from repro.core.checkpoint import CheckpointManager
        from repro.serde.serialization import WritableSerializer

        mgr = CheckpointManager(str(tmp_path), "ft-job", WritableSerializer(), 1)
        persisted = mgr.reader(1).record_count()
        assert persisted == crash_at

    def test_ft_rejected_for_iteration_jobs(self, tmp_path):
        from repro.core import DataMPIJob, Mode

        job = DataMPIJob(
            "bad-ft",
            lambda ctx: None,
            lambda ctx: list(ctx.recv_iter()),
            1,
            1,
            mode=Mode.ITERATION,
            conf={K.FT_ENABLED: True, K.FT_DIR: str(tmp_path)},
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        assert "checkpoint" in result.error.lower()
