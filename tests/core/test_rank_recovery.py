"""Surgical rank recovery: respawn-and-replay one dead rank in place.

The process backend must survive a SIGKILL'd worker without restarting
the whole job: the router fences the dead incarnation's connection, the
driver forks a replacement and requeues only the O tasks it
dealt that rank (the replacement reruns its window-owned tasks itself),
and the redelivery buffer re-feeds the shuffle batches the first life
took to the grave.  Peer ranks block on their planes and
resume; job output is byte-identical to an unfaulted run.  When the
respawn budget is spent or the redelivery buffer overflowed, the death
degrades gracefully to the classic whole-job restart.
"""

import os
import random
import shutil
import tempfile
from collections import Counter

from repro.core import DataMPIJob, Mode, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K, SHUFFLE_TAG
from repro.core.mpidrun import restart_delay
from repro.mpi import FaultInjector
from repro.mpi.runtime import ProcessRuntime
from repro.mpi.socket_transport import _RedeliveryBuffer
from repro.obs.journal import read_journal, to_chrome_trace

from tests.core.helpers import FileCollector, expected_wordcount, wordcount_pieces

TEXTS = [f"w{i % 7} w{(i * 3) % 5} kill recover" for i in range(40)]
NPROCS = 2


def recovery_conf(**extra):
    conf = {
        # many small envelopes per channel, and their number a property of
        # the input: every O task seals more >= 64-byte blocks than any
        # ``skip_first`` below, whichever rank wins the dynamic O tasks
        K.SHUFFLE_BATCH_BYTES: 64,
        K.SPL_PARTITION_BYTES: 64,
        K.LAUNCHER: "processes",
        K.RANK_MAX_RESPAWNS: 2,
        K.PLANE_TIMEOUT_SECONDS: 60.0,
        K.HEARTBEAT_DEADLINE_SECONDS: 120.0,
    }
    conf.update(extra)
    return conf


def run_wordcount(tmp_path, subdir, conf, injector=None, **kwargs):
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    out = FileCollector(tmp_path / subdir)
    job = mapreduce_job(
        "recovery-wc", provider, mapper, reducer, out,
        o_tasks=4, a_tasks=2, conf=conf,
    )
    result = mpidrun(job, nprocs=NPROCS, timeout=120.0,
                     fault_injector=injector, **kwargs)
    return result, out


# -- the tentpole: SIGKILL mid-shuffle, no whole-job restart -----------------------


class TestSurgicalRecovery:
    def test_killed_rank_respawns_without_job_restart(self, tmp_path):
        injector = FaultInjector()
        rule = injector.kill_rank(tag=SHUFFLE_TAG, skip_first=3, max_matches=1)
        result, out = run_wordcount(
            tmp_path, "out", recovery_conf(), injector=injector,
        )
        assert result.success
        assert rule.applied == 1  # the SIGKILL really fired
        assert result.restarts == 0  # the job itself never restarted
        assert result.metrics.respawns >= 1  # exactly the dead rank came back
        assert out.merged() == expected_wordcount(TEXTS)
        # conservation across the death: the reborn rank's re-sent streams
        # and the redelivered frames land once, whatever was replayed
        assert result.metrics.records_received == result.metrics.records_sent > 0
        assert result.metrics.blocks_received == result.metrics.blocks_sent

    def test_faulted_output_is_byte_identical_to_clean_run(self, tmp_path):
        clean_result, clean = run_wordcount(
            tmp_path, "clean", recovery_conf(), raise_on_error=True,
        )
        injector = FaultInjector()
        injector.kill_rank(tag=SHUFFLE_TAG, skip_first=3, max_matches=1)
        faulted_result, faulted = run_wordcount(
            tmp_path, "faulted", recovery_conf(), injector=injector,
        )
        assert clean_result.success and faulted_result.success
        assert clean_result.metrics.respawns == 0
        assert faulted_result.metrics.respawns >= 1
        # per task, not just merged
        assert faulted.ranks() == clean.ranks()
        for r in clean.ranks():
            assert list(faulted.pairs_for(r)) == list(clean.pairs_for(r))

    def test_recovery_traces_the_respawn_with_ft_on(self, tmp_path):
        injector = FaultInjector()
        injector.kill_rank(tag=SHUFFLE_TAG, skip_first=3, max_matches=1)
        journal = str(tmp_path / "job.trace.jsonl")
        conf = recovery_conf(**{
            K.FT_ENABLED: True,
            K.FT_DIR: str(tmp_path / "ft"),
            K.JOB_ID: "recovery-wc",
            K.FT_INTERVAL_RECORDS: 10,
            K.TRACE_PATH: journal,
        })
        result, out = run_wordcount(tmp_path, "out", conf, injector=injector)
        assert result.success
        assert result.restarts == 0
        assert out.merged() == expected_wordcount(TEXTS)
        respawns = [
            e["args"] for e in read_journal(journal).instants
            if e["name"] == "recovery.respawn"
        ]
        assert len(respawns) == 1  # exactly one rank died and came back
        assert respawns[0]["epoch"] == 1
        # the driver requeues the O tasks it dealt the dead rank, nothing
        # more: the reborn rank reruns its window-owned A tasks by itself
        assert 1 <= respawns[0]["tasks_requeued"] <= 4  # o_tasks
        # a successful job leaves no rounds to replay into the next
        assert not os.path.exists(tmp_path / "ft" / "recovery-wc")

    def test_a_reborn_rank_links_its_own_flows(self, tmp_path):
        # the rule fires on rank 1's first shuffle envelope and delivers
        # it, so a peer files seq 0 of that stream from the first life
        # before the reborn restarts the stream at seq 0: only the epoch
        # tells the two receives apart (the first life's send spans die
        # with it)
        injector = FaultInjector()
        rule = injector.kill_rank(tag=SHUFFLE_TAG, origin=1, max_matches=1)
        journal = str(tmp_path / "job.trace.jsonl")
        result, out = run_wordcount(
            tmp_path, "out", recovery_conf(**{K.TRACE_PATH: journal}),
            injector=injector,
        )
        assert result.success
        assert rule.applied == 1
        assert result.metrics.respawns == 1
        assert out.merged() == expected_wordcount(TEXTS)
        parsed = read_journal(journal)
        events = to_chrome_trace(parsed)["traceEvents"]
        finishes = Counter(e["id"] for e in events if e["ph"] == "f")
        starts = Counter(e["id"] for e in events if e["ph"] == "s")
        assert finishes and max(finishes.values()) == 1
        assert max(starts.values()) == 1
        assert set(finishes) <= set(starts)
        # every receive links to its send but the first life's, whose
        # send spans are lost; the reborn's are filed under epoch 1
        recvs = [e["args"] for e in parsed.spans
                 if e["name"] == "shuffle.recv.batch"]
        reborn = {a["origin"] for a in recvs if a["epoch"] == 1}
        assert len(reborn) == 1
        first_life = [a for a in recvs if a["origin"] in reborn and a["epoch"] == 0]
        assert len(finishes) == len(recvs) - len(first_life)

    def test_rounds_use_the_default_dir_without_ft_dir(
        self, tmp_path, monkeypatch
    ):
        # no mpi.d.ft.dir: the ranks write their rounds under the
        # tempdir, and mpidrun (which removes a successful job's rounds)
        # must derive the same place.  A job that fails keeps them for
        # its rerun.  Ranks are forked, so they inherit the cwd and
        # tempfile.tempdir set here; the tempdir is a short one of its
        # own because the router's AF_UNIX socket lives under it
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        tmp = tempfile.mkdtemp(prefix="ft-")
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(tempfile, "tempdir", tmp)
        try:
            conf = recovery_conf(**{
                K.FT_ENABLED: True, K.FT_INTERVAL_RECORDS: 10,
                K.INJECT_CRASH_TASK: 1, K.INJECT_CRASH_AFTER_RECORDS: 15,
            })
            failed, _ = run_wordcount(tmp_path, "failed", conf)
            assert not failed.success
            names = os.listdir(os.path.join(tmp, "recovery-wc"))
            assert any(n.startswith("cp_o") for n in names)
            del conf[K.INJECT_CRASH_AFTER_RECORDS]
            rerun, out = run_wordcount(tmp_path, "rerun", conf)
            assert rerun.success and rerun.metrics.reloaded_records > 0
            assert out.merged() == expected_wordcount(TEXTS)
            assert not os.path.exists(os.path.join(tmp, "recovery-wc"))
            assert os.listdir(cwd) == []
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_killed_rank_mid_iteration_replays_its_rounds(self, tmp_path):
        def build(out, conf):
            def o_fn(ctx):
                if ctx.round == 0:
                    ctx.send(ctx.rank % ctx.a_size, 1.0)
                else:
                    total = sum(v for _, v in ctx.recv_iter())
                    ctx.send(ctx.rank % ctx.a_size, total + 1.0)

            def a_fn(ctx):
                total = sum(v for _, v in ctx.recv_iter())
                if ctx.round < 2:
                    ctx.send(ctx.rank % ctx.o_size, total)
                else:
                    out(ctx.rank, "total", total)

            return DataMPIJob("iter-kill", o_fn, a_fn, o_tasks=2, a_tasks=2,
                              mode=Mode.ITERATION, rounds=3, conf=conf)

        clean = FileCollector(tmp_path / "clean")
        assert mpidrun(build(clean, recovery_conf()), nprocs=NPROCS,
                       timeout=120.0, raise_on_error=True).success
        injector = FaultInjector()
        injector.kill_rank(tag=SHUFFLE_TAG, skip_first=2, max_matches=1)
        faulted = FileCollector(tmp_path / "faulted")
        result = mpidrun(build(faulted, recovery_conf()), nprocs=NPROCS,
                         timeout=120.0, fault_injector=injector)
        assert result.success
        assert result.restarts == 0
        assert result.metrics.respawns >= 1
        assert faulted.ranks() == clean.ranks()
        for r in clean.ranks():
            assert list(faulted.pairs_for(r)) == list(clean.pairs_for(r))

    def test_killed_rank_mid_stream_loses_no_records(self, tmp_path):
        def build(out, conf):
            def o_fn(ctx):
                for i in range(60):
                    ctx.send(i % 2, (ctx.rank * 1000 + i, 1))

            def a_fn(ctx):
                keys = tuple(sorted(k for k, _ in ctx.recv_iter()))
                out(ctx.rank, "keys", keys)

            return DataMPIJob("stream-kill", o_fn, a_fn, o_tasks=2, a_tasks=2,
                              mode=Mode.STREAMING, conf=conf)

        conf = recovery_conf()
        clean = FileCollector(tmp_path / "clean")
        assert mpidrun(build(clean, conf), nprocs=NPROCS, timeout=120.0,
                       raise_on_error=True).success
        injector = FaultInjector()
        injector.kill_rank(tag=SHUFFLE_TAG, skip_first=2, max_matches=1)
        faulted = FileCollector(tmp_path / "faulted")
        result = mpidrun(build(faulted, conf), nprocs=NPROCS, timeout=120.0,
                         fault_injector=injector)
        assert result.success
        assert result.restarts == 0
        assert result.metrics.respawns >= 1
        assert faulted.ranks() == clean.ranks()
        for r in clean.ranks():
            assert list(faulted.pairs_for(r)) == list(clean.pairs_for(r))


class TestGracefulDegradation:
    def test_redelivery_overflow_degrades_to_whole_job_restart(self, tmp_path):
        # a 256-byte buffer overflows before the kill lands, so the rank
        # is not surgically recoverable: the death must degrade to the
        # classic supervised restart and still produce correct output
        injector = FaultInjector()
        rule = injector.kill_rank(tag=SHUFFLE_TAG, skip_first=6, max_matches=1)
        conf = recovery_conf(**{
            K.RANK_REDELIVERY_BYTES: 256,
            K.FT_ENABLED: True,
            K.FT_DIR: str(tmp_path / "ft"),
            K.JOB_ID: "recovery-wc",
            K.JOB_MAX_RESTARTS: 2,
            K.RESTART_BACKOFF_SECONDS: 0.01,
        })
        result, out = run_wordcount(tmp_path, "out", conf, injector=injector)
        assert result.success
        assert rule.applied == 1  # the SIGKILL really fired
        assert result.restarts >= 1
        assert result.metrics.respawns == 0
        assert any(f.kind == "respawn" for f in result.failures)
        # the exhausted respawn is the first attempt's primary record
        assert result.failures[0].kind == "respawn"
        assert result.failures[0].attempt == 1
        assert out.merged() == expected_wordcount(TEXTS)

    def test_respawn_budget_gates_eligibility(self):
        runtime = ProcessRuntime()
        try:
            transport = runtime._transport
            runtime.enable_rank_recovery(1, 1 << 20)
            transport.expect((1, 2), "w", world_context=4)
            assert transport.ranks[1].recoverable
            epoch, _pid = transport.respawn(1)
            assert epoch == 1
            # budget spent: no second surgical respawn for rank 1
            assert not transport.ranks[1].recoverable
            assert transport.ranks[1].lost().kind == "respawn"
            assert runtime.respawn_rank(1) is None
            # rank 2 is untouched and still has its full budget
            assert transport.ranks[2].recoverable
        finally:
            runtime._transport.shutdown()

    def test_a_respawn_refused_for_a_rank_already_down_is_worded_once(self):
        # the window between the router's "respawn" verdict and the driver
        # loop's fork: traffic for the dead rank keeps accumulating and
        # overflows its log.  The refusal files the rank's one record and
        # aborts the world; the scheduler words nothing of its own
        runtime = ProcessRuntime()
        try:
            transport = runtime._transport
            runtime.enable_rank_recovery(2, 64)
            transport.expect((1, 2), "w", world_context=4)
            rank = transport.ranks[1]
            assert rank.lost() == "respawn"
            rank.route(b"x" * 100, 4)  # 100 > 64: the log is gone
            assert transport.respawn(1) is None
            assert [r.kind for r in runtime.failure_records] == ["respawn"]
            assert runtime.failure_records[0].where == "w[0]"
            assert runtime.abort_flag.is_set()
        finally:
            runtime._transport.shutdown()

    def test_recovery_is_off_by_default(self):
        runtime = ProcessRuntime()
        try:
            assert not runtime.rank_recovery_enabled
            runtime._transport.expect((1,))
            assert not runtime._transport.ranks[1].recoverable
            assert runtime._transport.respawn(1) is None
        finally:
            runtime._transport.shutdown()


# -- the redelivery buffer --------------------------------------------------------


class TestRedeliveryBuffer:
    def test_frames_kept_in_order_and_released_per_plane(self):
        # (the id predates the plane ACK's removal: BYE alone releases)
        buf = _RedeliveryBuffer(cap=1 << 20)
        buf.append(b"a" * 10)
        buf.append(b"b" * 10)
        buf.append(b"c" * 10)
        buf.append(b"d" * 10)
        assert buf.frames == [b"a" * 10, b"b" * 10, b"c" * 10, b"d" * 10]
        assert buf.nbytes == 40
        assert not buf.overflowed

    def test_overflow_evicts_oldest_and_latches(self):
        buf = _RedeliveryBuffer(cap=25)
        buf.append(b"x" * 10)
        buf.append(b"y" * 10)
        assert not buf.overflowed
        buf.append(b"z" * 10)  # 30 > 25: a lossy log is no log
        assert buf.overflowed  # the rank is no longer replayable
        assert buf.frames == []
        assert buf.nbytes == 0
        buf.append(b"w" * 10)  # and nothing more is pinned
        assert (buf.frames, buf.nbytes) == ([], 0)

    def test_clear_resets_bytes_but_not_the_overflow_latch(self):
        buf = _RedeliveryBuffer(cap=5)
        buf.append(b"frame-too-big")
        assert buf.overflowed
        buf.clear()
        assert buf.frames == []
        assert buf.nbytes == 0
        assert buf.overflowed  # a lossy history cannot be un-lost


# -- satellite: seeded jitter on the restart backoff ------------------------------


class TestRestartDelay:
    def test_no_jitter_is_pure_exponential_and_capped(self):
        assert restart_delay(1, 2.0) == 2.0
        assert restart_delay(2, 2.0) == 4.0
        assert restart_delay(3, 2.0) == 5.0  # _MAX_BACKOFF ceiling
        assert restart_delay(10, 2.0) == 5.0

    def test_jitter_stays_inside_the_band(self):
        rng = random.Random(42)
        for attempt in range(1, 6):
            base = restart_delay(attempt, 1.0)
            for _ in range(50):
                delay = restart_delay(attempt, 1.0, jitter=0.25, rng=rng)
                assert 0.75 * base <= delay <= 1.25 * base

    def test_seeded_rng_makes_the_schedule_deterministic(self):
        a = [restart_delay(i, 0.5, jitter=0.5, rng=random.Random(7))
             for i in range(1, 5)]
        b = [restart_delay(i, 0.5, jitter=0.5, rng=random.Random(7))
             for i in range(1, 5)]
        assert a == b
        c = [restart_delay(i, 0.5, jitter=0.5, rng=random.Random(8))
             for i in range(1, 5)]
        assert a != c
