"""Transport chaos: the FaultInjector vs. the shuffle pipeline.

Dropped, delayed, duplicated and truncated envelopes must never corrupt
shuffle results — benign faults are absorbed transparently (duplicate
dedup by sequence number, FIFO-preserving delay), destructive faults are
detected (sequence gaps, truncation markers) and, with fault tolerance
on, healed by a supervised restart.

Every mpidrun test here runs on both rank backends (the ``launcher``
fixture).  On the process backend the injector lives at the driver-side
router — the assertions on counts, events and rule hits read the same
canonical injector either way.
"""

import time

from repro.core import DataMPIJob, Mode, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K, SHUFFLE_TAG
from repro.mpi import FaultInjector

from tests.core.helpers import FileCollector, expected_wordcount, wordcount_pieces

TEXTS = [f"w{i % 7} w{(i * 3) % 5} chaos common" for i in range(40)]
O_TASKS, A_TASKS, NPROCS = 4, 2, 2


def make_job(out, conf=None, launcher="threads"):
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    # many small envelopes per channel — as many whichever rank wins the
    # dynamically scheduled O tasks: blocks seal by size, not per rank
    base = {K.SHUFFLE_BATCH_BYTES: 64, K.SPL_PARTITION_BYTES: 64,
            K.LAUNCHER: launcher}
    base.update(conf or {})
    return mapreduce_job(
        "chaos-wc", provider, mapper, reducer, out,
        o_tasks=O_TASKS, a_tasks=A_TASKS, conf=base,
    )


def ft_conf(tmp_path, **extra):
    conf = {
        K.FT_ENABLED: True,
        K.FT_DIR: str(tmp_path),
        K.JOB_ID: "chaos-wc",
        K.FT_INTERVAL_RECORDS: 10,
        K.JOB_MAX_RESTARTS: 2,
        K.RESTART_BACKOFF_SECONDS: 0.01,
        K.PLANE_TIMEOUT_SECONDS: 5.0,
    }
    conf.update(extra)
    return conf


def assert_conserved(metrics):
    """What was sent is what landed, read off the one metrics record."""
    assert metrics.records_received == metrics.records_sent
    assert metrics.blocks_received == metrics.blocks_sent


class TestBenignFaults:
    def test_duplicated_envelopes_never_double_count(self, tmp_path, launcher):
        injector = FaultInjector()
        injector.duplicate(tag=SHUFFLE_TAG)  # every shuffle envelope, twice
        out = FileCollector(tmp_path / "out")
        result = mpidrun(make_job(out, launcher=launcher), nprocs=NPROCS,
                         raise_on_error=True, fault_injector=injector)
        assert result.success
        assert injector.counts["duplicate"] > 0
        assert out.merged() == expected_wordcount(TEXTS)
        assert_conserved(result.metrics)
        # every shuffle envelope arrived twice and was applied once
        assert result.metrics.duplicates_dropped == result.metrics.envelopes_sent > 0

    def test_delayed_envelopes_preserve_order_and_results(self, tmp_path, launcher):
        injector = FaultInjector()
        injector.delay(0.01, tag=SHUFFLE_TAG, max_matches=8)
        out = FileCollector(tmp_path / "out")
        result = mpidrun(make_job(out, launcher=launcher), nprocs=NPROCS,
                         raise_on_error=True, fault_injector=injector)
        assert result.success
        assert injector.counts["delay"] == 8
        assert out.merged() == expected_wordcount(TEXTS)
        assert_conserved(result.metrics)


class TestDestructiveFaults:
    def test_dropped_envelope_detected_and_healed_by_restart(self, tmp_path, launcher):
        injector = FaultInjector()
        injector.drop(tag=SHUFFLE_TAG, max_matches=1)  # transient loss
        out = FileCollector(tmp_path / "out")
        start = time.monotonic()
        result = mpidrun(make_job(out, ft_conf(tmp_path), launcher=launcher),
                         nprocs=NPROCS, timeout=120.0, fault_injector=injector)
        assert time.monotonic() - start < 60.0
        assert result.success
        assert result.restarts == 1
        assert injector.counts["drop"] == 1
        assert out.merged() == expected_wordcount(TEXTS)
        assert result.failures  # the lost envelope left a structured trace

    def test_truncated_envelope_detected_and_healed_by_restart(self, tmp_path, launcher):
        injector = FaultInjector()
        injector.truncate(tag=SHUFFLE_TAG, skip_first=3, max_matches=1)
        out = FileCollector(tmp_path / "out")
        result = mpidrun(make_job(out, ft_conf(tmp_path), launcher=launcher),
                         nprocs=NPROCS, timeout=120.0, fault_injector=injector)
        assert result.success
        assert result.restarts == 1
        assert injector.counts["truncate"] == 1
        assert out.merged() == expected_wordcount(TEXTS)
        assert any("truncated" in r.error.lower() for r in result.failures)


class TestOwnBlocks:
    def test_a_dropped_own_block_is_a_seq_gap(self, launcher):
        """A rank's own Streaming blocks take the transport like its
        peers': the injector sees them, and a drop is a gap the next
        envelope of that stream exposes at once."""
        injector = FaultInjector()
        # global ranks 1 and 2 are the two workers (0 is mpidrun's driver);
        # a rank that ran an O task sends itself data before its EOS
        for gid in (1, 2):
            injector.drop(tag=SHUFFLE_TAG, origin=gid, dest=gid, max_matches=1)

        def o_fn(ctx):
            for i in range(200):
                ctx.send(f"k{i}", i)

        def a_fn(ctx):
            for _ in ctx.recv_iter():
                pass

        job = DataMPIJob(
            "own-drop", o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.STREAMING,
            conf={K.LAUNCHER: launcher, K.SPL_PARTITION_BYTES: 64},
        )
        start = time.monotonic()
        result = mpidrun(job, nprocs=NPROCS, timeout=120.0, fault_injector=injector)
        assert time.monotonic() - start < 30.0  # not the plane timeout
        assert not result.success
        assert injector.counts["drop"] >= 1
        gaps = [r for r in result.failures if "lost batch" in r.error]
        assert [r.kind for r in gaps] == ["abort"]
        assert "(expected seq 0, got 1)" in gaps[0].error


class TestInjectorMechanics:
    def test_rules_are_deterministic_and_audited(self, tmp_path, launcher):
        injector = FaultInjector()
        rule = injector.drop(tag=SHUFFLE_TAG, skip_first=2, max_matches=1)
        out = FileCollector(tmp_path / "out")
        result = mpidrun(
            # should the dropped envelope be a stream's last (its EOS),
            # only the plane timeout can notice: keep that wait short
            make_job(out, ft_conf(tmp_path, **{K.JOB_MAX_RESTARTS: 1,
                                               K.PLANE_TIMEOUT_SECONDS: 2.0}),
                     launcher=launcher),
            nprocs=NPROCS, timeout=120.0, fault_injector=injector,
        )
        assert result.success
        assert rule.applied == 1  # exactly one envelope was eaten
        assert rule.hits >= 3  # the two skipped ones still counted as hits
        drops = [e for e in injector.events if e[0] == "drop"]
        assert len(drops) == 1
        assert drops[0][4] == SHUFFLE_TAG  # audited with its tag

    def test_sever_and_restore(self):
        injector = FaultInjector()
        injector.sever(1, 2)
        assert injector.severed == frozenset({1, 2})
        injector.restore(2)
        assert injector.severed == frozenset({1})
