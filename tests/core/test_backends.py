"""Cross-backend engine coverage: the four modes, shuffle correctness
and the flight recorder must produce identical results whether ranks
are threads (``LocalTransport``) or OS processes behind the socket
router (``mpi.d.launcher=processes``).

Outputs go through files (``FileCollector`` or plain per-rank files):
in-process closures are invisible across the fork boundary, and a sink
that works for both backends is exactly what real jobs need.
"""

import json
import os
import threading

from repro.core import DataMPIJob, FileSink, Mode, common_job, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K

from tests.core.helpers import (
    FileCollector,
    expected_wordcount,
    wordcount_pieces,
)

TEXTS = [f"beta w{i % 9} w{(i * 5) % 7} gamma" for i in range(60)]


def _wc_job(out, launcher, extra=None):
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    conf = {K.LAUNCHER: launcher, K.SHUFFLE_BATCH_BYTES: 256}
    conf.update(extra or {})
    return mapreduce_job(
        "backends-wc", provider, mapper, reducer, out,
        o_tasks=4, a_tasks=3, conf=conf,
    )


class TestMapReduceParity:
    def test_both_backends_produce_identical_output(self, tmp_path):
        merged = {}
        for launcher in ("threads", "processes"):
            out = FileCollector(tmp_path / launcher)
            result = mpidrun(_wc_job(out, launcher), nprocs=4,
                             raise_on_error=True)
            assert result.success
            merged[launcher] = out.merged()
        assert merged["threads"] == merged["processes"] == expected_wordcount(TEXTS)

    def test_partitioning_is_identical_across_backends(self, tmp_path):
        # not just the union: every key must land on the same A task
        per_task = {}
        for launcher in ("threads", "processes"):
            out = FileCollector(tmp_path / launcher)
            mpidrun(_wc_job(out, launcher), nprocs=4, raise_on_error=True)
            per_task[launcher] = {
                rank: sorted(out.pairs_for(rank)) for rank in out.ranks()
            }
        assert per_task["threads"] == per_task["processes"]


class TestFileSink:
    """One append handle per task rank per process, flushed every pair."""

    def test_part_files_identical_and_no_handle_outlives_cleanup(self, tmp_path):
        parts = {}
        for launcher in ("threads", "processes"):
            sink = FileSink(tmp_path / launcher)
            mpidrun(_wc_job(sink, launcher), nprocs=4, raise_on_error=True)
            handles = list(sink._files.values())
            parts[launcher] = {
                path.name: path.read_bytes()
                for path in (tmp_path / launcher).glob("part-*.pkl")
            }
            # thread ranks wrote through this very object; process ranks
            # through their forked copies, whose handles died with them
            assert len(handles) == (
                len(parts[launcher]) if launcher == "threads" else 0
            )
            assert sink.merged() == expected_wordcount(TEXTS)
            sink.cleanup()
            assert all(f.closed for f in handles) and not sink._files
            assert not os.path.exists(sink.directory)
            sink.cleanup()  # idempotent: the directory is already gone
            assert sink.ranks() == [] and sink.merged() == {}
        assert len(parts["threads"]) > 1
        assert parts["threads"] == parts["processes"]

    def test_every_pair_is_readable_before_any_close(self, tmp_path):
        """A worker that dies mid-job leaves a parsable stream: a second
        reader sees each pair as soon as the call returns."""
        sink = FileSink(tmp_path / "live")
        reader = FileSink(sink.directory)
        written = []
        for i in range(5):
            sink(i % 2, f"k{i}", i)
            written.append((f"k{i}", i))
            assert sorted(reader.pairs()) == written
        assert len(sink._files) == 2  # one handle per rank, not per pair
        assert reader.ranks() == [0, 1]
        assert list(reader.pairs_for(0)) == [("k0", 0), ("k2", 2), ("k4", 4)]
        assert list(reader.pairs_for(1)) == [("k1", 1), ("k3", 3)]
        sink.cleanup()

    def test_handles_are_dropped_from_pickled_state(self, tmp_path):
        import pickle

        sink = FileSink(tmp_path / "pickled")
        sink(0, "a", 1)
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.directory == sink.directory and clone._files == {}
        clone(0, "b", 2)  # appends through a handle of its own
        assert list(sink.pairs()) == [("a", 1), ("b", 2)]
        handles = [*sink._files.values(), *clone._files.values()]
        sink.cleanup()  # closes its own handle and removes the part files
        assert [f.closed for f in handles] == [True, False]
        clone._files.popitem()[1].close()


class TestThreadModel:
    """A rank's shuffle runs on its tasks' own thread and on whichever
    thread delivers an envelope (a peer's task, or the wire reader): it
    starts no thread of its own."""

    def test_a_rank_runs_no_shuffle_thread(self, tmp_path, launcher):
        outdir = tmp_path / "threads"
        outdir.mkdir()

        def o_fn(ctx):
            for i in range(20):
                ctx.send(i, i)
            names = sorted(t.name for t in threading.enumerate()
                           if t.name.startswith("shuffle-"))
            (outdir / f"o{ctx.rank}.json").write_text(json.dumps(names))

        def a_fn(ctx):
            list(ctx.recv_iter())

        job = common_job("thread-model", o_fn, a_fn, o_tasks=2, a_tasks=2,
                         conf={K.LAUNCHER: launcher})
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        seen = [json.loads(p.read_text()) for p in sorted(outdir.iterdir())]
        assert seen == [[], []]

    def test_a_telemetered_rank_runs_one_pulse_thread(self, tmp_path, launcher):
        """Liveness and telemetry share the ``hb-w{rank}`` thread."""
        outdir = tmp_path / "pulse"
        outdir.mkdir()
        # an earlier test's wedged rank may still beat in this process
        before = {t.name for t in threading.enumerate()}

        def o_fn(ctx):
            names = sorted({t.name for t in threading.enumerate()} - before)
            (outdir / f"o{ctx.rank}.json").write_text(json.dumps(names))
            ctx.send(ctx.rank, ctx.rank)

        def a_fn(ctx):
            list(ctx.recv_iter())

        job = common_job("pulse-threads", o_fn, a_fn, o_tasks=4, a_tasks=2,
                         conf={K.LAUNCHER: launcher, K.TELEMETRY_ENABLED: True,
                               K.TELEMETRY_INTERVAL_SECONDS: 0.05})
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        pulses = {"hb-w0", "hb-w1"}
        for path in sorted(outdir.iterdir()):
            names = json.loads(path.read_text())
            assert not [n for n in names if n.startswith("telemetry-w")], names
            beating = {n for n in names if n.startswith("hb-w")}
            assert beating and beating <= pulses, names
            if launcher == "processes":
                assert len(beating) == 1, names  # its own rank's, only

    def test_a_traced_job_starts_no_sampler_thread(
        self, tmp_path, launcher, monkeypatch
    ):
        """A rank samples its own CPU and RSS on its pulse: the driver
        runs no sampler of its own."""
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        job = common_job(
            "traced-threads", lambda ctx: ctx.send(ctx.rank, ctx.rank),
            lambda ctx: list(ctx.recv_iter()), o_tasks=2, a_tasks=2,
            conf={K.LAUNCHER: launcher,
                  K.TRACE_PATH: str(tmp_path / "job.trace.jsonl")},
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert started  # the recorder saw the job's threads
        assert "obs-sampler" not in started, started

    def test_finished_processes_jobs_leave_no_router_thread(self):
        """Stopping the router joins its accept loop (a closed listener
        alone does not wake ``accept()``) and its readers."""
        for _ in range(3):
            job = common_job(
                "router-threads", lambda ctx: ctx.send(ctx.rank, ctx.rank),
                lambda ctx: list(ctx.recv_iter()), o_tasks=2, a_tasks=2,
                conf={K.LAUNCHER: "processes"},
            )
            assert mpidrun(job, nprocs=2, raise_on_error=True).success
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("mpi-router-")]


class TestModesOnProcesses:
    """Common / Iteration / Streaming semantics on the process backend."""

    def test_common_mode_partition_sort(self, tmp_path, launcher):
        outdir = str(tmp_path / "got")
        os.makedirs(outdir, exist_ok=True)

        def o_fn(ctx):
            for i in range(ctx.rank, 40, ctx.o_size):
                ctx.send(f"key-{i:03d}", "")

        def a_fn(ctx):
            got = [k for k, _ in ctx.recv_iter()]
            with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                json.dump(got, f)

        job = common_job("sort", o_fn, a_fn, o_tasks=4, a_tasks=2,
                         conf={K.LAUNCHER: launcher})
        assert mpidrun(job, nprocs=4, raise_on_error=True).success
        all_keys = []
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                got = json.load(f)
            assert got == sorted(got)  # per-partition order (Common sorts)
            all_keys.extend(got)
        assert sorted(all_keys) == [f"key-{i:03d}" for i in range(40)]

    def test_iteration_mode_accumulates_across_rounds(self, tmp_path, launcher):
        outdir = str(tmp_path / "final")
        os.makedirs(outdir, exist_ok=True)

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
                with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                    json.dump(total, f)

        job = DataMPIJob(
            "iter", o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.ITERATION,
            rounds=3, conf={K.LAUNCHER: launcher},
        )
        assert mpidrun(job, nprocs=2, raise_on_error=True).success
        totals = []
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name)) as f:
                totals.append(json.load(f))
        assert sum(totals) == 2 * 3.0  # 1 per O task, +1 feedback per round

    def test_streaming_mode_counts_complete(self, tmp_path, launcher):
        outdir = str(tmp_path / "counts")
        os.makedirs(outdir, exist_ok=True)

        def o_fn(ctx):
            for i in range(100):
                ctx.send(i % 5, i)

        def a_fn(ctx):
            n = sum(1 for _ in ctx.recv_iter())
            with open(os.path.join(outdir, f"a{ctx.rank}.json"), "w") as f:
                json.dump(n, f)

        job = DataMPIJob("cnt", o_fn, a_fn, o_tasks=3, a_tasks=5,
                         mode=Mode.STREAMING, conf={K.LAUNCHER: launcher})
        assert mpidrun(job, nprocs=3, raise_on_error=True).success
        total = 0
        for name in os.listdir(outdir):
            with open(os.path.join(outdir, name)) as f:
                total += json.load(f)
        assert total == 300


class TestTraceShardMerging:
    def test_worker_process_events_land_in_the_driver_journal(self, tmp_path):
        from repro.obs.journal import read_journal

        (tmp_path / "trace").mkdir()
        journal_path = str(tmp_path / "trace" / "job.trace.jsonl")
        out = FileCollector(tmp_path / "out")
        result = mpidrun(
            _wc_job(out, "processes", extra={K.TRACE_PATH: journal_path}),
            nprocs=4, raise_on_error=True,
        )
        assert result.success
        journal = read_journal(journal_path)
        # task spans execute inside worker processes; their presence in the
        # driver's journal proves each process handed its events over
        task_spans = [e for e in journal.spans if e.get("cat") == "task"]
        # every O and A task ran in some worker process
        assert len(task_spans) == 4 + 3
        assert len({e["rank"] for e in task_spans}) > 1  # from several workers
        # over the connection: no file is written beside the journal
        assert os.listdir(tmp_path / "trace") == ["job.trace.jsonl"]


class TestSealedBytesAreTheSameOnBothBackends:
    def test_terasort_sends_exactly_the_sealed_batches(self):
        """Every backend seals the same batches, so with no combiner the
        job's ``records_sent``/``bytes_sent`` are the input's record count
        and framed size — on threads and on processes alike."""
        from repro.hdfs import MiniDFSCluster
        from repro.serde.batch import batch_from_pairs
        from repro.workloads import teragen_to_dfs, terasort_datampi
        from repro.workloads.teragen import KEY_LEN, RECORD_LEN, teragen

        n = 600
        blob = teragen(n)
        sealed = batch_from_pairs(
            ((blob[p : p + KEY_LEN], blob[p + KEY_LEN : p + RECORD_LEN])
             for p in range(0, len(blob), RECORD_LEN)),
            None, raw=True,
        )
        for launcher in ("threads", "processes"):
            cluster = MiniDFSCluster(num_nodes=4, block_size=50 * RECORD_LEN)
            teragen_to_dfs(cluster.client(0), "/in", n)
            metrics = terasort_datampi(
                cluster, "/in", "/out", o_tasks=4, a_tasks=3, nprocs=4,
                conf={K.LAUNCHER: launcher},
            ).metrics
            assert (metrics.records_sent, metrics.bytes_sent) == (
                sealed.count, len(sealed.data)
            ), launcher
