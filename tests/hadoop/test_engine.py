"""End-to-end mini-Hadoop jobs: scheduling, shuffle, counters."""

import os
import pkgutil
import re
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hadoop
from repro.common.records import _size_of
from repro.core.buffers import SendPartitionList
from repro.core.metrics import COVERAGE_PHASES, OVERLAY_PHASES
from repro.core.partition import hash_partitioner
from repro.core.sorter import RunStore, combine_run, sort_block, spill_batch
from repro.hadoop import HadoopJob, MiniHadoopCluster
from repro.hadoop import engine as hadoop_engine
from repro.hadoop.io_formats import compute_splits_for_dir
from repro.hadoop.shuffle_http import ShuffleDirectory, ShuffleServer
from repro.hadoop.tasks import SERDE
from repro.hdfs.cluster import MiniDFSCluster
from repro.serde.batch import batch_from_pairs
from repro.serde.comparators import default_compare
from repro.workloads.wordcount import generate_text, wordcount_reference


def word_mapper(_k, line, emit):
    for word in line.split():
        emit(word, 1)


def sum_reducer(key, values, emit):
    emit(key, sum(values))


@pytest.fixture()
def cluster():
    dfs_cluster = MiniDFSCluster(num_nodes=3, block_size=256)
    return MiniHadoopCluster(dfs_cluster)


def write_input(cluster, lines):
    dfs = cluster.dfs_cluster.client(0)
    dfs.write_file("/in/part0", ("\n".join(lines) + "\n").encode())


def of_kind(metrics, kind):
    """The job's task records of one kind: "O" a map, "A" a reduce."""
    return [t for t in metrics.tasks if t.kind == kind]


def served(cluster, name):
    """A counter summed over every TaskTracker's shuffle server."""
    return sum(getattr(t.shuffle_server, name) for t in cluster.trackers)


class TestWordCountJob:
    LINES = ["a b a", "c a b", "b c c c"] * 15

    def expected(self):
        from collections import Counter

        counter = Counter()
        for line in self.LINES:
            counter.update(line.split())
        return {k: str(v) for k, v in counter.items()}

    def test_end_to_end(self, cluster):
        write_input(cluster, self.LINES)
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, num_reduces=2)
        result = cluster.run_job(job)
        assert result.success
        assert dict(cluster.read_output(job)) == self.expected()

    def test_counters_consistent(self, cluster):
        write_input(cluster, self.LINES)
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, num_reduces=2)
        m = cluster.run_job(job).metrics
        total_words = sum(len(line.split()) for line in self.LINES)
        assert sum(t.records_emitted for t in of_kind(m, "O")) == total_words
        assert m.records_received == total_words  # no combiner
        assert sum(t.records_emitted for t in of_kind(m, "A")) == 3  # distinct words
        # every reduce pulls from every map
        assert served(cluster, "requests_served") == 2 * m.o_tasks_run
        assert m.o_tasks_run == len(of_kind(m, "O")) > 0

    def test_combiner_cuts_shuffle(self, cluster):
        write_input(cluster, self.LINES)
        plain = HadoopJob("p", "/in", "/out-p", word_mapper, sum_reducer, 2)
        combined = HadoopJob(
            "c", "/in", "/out-c", word_mapper, sum_reducer, 2,
            combiner=lambda k, vs: [sum(vs)],
        )
        cluster.run_job(plain)
        plain_bytes = served(cluster, "bytes_served")
        cluster.run_job(combined)
        combined_bytes = served(cluster, "bytes_served") - plain_bytes
        assert dict(cluster.read_output(plain)) == dict(cluster.read_output(combined))
        assert combined_bytes < plain_bytes

    def test_output_one_file_per_reduce(self, cluster):
        write_input(cluster, self.LINES)
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, num_reduces=4)
        assert cluster.run_job(job).success
        files = cluster.dfs_cluster.client(None).listdir("/out")
        assert len(files) == 4
        assert files == sorted(files)

    def test_timelines_recorded(self, cluster):
        write_input(cluster, self.LINES)
        mapped, reduced = [], []

        def mapper(key, line, emit):
            word_mapper(key, line, emit)
            mapped.append(time.perf_counter())

        def reducer(key, values, emit):
            reduced.append(time.perf_counter())
            sum_reducer(key, values, emit)

        job = HadoopJob("wc", "/in", "/out", mapper, reducer, num_reduces=2)
        m = cluster.run_job(job).metrics
        assert len(of_kind(m, "O")) >= 1
        assert len(of_kind(m, "A")) == 2
        # the proxy-based shuffle: no reduce starts before the last map ends
        assert min(reduced) >= max(mapped)


class TestSchedulingAndFailures:
    def test_map_locality_preferred(self):
        """With replication=3 on 3 nodes every split can run locally."""
        dfs_cluster = MiniDFSCluster(num_nodes=3, block_size=128, replication=3)
        cluster = MiniHadoopCluster(dfs_cluster)
        write_input(cluster, ["x y z"] * 30)
        job = HadoopJob("loc", "/in", "/out", word_mapper, sum_reducer, 1)
        maps = of_kind(cluster.run_job(job).metrics, "O")
        splits = compute_splits_for_dir(dfs_cluster.client(None), "/in")
        assert maps and all(t.worker in splits[t.task_id].hosts for t in maps)

    def test_empty_input_fails_cleanly(self, cluster):
        job = HadoopJob("none", "/missing", "/out", word_mapper, sum_reducer, 1)
        result = cluster.run_job(job)
        assert not result.success
        assert "no input" in result.error

    def test_mapper_exception_fails_job(self, cluster):
        write_input(cluster, ["boom"])

        def bad_mapper(_k, _v, _emit):
            raise ValueError("mapper exploded")

        job = HadoopJob("bad", "/in", "/out", bad_mapper, sum_reducer, 1)
        result = cluster.run_job(job)
        assert not result.success
        assert "mapper exploded" in result.error

    def test_reducer_exception_fails_job(self, cluster):
        write_input(cluster, ["ok data"])

        def bad_reducer(_k, _vs, _emit):
            raise RuntimeError("reducer exploded")

        job = HadoopJob("bad", "/in", "/out", word_mapper, bad_reducer, 1)
        result = cluster.run_job(job)
        assert not result.success

    def test_invalid_job_config(self, cluster):
        job = HadoopJob("inv", "/in", "/out", word_mapper, sum_reducer, num_reduces=0)
        with pytest.raises(Exception):
            cluster.run_job(job)


def segment(directory, pairs):
    """A map-output segment on local disk, as a map task writes it."""
    return spill_batch(batch_from_pairs(pairs, SERDE), SERDE, str(directory), "seg")


class TestShuffleServer:
    def test_register_and_fetch(self, tmp_path):
        server = ShuffleServer(0)
        first = segment(tmp_path, [("a", 1)])
        server.register_map_output(3, {0: first, 1: segment(tmp_path, [("b", 2)])})
        assert list(server.fetch(3, 0).iter_pairs(SERDE)) == [("a", 1)]
        assert server.fetch(3, 9) is None  # empty partitions are a valid GET
        assert server.requests_served == 2
        assert server.bytes_served == os.path.getsize(first.path) > 0

    def test_directory_resolves_hosts(self, tmp_path):
        servers = [ShuffleServer(0), ShuffleServer(1)]
        servers[1].register_map_output(7, {0: segment(tmp_path, [("k", "v")])})
        directory = ShuffleDirectory(servers)
        directory.announce_completion(7, 1)
        assert directory.host_of(7) == 1
        assert list(directory.fetch(7, 0).iter_pairs(SERDE)) == [("k", "v")]

    def test_fetch_before_completion_raises(self):
        directory = ShuffleDirectory([ShuffleServer(0)])
        with pytest.raises(Exception):
            directory.host_of(0)


class TestSharedMapSide:
    def test_the_baseline_runs_the_engine_s_buffers(self, cluster, monkeypatch):
        """The map collects through the send core the engine's SPL binds —
        the very closure, not a copy — seals in that SPL and files runs in
        its RunStore; no module of the baseline keeps a sort, merge, size
        or partition check of its own."""
        calls, cores, emits = Counter(), {}, []
        for cls, name in [(SendPartitionList, "_seal"), (RunStore, "add_run")]:
            def spy(*args, _real=getattr(cls, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cls, name, spy)

        def bind(spl, partitioner, *rest, _real=SendPartitionList.bind):
            core = _real(spl, partitioner, *rest)
            cores[core] = partitioner
            return core
        monkeypatch.setattr(SendPartitionList, "bind", bind)

        def mapper(key, line, emit):
            emits.append(emit)
            word_mapper(key, line, emit)
        write_input(cluster, ["a b a", "c a b"])
        job = HadoopJob("wc", "/in", "/out", mapper, sum_reducer, num_reduces=2)
        assert cluster.run_job(job).success
        assert calls["_seal"] > 0 and calls["add_run"] > 0
        assert emits and all(cores.get(emit) is job.partitioner for emit in emits)
        for module in pkgutil.iter_modules(repro.hadoop.__path__):
            path = os.path.join(repro.hadoop.__path__[0], f"{module.name}.py")
            with open(path) as f:
                source = f.read()
            assert not re.search(
                r"\b(sort_block|merge_runs|kv_bytes|validate_destination)\b", source), path

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_job_leaves_its_local_directory(
        self, cluster, tmp_path, monkeypatch, fails
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        write_input(cluster, ["a b", "boom"])
        seen = []

        def mapper(key, line, emit):
            seen.extend(tmp_path.glob("minihadoop-*"))
            if fails and line == "boom":
                raise ValueError("mapper exploded")
            word_mapper(key, line, emit)

        job = HadoopJob("disk", "/in", "/out", mapper, sum_reducer, 2)
        assert cluster.run_job(job).success is not fails
        assert seen  # map output had a local directory while the job ran
        assert list(tmp_path.glob("minihadoop-*")) == []

    def test_a_later_job_does_not_read_an_earlier_job_s_segments(self):
        """A map's empty partition is empty, whatever the same map id of an
        earlier job on the same host wrote there."""
        cluster = MiniHadoopCluster(MiniDFSCluster(num_nodes=1, block_size=1024))
        dfs = cluster.dfs_cluster.client(0)
        dfs.write_file("/in1/d", b"a b c d e f g h\n")
        dfs.write_file("/in2/d", b"a\n")
        first = HadoopJob("j1", "/in1", "/out1", word_mapper, sum_reducer, 2)
        second = HadoopJob("j2", "/in2", "/out2", word_mapper, sum_reducer, 2)
        assert cluster.run_job(first).success and cluster.run_job(second).success
        assert dict(cluster.read_output(second)) == {"a": "1"}


def sum_combiner(key, values):
    return [sum(values)]


class TestMapSideSpills:
    """WordCount maps whose sort buffer fills mid-task: a partition counts
    each word it holds once, so it seals, and its store spills, less often
    than counting the word with every pair would."""

    @staticmethod
    def _spill_files(maps, n, budget, key_once):
        """mini-Hadoop's map-side spill files (``spill_batch`` calls, as the
        ``map_spills`` fixture counts them), modelled: each map's words held in
        tuple-list partitions sealed at ``budget`` bytes (a held word's
        size counted once with ``key_once``, else with every pair); each
        sealed block, combined, is filed in a store that spills whenever
        what it holds passes ``budget``; a partition that got a pair adds
        its final segment."""
        files = 0
        for words in maps:
            held, sizes, resident = [[] for _ in range(n)], [0] * n, [0] * n

            def seal(p):
                nonlocal files
                run = combine_run(sort_block(held[p], default_compare), sum_combiner)
                resident[p] += len(batch_from_pairs(run, SERDE).data)
                if resident[p] > budget:
                    files, resident[p] = files + 1, 0
                held[p], sizes[p] = [], 0

            for word in words:
                p = hash_partitioner(word, 1, n)
                if not (key_once and any(k == word for k, _ in held[p])):
                    sizes[p] += _size_of(word)
                sizes[p] += _size_of(1)
                held[p].append((word, 1))
                if sizes[p] >= budget:
                    seal(p)
            for p in range(n):
                if held[p]:
                    seal(p)
            files += len({hash_partitioner(word, 1, n) for word in words})
        return files

    def test_spills_follow_the_held_bytes_rule(self, map_spills):
        lines = generate_text(300, 12, seed=3)
        cluster = MiniHadoopCluster(MiniDFSCluster(num_nodes=2, block_size=8192))
        write_input(cluster, lines)
        maps = {}

        def mapper(key, line, emit):
            maps.setdefault(emit, []).extend(line.split())
            word_mapper(key, line, emit)

        budget = 1024
        job = HadoopJob("wc", "/in", "/out", mapper, sum_reducer, 2,
                        combiner=sum_combiner, sort_buffer_bytes=budget)
        result = cluster.run_job(job)
        assert result.success and len(maps) > 1
        assert {k: int(v) for k, v in cluster.read_output(job)} == wordcount_reference(lines)
        emitted = sum(t.records_emitted for t in of_kind(result.metrics, "O"))
        assert emitted == sum(map(len, maps.values())) == 12 * len(lines)
        held_rule = self._spill_files(maps.values(), 2, budget, key_once=True)
        per_pair = self._spill_files(maps.values(), 2, budget, key_once=False)
        assert len(map_spills) == held_rule < per_pair, (held_rule, per_pair)
        assert len(map_spills) > 2 * len(maps)  # a partition spilled mid-task
        # the spills' bytes and seconds, as an A task's store reports them
        assert result.metrics.spilled_bytes > 0 and result.metrics.phase_times["spill"] > 0


class TestPhaseLanes:
    def test_a_wordcount_reports_on_the_engine_s_phase_lanes(self, monkeypatch):
        """A mini-Hadoop WordCount's record reads as a DataMPI job's: its
        phases are the engine's, the maps' seals and the reduces' pulls
        are timed, and each task's lane covers the task."""
        records = []
        for name in ("run_map_task", "run_reduce_task"):
            def spy(*args, _real=getattr(hadoop_engine, name)):
                record = _real(*args)
                records.append(record)
                return record
            monkeypatch.setattr(hadoop_engine, name, spy)
        cluster = MiniHadoopCluster(MiniDFSCluster(num_nodes=1, block_size=1 << 20), 1, 1)
        write_input(cluster, generate_text(6000, 12, seed=3))
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, 2)
        result = cluster.run_job(job)
        assert result.success
        phases = result.metrics.phase_times
        assert set(phases) <= {*COVERAGE_PHASES, *OVERLAY_PHASES}, phases
        assert phases["partition-sort"] > 0 and phases["communicate"] > 0
        assert len(records) == len(result.metrics.tasks) > 2
        for record in records:
            (task,) = record.tasks
            lane = sum(s for phase, s in record.phase_times.items() if phase != "spill")
            assert lane == pytest.approx(task.duration, rel=0.05), record.phase_times


@settings(max_examples=20, deadline=None)
@given(
    lines=st.lists(
        st.lists(st.sampled_from(["a", "bb", "ccc", "dddd", "x" * 40]),
                 min_size=1, max_size=12).map(" ".join),
        min_size=1, max_size=120,
    ),
    sort_buffer_bytes=st.sampled_from([1024, 2048, 1 << 20]),
    combine=st.booleans(),
)
def test_wordcount_matches_the_reference(lines, sort_buffer_bytes, combine):
    """Any buffer size, with or without a combiner: the counts are the
    reference's, and every byte a map wrote is pulled exactly once."""
    cluster = MiniHadoopCluster(MiniDFSCluster(num_nodes=2, block_size=512))
    write_input(cluster, lines)
    job = HadoopJob(
        "wc", "/in", "/out", word_mapper, sum_reducer, 3,
        combiner=(lambda k, vs: [sum(vs)]) if combine else None,
        sort_buffer_bytes=sort_buffer_bytes,
    )
    result = cluster.run_job(job)
    expected = Counter(word for line in lines for word in line.split())
    assert result.success
    assert {k: int(v) for k, v in cluster.read_output(job)} == expected
    m = result.metrics
    assert m.bytes_sent == served(cluster, "bytes_served") > 0
    assert sum(t.records_emitted for t in of_kind(m, "O")) == sum(expected.values())
