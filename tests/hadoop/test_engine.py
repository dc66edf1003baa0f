"""End-to-end mini-Hadoop jobs: scheduling, shuffle, counters."""

import os
import pkgutil
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hadoop
from repro.core.buffers import SendPartitionList
from repro.core.sorter import RunStore, spill_batch
from repro.hadoop import HadoopJob, MiniHadoopCluster
from repro.hadoop.shuffle_http import ShuffleDirectory, ShuffleServer
from repro.hadoop.tasks import SERDE
from repro.hdfs.cluster import MiniDFSCluster
from repro.serde.batch import batch_from_pairs


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
        result = cluster.run_job(job)
        c = result.counters
        total_words = sum(len(line.split()) for line in self.LINES)
        assert c.map_output_records == total_words
        assert c.reduce_input_records == total_words  # no combiner
        assert c.reduce_output_records == 3  # distinct words
        assert c.shuffle_fetches == 2 * c.data_local_maps + 2 * c.rack_remote_maps

    def test_combiner_cuts_shuffle(self, cluster):
        write_input(cluster, self.LINES)
        plain = HadoopJob("p", "/in", "/out-p", word_mapper, sum_reducer, 2)
        combined = HadoopJob(
            "c", "/in", "/out-c", word_mapper, sum_reducer, 2,
            combiner=lambda k, vs: [sum(vs)],
        )
        r_plain = cluster.run_job(plain)
        r_comb = cluster.run_job(combined)
        assert dict(cluster.read_output(plain)) == dict(cluster.read_output(combined))
        assert (
            r_comb.counters.reduce_shuffle_bytes
            < r_plain.counters.reduce_shuffle_bytes
        )

    def test_output_one_file_per_reduce(self, cluster):
        write_input(cluster, self.LINES)
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, num_reduces=4)
        result = cluster.run_job(job)
        assert len(result.output_files) == 4
        assert result.output_files == sorted(result.output_files)

    def test_timelines_recorded(self, cluster):
        write_input(cluster, self.LINES)
        job = HadoopJob("wc", "/in", "/out", word_mapper, sum_reducer, num_reduces=2)
        result = cluster.run_job(job)
        assert len(result.map_timeline.ends) >= 1
        assert len(result.reduce_timeline.ends) == 2
        # the proxy-based shuffle: no reduce starts before the last map ends
        assert min(result.reduce_timeline.starts.values()) >= max(
            result.map_timeline.ends.values()
        )


class TestSchedulingAndFailures:
    def test_map_locality_preferred(self):
        """With replication=3 on 3 nodes every split can run locally."""
        dfs_cluster = MiniDFSCluster(num_nodes=3, block_size=128, replication=3)
        cluster = MiniHadoopCluster(dfs_cluster)
        write_input(cluster, ["x y z"] * 30)
        job = HadoopJob("loc", "/in", "/out", word_mapper, sum_reducer, 1)
        result = cluster.run_job(job)
        assert result.counters.map_locality == 1.0

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
        batch, host = directory.fetch(7, 0)
        assert host == 1 and list(batch.iter_pairs(SERDE)) == [("k", "v")]

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
    c = result.counters
    assert c.map_output_bytes == c.reduce_shuffle_bytes > 0
    assert c.map_output_records == sum(expected.values())
