"""Mini-Hadoop under constrained slots: waves, big jobs, stress."""

import pytest

from repro.hadoop import HadoopJob, MiniHadoopCluster
from repro.hdfs import MiniDFSCluster


def word_mapper(_k, line, emit):
    for w in line.split():
        emit(w, 1)


def sum_reducer(k, vs, emit):
    emit(k, sum(vs))


class TestSlotWaves:
    def test_reduces_exceed_slots(self):
        """8 reduces on a cluster with 2x1 reduce slots -> 4 waves."""
        dfs_cluster = MiniDFSCluster(num_nodes=2, block_size=256)
        cluster = MiniHadoopCluster(
            dfs_cluster, map_slots_per_node=1, reduce_slots_per_node=1
        )
        dfs_cluster.client(0).write_file(
            "/in/d", ("\n".join(["a b c d e f g h"] * 20) + "\n").encode()
        )
        job = HadoopJob("waves", "/in", "/out", word_mapper, sum_reducer,
                        num_reduces=8)
        result = cluster.run_job(job)
        assert result.success
        assert len(dfs_cluster.client(None).listdir("/out")) == 8
        counts = {k: int(v) for k, v in cluster.read_output(job)}
        assert counts == {w: 20 for w in "abcdefgh"}

    def test_maps_exceed_slots(self):
        dfs_cluster = MiniDFSCluster(num_nodes=2, block_size=64)
        cluster = MiniHadoopCluster(
            dfs_cluster, map_slots_per_node=1, reduce_slots_per_node=1
        )
        text = "\n".join(f"line{i} word" for i in range(60)) + "\n"
        dfs_cluster.client(0).write_file("/in/d", text.encode())
        splits = len(dfs_cluster.namenode.get_block_locations("/in/d"))
        assert splits > 2  # genuinely multiple waves per slot
        job = HadoopJob("mwaves", "/in", "/out", word_mapper, sum_reducer, 2)
        result = cluster.run_job(job)
        assert result.success
        counts = {k: int(v) for k, v in cluster.read_output(job)}
        assert counts["word"] == 60

    def test_sequential_jobs_on_one_cluster(self):
        """The shuffle directory and servers must not leak across jobs."""
        dfs_cluster = MiniDFSCluster(num_nodes=2, block_size=512)
        cluster = MiniHadoopCluster(dfs_cluster)
        dfs_cluster.client(0).write_file("/in/d", b"x y x\n")
        for round_no in range(3):
            job = HadoopJob(
                f"j{round_no}", "/in", f"/out{round_no}",
                word_mapper, sum_reducer, 2,
            )
            result = cluster.run_job(job)
            assert result.success
            counts = {k: int(v) for k, v in cluster.read_output(job)}
            assert counts == {"x": 2, "y": 1}


class TestStress:
    def test_thousands_of_records_through_tiny_buffers(self, map_spills):
        dfs_cluster = MiniDFSCluster(num_nodes=3, block_size=1024)
        cluster = MiniHadoopCluster(dfs_cluster)
        lines = [f"w{i % 37} w{i % 11} w{i % 7}" for i in range(1500)]
        dfs_cluster.client(0).write_file(
            "/in/d", ("\n".join(lines) + "\n").encode()
        )
        job = HadoopJob(
            "stress", "/in", "/out", word_mapper, sum_reducer, 4,
            sort_buffer_bytes=2048,  # force many spills
        )
        result = cluster.run_job(job)
        assert result.success
        assert len(map_spills) > 10
        counts = {k: int(v) for k, v in cluster.read_output(job)}
        assert sum(counts.values()) == 4500

    def test_counters_conserve_records(self):
        dfs_cluster = MiniDFSCluster(num_nodes=2, block_size=512)
        cluster = MiniHadoopCluster(dfs_cluster)
        dfs_cluster.client(0).write_file(
            "/in/d", ("\n".join(["k v"] * 100) + "\n").encode()
        )
        job = HadoopJob("cons", "/in", "/out", word_mapper, sum_reducer, 3)
        m = cluster.run_job(job).metrics
        emitted = sum(t.records_emitted for t in m.tasks if t.kind == "O")
        # without a combiner, every map output reaches exactly one reducer
        assert emitted == m.records_received == 200
