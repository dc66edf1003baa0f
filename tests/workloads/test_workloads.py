"""Cross-engine workload equivalence tests (the paper's five benchmarks).

Each benchmark runs on DataMPI and on its baseline engine and both must
match an independent reference — the functional-correctness half of the
evaluation (performance shapes are covered by the simulator benches).
"""

import numpy as np
import pytest

from repro.core.constants import MPI_D_Constants as K
from repro.core.partition import range_partitioner
from repro.hadoop import MiniHadoopCluster
from repro.hdfs import MiniDFSCluster
from repro.workloads import (
    generate_graph,
    generate_points,
    generate_stream,
    generate_text,
    kmeans_datampi,
    kmeans_hadoop,
    kmeans_reference,
    pagerank_datampi,
    pagerank_hadoop,
    pagerank_reference,
    sample_boundaries,
    teragen,
    teragen_to_dfs,
    terasort_datampi,
    terasort_hadoop,
    topk_datampi,
    topk_reference,
    topk_s4,
    verify_terasort_output,
    wordcount_datampi,
    wordcount_hadoop,
    wordcount_reference,
)
from repro.workloads.teragen import KEY_LEN, RECORD_LEN
from repro.workloads.wordcount import write_text_to_dfs


class TestTeraGen:
    def test_record_shape(self):
        blob = teragen(10)
        assert len(blob) == 10 * RECORD_LEN

    def test_deterministic(self):
        assert teragen(50, seed=1) == teragen(50, seed=1)
        assert teragen(50, seed=1) != teragen(50, seed=2)

    def test_chunked_generation_consistent(self):
        """Generating in two chunks equals one shot (same seed/start)."""
        whole = teragen(100, seed=9)
        parts = teragen(60, seed=9, start=0) + teragen(40, seed=9, start=60)
        assert whole == parts

    def test_dfs_write_requires_aligned_blocks(self):
        dfs = MiniDFSCluster(num_nodes=1, block_size=150).client(0)
        with pytest.raises(Exception):
            teragen_to_dfs(dfs, "/x", 10)


class TestTeraSort:
    N = 600

    @pytest.fixture()
    def dfs_cluster(self):
        cluster = MiniDFSCluster(num_nodes=4, block_size=50 * RECORD_LEN)
        teragen_to_dfs(cluster.client(0), "/tera/in", self.N)
        return cluster

    def test_datampi_globally_sorted(self, dfs_cluster):
        result = terasort_datampi(
            dfs_cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3, nprocs=4
        )
        assert result.success
        assert verify_terasort_output(dfs_cluster.client(None), "/tera/out", self.N)
        assert result.a_data_locality == 1.0

    @staticmethod
    def _assert_reference_bytes(dfs_cluster, a_tasks=3):
        """Part ``i`` holds exactly the records ``range_partitioner``
        assigns to partition ``i``, key-sorted.  The boundaries are sampled
        input keys, so some record's key equals each one: a partition
        split that sends it a part too high still concatenates to the
        sorted input, and only a per-part comparison sees it."""
        dfs = dfs_cluster.client(None)
        blob = dfs.read_file("/tera/in")
        records = [blob[i : i + RECORD_LEN] for i in range(0, len(blob), RECORD_LEN)]
        partition = range_partitioner(sample_boundaries(dfs, "/tera/in", a_tasks))
        parts = [[] for _ in range(a_tasks)]
        for record in sorted(records, key=lambda r: r[:KEY_LEN]):
            parts[partition(record[:KEY_LEN], record[KEY_LEN:], a_tasks)].append(record)
        assert [dfs.read_file(p) for p in dfs.listdir("/tera/out")] == [
            b"".join(part) for part in parts]

    # the threads cases keep their ids from before the launcher axis
    @pytest.mark.parametrize("raw, launcher", [
        pytest.param(raw, launcher,
                     id=f"{raw}" if launcher == "threads" else f"{raw}-{launcher}")
        for launcher in ("threads", "processes") for raw in (True, False)
    ])
    def test_datampi_output_is_the_reference_bytes(self, dfs_cluster, raw, launcher):
        """Raw batches feed the part file from the merged partition's
        bytes; Writable-framed ones must be decoded first — same bytes
        either way."""
        result = terasort_datampi(
            dfs_cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3, nprocs=4,
            conf={K.SHUFFLE_RAW: raw, K.LAUNCHER: launcher},
        )
        assert result.success
        self._assert_reference_bytes(dfs_cluster)

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    def test_a_crash_mid_split_restarts_once_into_the_reference_bytes(
        self, dfs_cluster, launcher, tmp_path
    ):
        """The first attempt's O task 1 counts its sends one by one and
        dies inside its second split; the restart replays its checkpoint
        and skips, pair by pair, what the replay already sent."""
        result = terasort_datampi(
            dfs_cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3, nprocs=2,
            conf={K.LAUNCHER: launcher, K.FT_ENABLED: True,
                  K.FT_DIR: str(tmp_path), K.JOB_ID: "terasort-crash",
                  K.JOB_MAX_RESTARTS: 1,
                  K.INJECT_CRASH_TASK: 1, K.INJECT_CRASH_AFTER_RECORDS: 75},
        )
        assert result.success and result.restarts == 1
        self._assert_reference_bytes(dfs_cluster)

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    def test_a_checkpointed_job_persists_every_record(
        self, dfs_cluster, launcher, tmp_path
    ):
        result = terasort_datampi(
            dfs_cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3, nprocs=2,
            conf={K.LAUNCHER: launcher, K.FT_ENABLED: True,
                  K.FT_DIR: str(tmp_path), K.JOB_ID: "terasort-ft"},
        )
        assert result.metrics.checkpointed_records == self.N
        self._assert_reference_bytes(dfs_cluster)

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    @pytest.mark.parametrize("raw", [True, False])
    def test_spilled_partitions_are_the_reference_bytes(
        self, dfs_cluster, raw, launcher
    ):
        """A partition with runs on disk has no merged batch: ``recv_batch``
        declines and the A task writes what ``recv_iter`` hands it."""
        result = terasort_datampi(
            dfs_cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3, nprocs=2,
            conf={K.SHUFFLE_RAW: raw, K.MEMORY_CACHE_BYTES: 4096,
                  K.LAUNCHER: launcher},
        )
        assert result.success and result.metrics.spilled_bytes > 0
        self._assert_reference_bytes(dfs_cluster)

    def test_hadoop_globally_sorted(self, dfs_cluster):
        hadoop = MiniHadoopCluster(dfs_cluster)
        result = terasort_hadoop(hadoop, "/tera/in", "/tera/out-h", num_reduces=3)
        assert result.success
        assert verify_terasort_output(dfs_cluster.client(None), "/tera/out-h", self.N)

    def test_hadoop_pulls_every_map_output_byte_once(self, dfs_cluster):
        hadoop = MiniHadoopCluster(dfs_cluster)
        m = terasort_hadoop(hadoop, "/tera/in", "/tera/out-h", num_reduces=3).metrics
        pulled = sum(t.shuffle_server.bytes_served for t in hadoop.trackers)
        assert m.bytes_sent == pulled > 0

    def test_engines_produce_identical_bytes(self, dfs_cluster):
        terasort_datampi(dfs_cluster, "/tera/in", "/d", o_tasks=2, a_tasks=2, nprocs=2)
        hadoop = MiniHadoopCluster(dfs_cluster)
        terasort_hadoop(hadoop, "/tera/in", "/h", num_reduces=2)
        dfs = dfs_cluster.client(None)
        d_bytes = b"".join(dfs.read_file(p) for p in dfs.listdir("/d"))
        h_bytes = b"".join(dfs.read_file(p) for p in dfs.listdir("/h"))
        assert d_bytes == h_bytes

    def test_sampled_boundaries_are_sorted(self, dfs_cluster):
        bounds = sample_boundaries(dfs_cluster.client(None), "/tera/in", 8)
        assert len(bounds) == 7
        assert bounds == sorted(bounds)

    def test_single_partition_needs_no_boundaries(self, dfs_cluster):
        assert sample_boundaries(dfs_cluster.client(None), "/tera/in", 1) == []


class TestWordCount:
    @pytest.fixture()
    def setup(self):
        lines = generate_text(120)
        cluster = MiniDFSCluster(num_nodes=3, block_size=512)
        write_text_to_dfs(cluster.client(0), "/wc/in", lines)
        return cluster, lines

    def test_datampi_matches_reference(self, setup):
        cluster, lines = setup
        result, counts = wordcount_datampi(cluster, "/wc/in", o_tasks=3, a_tasks=2,
                                           nprocs=3)
        assert result.success
        assert counts == wordcount_reference(lines)

    def test_hadoop_matches_reference(self, setup):
        cluster, lines = setup
        hadoop = MiniHadoopCluster(cluster)
        result, counts = wordcount_hadoop(hadoop, "/wc/in", "/wc/out", num_reduces=2)
        assert result.success
        assert counts == wordcount_reference(lines)

    def test_combiner_active_on_both_engines(self, setup):
        cluster, _ = setup
        result, _ = wordcount_datampi(cluster, "/wc/in", 2, 2, nprocs=2)
        assert result.metrics.combined_away > 0
        hadoop = MiniHadoopCluster(cluster)
        hresult, _ = wordcount_hadoop(hadoop, "/wc/in", "/wc/out2", 2)
        assert hresult.metrics.combined_away > 0

    def test_hadoop_pulls_every_map_output_byte_once(self, setup):
        cluster, _ = setup
        hadoop = MiniHadoopCluster(cluster)
        result, _ = wordcount_hadoop(hadoop, "/wc/in", "/wc/out", num_reduces=2)
        pulled = sum(t.shuffle_server.bytes_served for t in hadoop.trackers)
        assert result.metrics.bytes_sent == pulled > 0


class TestPageRank:
    ROUNDS = 4

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_graph(80, mean_out_degree=4)

    def test_datampi_matches_power_iteration(self, graph):
        reference = pagerank_reference(graph, self.ROUNDS)
        result, ranks = pagerank_datampi(
            graph, self.ROUNDS, o_tasks=3, a_tasks=2, nprocs=3
        )
        assert result.success
        assert set(ranks) == set(reference)
        np.testing.assert_allclose(
            [ranks[n] for n in sorted(graph)],
            [reference[n] for n in sorted(graph)],
            rtol=1e-12,
        )

    def test_hadoop_matches_power_iteration(self, graph):
        reference = pagerank_reference(graph, self.ROUNDS)
        cluster = MiniDFSCluster(num_nodes=3, block_size=2048)
        hadoop = MiniHadoopCluster(cluster)
        results, ranks = pagerank_hadoop(hadoop, graph, self.ROUNDS, num_reduces=2)
        assert all(r.success for r in results)
        assert len(results) == self.ROUNDS  # one MapReduce job per round
        np.testing.assert_allclose(
            [ranks[n] for n in sorted(graph)],
            [reference[n] for n in sorted(graph)],
            rtol=1e-9,
        )

    def test_update_rule_converges_to_networkx(self, graph):
        from repro.workloads.pagerank import pagerank_networkx

        converged = pagerank_reference(graph, rounds=80)
        nx_ranks = pagerank_networkx(graph)
        err = max(abs(converged[n] - nx_ranks[n]) for n in graph)
        # networkx stops at its own tolerance (1e-6 * N scaled), so agree
        # to slightly better than that, not to machine precision
        assert err < 1e-5

    def test_ranks_sum_to_one(self, graph):
        _, ranks = pagerank_datampi(graph, 3, o_tasks=2, a_tasks=2, nprocs=2)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)


class TestKMeans:
    ROUNDS, K = 4, 3

    @pytest.fixture(scope="class")
    def points(self):
        return generate_points(240, self.K)

    def test_datampi_matches_lloyd(self, points):
        reference = kmeans_reference(points, self.K, self.ROUNDS)
        result, centroids = kmeans_datampi(
            points, self.K, self.ROUNDS, o_tasks=3, a_tasks=2, nprocs=3
        )
        assert result.success
        np.testing.assert_allclose(centroids, reference, rtol=1e-10)

    def test_hadoop_matches_lloyd(self, points):
        reference = kmeans_reference(points, self.K, self.ROUNDS)
        cluster = MiniDFSCluster(num_nodes=3, block_size=4096)
        hadoop = MiniHadoopCluster(cluster)
        results, centroids = kmeans_hadoop(
            hadoop, points, self.K, self.ROUNDS, num_reduces=2
        )
        assert all(r.success for r in results)
        np.testing.assert_allclose(centroids, reference, rtol=1e-9)

    def test_empty_cluster_carries_centroid_forward(self):
        """A cluster that loses all members keeps its last centroid, like
        the reference Lloyd loop (regression: it used to zero out)."""
        points = generate_points(600, 5, dims=2, seed=5)
        rounds = 5
        reference = kmeans_reference(points, 5, rounds)
        _, centroids = kmeans_datampi(points, 5, rounds, o_tasks=3,
                                      a_tasks=2, nprocs=3)
        np.testing.assert_allclose(centroids, reference, rtol=1e-10)
        # the seed above genuinely produces an empty cluster: the final
        # centroid set still contains the carried-forward initial point
        assert not np.allclose(centroids[4], 0.0)


class TestTopK:
    K = 8

    @pytest.fixture(scope="class")
    def words(self):
        return generate_stream(1500)

    def test_s4_matches_reference(self, words):
        top, latencies = topk_s4(words, self.K)
        assert top == topk_reference(words, self.K)
        assert len(latencies) == 2 * len(words)  # word event + count update

    def test_datampi_matches_reference(self, words):
        result, top, latencies = topk_datampi(
            words, self.K, o_tasks=2, a_tasks=3, nprocs=3
        )
        assert result.success
        assert top == topk_reference(words, self.K)
        assert len(latencies) == len(words)

    def test_reference_tie_break_deterministic(self):
        words = ["b", "a", "c", "a", "b", "c"]
        assert topk_reference(words, 2) == [("a", 2), ("b", 2)]


class TestProcessBackendParity:
    """The paper workloads must produce identical results when every
    rank is an OS process (``mpi.d.launcher=processes``) instead of a
    thread — outputs travel through files/DFS commits, never through
    driver-memory closures."""

    CONF = {"mpi.d.launcher": "processes"}

    def test_wordcount_matches_reference_on_processes(self):
        cluster = MiniDFSCluster(num_nodes=3)
        lines = generate_text(200)
        write_text_to_dfs(cluster.client(None), "/wc/in", lines)
        result, counts = wordcount_datampi(
            cluster, "/wc/in", o_tasks=3, a_tasks=2, nprocs=3, conf=self.CONF
        )
        assert result.success
        assert counts == wordcount_reference(lines)

    def test_terasort_globally_sorted_on_processes(self):
        cluster = MiniDFSCluster(num_nodes=4, block_size=50 * RECORD_LEN)
        teragen_to_dfs(cluster.client(0), "/tera/in", 400)
        result = terasort_datampi(
            cluster, "/tera/in", "/tera/out", o_tasks=4, a_tasks=3,
            nprocs=4, conf=self.CONF,
        )
        assert result.success
        assert verify_terasort_output(cluster.client(None), "/tera/out", 400)

    def test_kmeans_matches_lloyd_on_processes(self):
        points = generate_points(240, 3)
        reference = kmeans_reference(points, 3, 4)
        result, centroids = kmeans_datampi(
            points, 3, 4, o_tasks=3, a_tasks=2, nprocs=3, conf=self.CONF
        )
        assert result.success
        np.testing.assert_allclose(centroids, reference, rtol=1e-10)
