"""Cross-validation: the DES models vs the *functional* engines.

The simulator's credibility rests on its structural ratios (bytes
shuffled per input byte, spill volumes, locality) matching what the real
mini-engines do.  These tests run the functional engines on small data
and check the invariants the DES hard-codes as profile constants.
"""

import pytest

from repro.hadoop import MiniHadoopCluster
from repro.hdfs import MiniDFSCluster
from repro.simulate.profiles import TERASORT, WORDCOUNT
from repro.workloads import (
    generate_text,
    teragen_to_dfs,
    terasort_datampi,
    terasort_hadoop,
    wordcount_datampi,
    wordcount_hadoop,
)
from repro.workloads.teragen import RECORD_LEN
from repro.workloads.wordcount import write_text_to_dfs


class TestTeraSortRatios:
    """TERASORT profile: map_output_ratio=1.0, reduce_output_ratio=1.0."""

    N = 1200

    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = MiniDFSCluster(num_nodes=4, block_size=100 * RECORD_LEN)
        teragen_to_dfs(cluster.client(0), "/x/in", self.N)
        return cluster

    def test_hadoop_shuffle_equals_input(self, cluster):
        hadoop = MiniHadoopCluster(cluster)
        result = terasort_hadoop(hadoop, "/x/in", "/x/h", num_reduces=3)
        input_bytes = self.N * RECORD_LEN
        # the Writable-framed bytes the maps wrote and the reduces pulled:
        # a length prefix and a type tag per field, a few bytes a record
        # over the raw input
        accounted = sum(t.shuffle_server.bytes_served for t in hadoop.trackers)
        assert accounted == result.metrics.bytes_sent
        assert accounted == pytest.approx(input_bytes * 1.08, rel=0.05)

    def test_hadoop_identity_record_conservation(self, cluster):
        hadoop = MiniHadoopCluster(cluster)
        result = terasort_hadoop(hadoop, "/x/in", "/x/h2", num_reduces=3)
        m = result.metrics
        maps = [t for t in m.tasks if t.kind == "O"]
        reduces = [t for t in m.tasks if t.kind == "A"]
        assert sum(t.records_received for t in maps) == self.N
        assert sum(t.records_emitted for t in maps) == self.N  # identity map
        assert m.records_received == self.N
        assert sum(t.records_emitted for t in reduces) == self.N  # identity reduce

    def test_datampi_output_equals_input_bytes(self, cluster):
        terasort_datampi(cluster, "/x/in", "/x/d", o_tasks=4, a_tasks=3,
                         nprocs=4)
        dfs = cluster.client(None)
        out_bytes = sum(dfs.file_size(p) for p in dfs.listdir("/x/d"))
        assert out_bytes == self.N * RECORD_LEN  # reduce_output_ratio = 1.0

    def test_profile_constants_match(self):
        assert TERASORT.map_output_ratio == 1.0
        assert TERASORT.reduce_output_ratio == 1.0


def _wordcount_shuffle_ratio(block_size: int, num_lines: int = 1000) -> float:
    """Hadoop shuffle bytes per input byte at a given split granularity."""
    lines = generate_text(num_lines, words_per_line=12)
    cluster = MiniDFSCluster(num_nodes=3, block_size=block_size)
    write_text_to_dfs(cluster.client(0), "/w/in", lines)
    input_bytes = cluster.client(None).file_size("/w/in")
    hadoop = MiniHadoopCluster(cluster)
    wordcount_hadoop(hadoop, "/w/in", "/w/h", num_reduces=2)
    shuffled = sum(t.shuffle_server.bytes_served for t in hadoop.trackers)
    return shuffled / input_bytes


class TestWordCountRatios:
    """WORDCOUNT profile: combine collapses the shuffle to a few percent.

    The collapse is per split (the combiner only sees one map's output),
    so the ratio shrinks as splits grow; the DES profile's 0.05 models
    the paper's 256 MB splits over a bounded vocabulary.
    """

    def test_combining_improves_with_split_size(self):
        small_splits = _wordcount_shuffle_ratio(block_size=2048)
        big_splits = _wordcount_shuffle_ratio(block_size=128 * 1024)
        assert big_splits < 0.5 * small_splits

    def test_large_split_ratio_approaches_profile(self):
        ratio = _wordcount_shuffle_ratio(block_size=128 * 1024)
        # one big split: distinct-words x entry-size over the input
        assert ratio < 3 * WORDCOUNT.map_output_ratio

    def test_datampi_combiner_collapse(self):
        lines = generate_text(1000, words_per_line=12)
        cluster = MiniDFSCluster(num_nodes=3, block_size=128 * 1024)
        write_text_to_dfs(cluster.client(0), "/w/in", lines)
        result, _ = wordcount_datampi(cluster, "/w/in", o_tasks=2, a_tasks=2,
                                      nprocs=2)
        total_words = result.metrics.records_sent + result.metrics.combined_away
        # most emissions never cross the wire
        assert result.metrics.combined_away > 0.8 * total_words

    def test_wordcount_shuffles_far_less_than_terasort(self):
        """The relative claim behind 'WordCount has smaller data movement'
        (§V-C) holds in the functional engines, not just the profiles."""
        wc_ratio = _wordcount_shuffle_ratio(block_size=128 * 1024)
        ts_cluster = MiniDFSCluster(num_nodes=3, block_size=100 * RECORD_LEN)
        teragen_to_dfs(ts_cluster.client(0), "/t/in", 600)
        ts_hadoop = MiniHadoopCluster(ts_cluster)
        terasort_hadoop(ts_hadoop, "/t/in", "/t/h", 2)
        ts_shuffled = sum(t.shuffle_server.bytes_served for t in ts_hadoop.trackers)
        ts_ratio = ts_shuffled / (600 * RECORD_LEN)
        assert wc_ratio < 0.3 * ts_ratio
