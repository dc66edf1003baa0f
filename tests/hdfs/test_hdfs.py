"""Tests for the mini-HDFS substrate."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import HDFSError
from repro.hdfs import MiniDFSCluster
from repro.hdfs.namenode import NameNode


@pytest.fixture()
def cluster():
    return MiniDFSCluster(num_nodes=4, block_size=100, replication=2)


class TestReadWrite:
    def test_roundtrip_small(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/a", b"hello world")
        assert dfs.read_file("/a") == b"hello world"

    def test_roundtrip_multiblock(self, cluster):
        dfs = cluster.client(1)
        payload = bytes(range(256)) * 10  # 2560 B -> 26 blocks of 100
        dfs.write_file("/big", payload)
        assert dfs.read_file("/big") == payload
        assert len(cluster.namenode.get_block_locations("/big")) == 26

    def test_block_sizes(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/f", b"x" * 250)
        sizes = [b.size for b in cluster.namenode.get_block_locations("/f")]
        assert sizes == [100, 100, 50]

    def test_empty_file(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/empty", b"")
        assert dfs.read_file("/empty") == b""
        assert dfs.file_size("/empty") == 0

    def test_streaming_write(self, cluster):
        dfs = cluster.client(0)
        with dfs.create("/stream") as out:
            for i in range(10):
                out.write(bytes([i]) * 37)
        assert dfs.read_file("/stream") == b"".join(bytes([i]) * 37 for i in range(10))

    def test_write_after_close_raises(self, cluster):
        dfs = cluster.client(0)
        stream = dfs.create("/f")
        stream.close()
        with pytest.raises(HDFSError):
            stream.write(b"more")

    def test_read_subset_of_blocks(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/f", b"A" * 100 + b"B" * 100 + b"C" * 100)
        assert dfs.read_blocks("/f", [0, 2]) == b"A" * 100 + b"C" * 100

    @settings(max_examples=40, deadline=None)
    @given(payload=st.binary(max_size=300), cuts=st.lists(st.integers(0, 10**6)))
    def test_split_writes_cut_the_blocks_of_one_write(self, payload, cuts):
        """Writes split anywhere give the blocks one write gives: sizes,
        ids, replica placement and bytes."""
        def written(pieces):
            cluster = MiniDFSCluster(num_nodes=4, block_size=16, replication=2)
            with cluster.client(1).create("/p") as out:
                for piece in pieces:
                    out.write(piece)
            return [(b.block_id, b.size, b.locations,
                     [cluster.datanodes[n].fetch(b.block_id) for n in b.locations])
                    for b in cluster.namenode.get_block_locations("/p")]

        edges = [0, *sorted(c % (len(payload) + 1) for c in cuts), len(payload)]
        pieces = [payload[lo:hi] for lo, hi in zip(edges, edges[1:])]
        blocks = written(pieces)
        assert blocks == written([payload])
        assert b"".join(replicas[0] for *_, replicas in blocks) == payload
        assert {len(set(replicas)) for *_, replicas in blocks} <= {1}

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(max_size=1000))
    def test_roundtrip_property(self, payload):
        dfs = MiniDFSCluster(num_nodes=3, block_size=64).client(0)
        dfs.write_file("/p", payload)
        assert dfs.read_file("/p") == payload


class TestPut:
    """``put`` (copyFromLocal) reads block by block and stores each read
    as the block; the file it makes is the one ``write_file`` makes."""

    @staticmethod
    def _blocks(cluster, path):
        return [(b.block_id, b.size, b.locations,
                 [cluster.datanodes[n].fetch(b.block_id) for n in b.locations])
                for b in cluster.namenode.get_block_locations(path)]

    @pytest.mark.parametrize("size", [0, 99, 300, 350])
    def test_put_makes_the_blocks_write_file_makes(self, tmp_path, size):
        """Empty, under a block, whole blocks, whole blocks and a tail."""
        payload = (bytes(range(251)) * 2)[:size]
        local = tmp_path / "part"
        local.write_bytes(payload)
        put, written = (MiniDFSCluster(num_nodes=4, block_size=100, replication=2)
                        for _ in range(2))
        put.client(1).put(str(local), "/f")
        written.client(1).write_file("/f", payload)
        assert self._blocks(put, "/f") == self._blocks(written, "/f")
        assert put.client(None).read_file("/f") == payload
        assert put.namenode.file_meta("/f").size == size

    def test_put_refuses_an_existing_path_unless_told(self, cluster, tmp_path):
        local = tmp_path / "part"
        local.write_bytes(b"x" * 150)
        dfs = cluster.client(0)
        dfs.write_file("/f", b"old")
        with pytest.raises(HDFSError):
            dfs.put(str(local), "/f")
        dfs.put(str(local), "/f", overwrite=True)
        assert dfs.read_file("/f") == b"x" * 150

    def test_a_whole_block_of_bytes_is_stored_as_is(self, cluster):
        block = b"b" * 100
        with cluster.client(0).create("/f") as out:
            out.write(block)
        (info,) = cluster.namenode.get_block_locations("/f")
        assert all(cluster.datanodes[n].fetch(info.block_id) is block
                   for n in info.locations)

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_a_mutable_buffer_is_copied(self, cluster, kind):
        """The caller may reuse what it wrote."""
        buffer = bytearray(b"m" * 100)
        with cluster.client(0).create("/f") as out:
            out.write(kind(buffer))
        buffer[:] = b"z" * 100
        assert cluster.client(0).read_file("/f") == b"m" * 100


class TestPlacementAndLocality:
    def test_writer_local_first_replica(self, cluster):
        dfs = cluster.client(2)
        dfs.write_file("/local", b"z" * 300)
        for block in cluster.namenode.get_block_locations("/local"):
            assert block.locations[0] == 2

    def test_replication_factor(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/r", b"z" * 100)
        block = cluster.namenode.get_block_locations("/r")[0]
        assert len(block.locations) == 2
        assert len(set(block.locations)) == 2

    def test_replication_capped_by_cluster_size(self):
        cluster = MiniDFSCluster(num_nodes=2, block_size=10, replication=5)
        dfs = cluster.client(0)
        dfs.write_file("/f", b"ab")
        assert len(cluster.namenode.get_block_locations("/f")[0].locations) == 2

    def test_local_read_preference(self, cluster):
        writer = cluster.client(3)
        writer.write_file("/pref", b"q" * 100)
        local_reader = cluster.client(3)
        local_reader.read_file("/pref")
        assert local_reader.local_reads == 1 and local_reader.remote_reads == 0
        # a client on a node without a replica must read remotely
        block = cluster.namenode.get_block_locations("/pref")[0]
        outsider = next(n for n in range(4) if n not in block.locations)
        remote_reader = cluster.client(outsider)
        remote_reader.read_file("/pref")
        assert remote_reader.remote_reads == 1

    def test_off_cluster_client(self, cluster):
        dfs = cluster.client(None)
        dfs.write_file("/off", b"x" * 100)
        dfs.read_file("/off")
        assert dfs.remote_reads == 1

    def test_placement_spreads_over_nodes(self):
        cluster = MiniDFSCluster(num_nodes=8, block_size=10, replication=2)
        dfs = cluster.client(0)
        for i in range(40):
            dfs.write_file(f"/f{i}", b"0123456789")
        counts = Counter(
            node
            for i in range(40)
            for block in cluster.namenode.get_block_locations(f"/f{i}")
            for node in block.locations
        )
        # node 0 holds every first replica; others share the seconds
        assert counts[0] == 40
        assert sum(counts[n] for n in range(1, 8)) == 40
        assert max(counts[n] for n in range(1, 8)) < 20  # not all on one node

    def test_locality_map(self, cluster):
        dfs = cluster.client(1)
        dfs.write_file("/lm", b"z" * 250)
        lm = cluster.locality_map("/lm")
        assert [i for i, _ in lm] == [0, 1, 2]
        assert all(1 in nodes for _, nodes in lm)


class TestNamespace:
    def test_exists_and_delete(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/d", b"x" * 150)
        assert dfs.exists("/d")
        blocks_before = sum(len(dn._blocks) for dn in cluster.datanodes)
        dfs.delete("/d")
        assert not dfs.exists("/d")
        assert sum(len(dn._blocks) for dn in cluster.datanodes) < blocks_before

    def test_create_existing_raises(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/dup", b"1")
        with pytest.raises(HDFSError):
            dfs.create("/dup")

    def test_overwrite_allowed(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/ow", b"old")
        dfs.write_file("/ow", b"new", overwrite=True)
        assert dfs.read_file("/ow") == b"new"

    def test_rename(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/src", b"payload")
        dfs.rename("/src", "/dst")
        assert not dfs.exists("/src")
        assert dfs.read_file("/dst") == b"payload"

    def test_rename_to_existing_raises(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/a1", b"1")
        dfs.write_file("/a2", b"2")
        with pytest.raises(HDFSError):
            dfs.rename("/a1", "/a2")

    def test_listdir_prefix_semantics(self, cluster):
        dfs = cluster.client(0)
        for path in ["/job/out/part-0", "/job/out/part-1", "/job/other", "/jobx"]:
            dfs.write_file(path, b"d")
        assert dfs.listdir("/job/out") == ["/job/out/part-0", "/job/out/part-1"]
        assert dfs.listdir("/job") == [
            "/job/other",
            "/job/out/part-0",
            "/job/out/part-1",
        ]
        # /jobx must not match prefix /job
        assert "/jobx" not in dfs.listdir("/job")

    def test_read_missing_raises(self, cluster):
        with pytest.raises(HDFSError):
            cluster.client(0).read_file("/nothing")

    def test_namenode_validation(self):
        with pytest.raises(HDFSError):
            NameNode(num_datanodes=0, block_size=10)
        with pytest.raises(HDFSError):
            NameNode(num_datanodes=1, block_size=10, replication=0)

    def test_total_bytes(self, cluster):
        dfs = cluster.client(0)
        dfs.write_file("/t/a", b"x" * 30)
        dfs.write_file("/t/b", b"x" * 70)
        assert cluster.namenode.total_bytes("/t/") == 100
