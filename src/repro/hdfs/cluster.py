"""MiniDFSCluster: one-call assembly of a NameNode + DataNodes."""

from __future__ import annotations

from repro.common.units import MiB
from repro.hdfs.client import DFSClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode


class MiniDFSCluster:
    """A complete in-memory HDFS deployment.

    >>> dfs = MiniDFSCluster(num_nodes=4, block_size=1 * MiB).client(0)
    >>> dfs.write_file("/data/a", b"hello")
    >>> dfs.read_file("/data/a")
    b'hello'
    """

    def __init__(
        self,
        num_nodes: int = 4,
        block_size: int = 4 * MiB,
        replication: int = 1,
        seed: int = 17,
    ) -> None:
        self.namenode = NameNode(
            num_datanodes=num_nodes,
            block_size=block_size,
            replication=replication,
            seed=seed,
        )
        self.datanodes = [DataNode(i) for i in range(num_nodes)]

    @property
    def num_nodes(self) -> int:
        return len(self.datanodes)

    def client(self, node_id: int | None = None) -> DFSClient:
        """A client homed on ``node_id`` (None = off-cluster)."""
        if node_id is not None and not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id {node_id} out of range")
        return DFSClient(self.namenode, self.datanodes, node_id)

    def locality_map(self, path: str) -> list[tuple[int, tuple[int, ...]]]:
        """(block index, replica nodes) for scheduling decisions."""
        return [
            (i, block.locations)
            for i, block in enumerate(self.namenode.get_block_locations(path))
        ]
