"""DFS client: streaming writers/readers with locality-aware reads."""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import HDFSError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import BlockInfo, NameNode


class DFSOutputStream:
    """Buffers written bytes and cuts them into blocks at block_size."""

    def __init__(self, client: "DFSClient", path: str) -> None:
        self._client = client
        self._path = path
        self._buffer = bytearray()
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise HDFSError(f"stream closed: {self._path}")
        block_size, buffer = self._client.namenode.block_size, self._buffer
        with memoryview(data) as view:
            start = 0
            if buffer:  # complete the block an earlier write began
                start = min(block_size - len(buffer), len(view))
                buffer += view[:start]
                if len(buffer) < block_size:
                    return
                self._flush_block(bytes(buffer))
                buffer.clear()
            # whole blocks are cut from ``data`` itself; only a tail waits
            whole = start + (len(view) - start) // block_size * block_size
            for lo in range(start, whole, block_size):
                self._flush_block(bytes(view[lo:lo + block_size]))
            buffer += view[whole:]

    def _flush_block(self, data: bytes) -> None:
        block = self._client.namenode.allocate_block(
            self._path, len(data), self._client.node_id
        )
        for node in block.locations:
            self._client.datanodes[node].store(block.block_id, data)

    def close(self) -> None:
        if self._closed:
            return
        if self._buffer:
            self._flush_block(bytes(self._buffer))
            self._buffer.clear()
        self._client.namenode.complete_file(self._path)
        self._closed = True

    def __enter__(self) -> "DFSOutputStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DFSClient:
    """Client bound to one host (``node_id``), like a task's JVM.

    ``node_id=None`` models an off-cluster client: writes place no local
    replica and reads are never local.
    """

    def __init__(
        self,
        namenode: NameNode,
        datanodes: list[DataNode],
        node_id: int | None = None,
    ) -> None:
        self.namenode = namenode
        self.datanodes = datanodes
        self.node_id = node_id
        #: reads served from this client's own node (locality accounting)
        self.local_reads = 0
        self.remote_reads = 0

    # -- writes -----------------------------------------------------------------
    def create(self, path: str, overwrite: bool = False) -> DFSOutputStream:
        self.namenode.create(path, overwrite=overwrite)
        return DFSOutputStream(self, path)

    def write_file(self, path: str, data: bytes, overwrite: bool = False) -> None:
        with self.create(path, overwrite=overwrite) as stream:
            stream.write(data)

    # -- reads ------------------------------------------------------------------
    def _pick_replica(self, block: BlockInfo) -> int:
        """Prefer the local replica — the data-centric principle in action."""
        if self.node_id is not None and self.node_id in block.locations:
            self.local_reads += 1
            return self.node_id
        self.remote_reads += 1
        return block.locations[0]

    def read_block(self, block: BlockInfo) -> bytes:
        node = self._pick_replica(block)
        return self.datanodes[node].fetch(block.block_id)

    def read_file(self, path: str) -> bytes:
        return b"".join(self.iter_blocks(path))

    def iter_blocks(self, path: str) -> Iterator[bytes]:
        for block in self.namenode.get_block_locations(path):
            yield self.read_block(block)

    def read_blocks(self, path: str, indices: list[int]) -> bytes:
        """Read a subset of a file's blocks (an input split)."""
        blocks = self.namenode.get_block_locations(path)
        return b"".join(self.read_block(blocks[i]) for i in indices)

    # -- namespace passthroughs ---------------------------------------------------
    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def listdir(self, prefix: str) -> list[str]:
        return self.namenode.listdir(prefix)

    def delete(self, path: str) -> None:
        for block in self.namenode.delete(path):
            for node in block.locations:
                self.datanodes[node].drop(block.block_id)

    def rename(self, src: str, dst: str) -> None:
        self.namenode.rename(src, dst)

    def file_size(self, path: str) -> int:
        return self.namenode.file_meta(path).size
