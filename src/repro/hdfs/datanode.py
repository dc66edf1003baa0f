"""DataNode: replica storage for one simulated host."""

from __future__ import annotations

import threading

from repro.common.errors import HDFSError


class DataNode:
    """In-memory block store; tracks read/write byte counters so resource
    profiling can attribute disk traffic to hosts."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._blocks: dict[int, bytes] = {}
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.bytes_read = 0

    def store(self, block_id: int, data: bytes) -> None:
        with self._lock:
            self._blocks[block_id] = data
            self.bytes_written += len(data)

    def fetch(self, block_id: int) -> bytes:
        with self._lock:
            try:
                data = self._blocks[block_id]
            except KeyError:
                raise HDFSError(
                    f"datanode {self.node_id} has no block {block_id}"
                ) from None
            self.bytes_read += len(data)
            return data

    def drop(self, block_id: int) -> None:
        with self._lock:
            self._blocks.pop(block_id, None)
