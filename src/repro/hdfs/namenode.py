"""NameNode: namespace and block placement.

Placement follows HDFS's default policy in a rack-unaware cluster: the
first replica lands on the writer's node (when it runs a DataNode), the
remaining replicas on distinct randomly-chosen other nodes.  A
deterministic RNG keeps test runs reproducible.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.common.errors import HDFSError


@dataclass(frozen=True)
class BlockInfo:
    """One block of a file."""

    block_id: int
    size: int
    locations: tuple[int, ...]  # datanode ids holding replicas


@dataclass
class FileMeta:
    """Namespace entry for one file."""

    path: str
    blocks: list[BlockInfo] = field(default_factory=list)
    complete: bool = False

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)


class NameNode:
    """Namespace + placement authority."""

    def __init__(
        self,
        num_datanodes: int,
        block_size: int,
        replication: int = 1,
        seed: int = 17,
    ) -> None:
        if num_datanodes < 1:
            raise HDFSError("need at least one datanode")
        if replication < 1:
            raise HDFSError("replication must be >= 1")
        self.num_datanodes = num_datanodes
        self.block_size = block_size
        self.replication = min(replication, num_datanodes)
        self._files: dict[str, FileMeta] = {}
        self._next_block = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    # -- namespace -------------------------------------------------------------
    def create(self, path: str, overwrite: bool = False) -> FileMeta:
        with self._lock:
            if path in self._files and not overwrite:
                raise HDFSError(f"file exists: {path}")
            meta = FileMeta(path)
            self._files[path] = meta
            return meta

    def complete_file(self, path: str) -> None:
        with self._lock:
            self._meta(path).complete = True

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._files

    def delete(self, path: str) -> list[BlockInfo]:
        """Remove a file; returns its blocks so the client can free them."""
        with self._lock:
            meta = self._files.pop(path, None)
            return list(meta.blocks) if meta else []

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            if dst in self._files:
                raise HDFSError(f"destination exists: {dst}")
            meta = self._files.pop(src, None)
            if meta is None:
                raise HDFSError(f"no such file: {src}")
            meta.path = dst
            self._files[dst] = meta

    def listdir(self, prefix: str) -> list[str]:
        """All file paths under ``prefix`` (path-component aware)."""
        prefix = prefix.rstrip("/")
        with self._lock:
            return sorted(
                p
                for p in self._files
                if p == prefix or p.startswith(prefix + "/")
            )

    def file_meta(self, path: str) -> FileMeta:
        with self._lock:
            return self._meta(path)

    def _meta(self, path: str) -> FileMeta:
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None

    # -- placement -------------------------------------------------------------
    def allocate_block(self, path: str, size: int, writer_node: int | None) -> BlockInfo:
        """Allocate one block: writer-local first replica, random others."""
        with self._lock:
            meta = self._meta(path)
            if meta.complete:
                raise HDFSError(f"file is closed: {path}")
            locations: list[int] = []
            if writer_node is not None and 0 <= writer_node < self.num_datanodes:
                locations.append(writer_node)
            others = [n for n in range(self.num_datanodes) if n not in locations]
            self._rng.shuffle(others)
            locations.extend(others[: self.replication - len(locations)])
            block = BlockInfo(self._next_block, size, tuple(locations))
            self._next_block += 1
            meta.blocks.append(block)
            return block

    def get_block_locations(self, path: str) -> list[BlockInfo]:
        """The locality map used by data-centric task scheduling."""
        with self._lock:
            return list(self._meta(path).blocks)

    # -- reports ----------------------------------------------------------------
    def total_bytes(self, prefix: str = "") -> int:
        with self._lock:
            return sum(
                meta.size
                for path, meta in self._files.items()
                if path.startswith(prefix)
            )
