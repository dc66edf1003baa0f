"""Partition-List buffer management (§IV-D, Figure 6).

Send side: a :class:`SendPartitionList` (SPL) holds one
:class:`DataPartition` per A task.  An emitted pair is cached in the
partition selected by ``MPI_D_PARTITION``; when a partition crosses the
flush threshold it is sealed into a block (sorted and combined if the
mode asks for it) and handed to the communication thread's send queue.

Receive side: a :class:`ReceivePartitionList` (RPL) per hosted partition
files arriving blocks in a :class:`~repro.core.sorter.RunStore`, which
merges them once — when the A task reads the partition, or before a
spill when the memory budget overflows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter as _clock
from typing import Any, Callable, Iterable, Iterator

from repro.common.records import kv_bytes
from repro.core.sorter import RunStore, combine_run, sort_block
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import RecordBatch, batch_from_pairs, sort_batch
from repro.serde.comparators import Compare
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]
Combiner = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass
class DataPartition:
    """Buffered records destined for one A task, with meta information."""

    partition_id: int
    records: list[KV] = field(default_factory=list)
    nbytes: int = 0

    def add(self, key: Any, value: Any) -> None:
        self.records.append((key, value))
        self.nbytes += kv_bytes(key, value)

    def __len__(self) -> int:
        return len(self.records)

    def drain(self) -> list[KV]:
        records, self.records, self.nbytes = self.records, [], 0
        return records


@dataclass(frozen=True)
class Block:
    """A sealed partition block in flight between processes.

    ``records`` is a sealed :class:`~repro.serde.batch.RecordBatch` — one
    contiguous byte payload that every downstream hop (coalescing, wire,
    spill, merge) moves without re-encoding.
    """

    partition_id: int
    records: RecordBatch
    nbytes: int
    sorted: bool

    @property
    def count(self) -> int:
        return len(self.records)

    def serialized_size(self) -> int:
        # payload + header slop, picked up by common.records._size_of
        return self.nbytes + 16


class SendPartitionList:
    """SPL: per-destination-partition staging buffers."""

    def __init__(
        self,
        num_partitions: int,
        flush_bytes: int,
        cmp: Compare | None,
        combiner: Combiner | None = None,
        *,
        serializer: Serializer,
        raw: bool = False,
    ) -> None:
        self.partitions = [DataPartition(p) for p in range(num_partitions)]
        self.flush_bytes = flush_bytes
        self.cmp = cmp
        self.combiner = combiner
        #: seals encode records into one contiguous RecordBatch — the
        #: single serialization point of the datapath; ``raw`` frames
        #: bytes keys/values as they are, without serializer tags
        self.serializer = serializer
        self.raw = raw
        self.records_in = 0
        self.records_out = 0
        self.bytes_out = 0
        self.combined_away = 0
        #: seconds spent sorting/combining inside seals — the engine
        #: subtracts this from task compute time to isolate the paper's
        #: "partition-sort" phase
        self.sort_seconds = 0.0

    def add(self, partition: int, key: Any, value: Any) -> Block | None:
        """Cache a pair; returns a sealed block when the partition filled."""
        part = self.partitions[partition]
        part.add(key, value)
        self.records_in += 1
        if part.nbytes >= self.flush_bytes:
            return self._seal(part)
        return None

    def _seal(self, part: DataPartition) -> Block:
        records = part.drain()
        t0 = _clock()
        if self.cmp is not None:
            records = sort_block(records, self.cmp)
            if self.combiner is not None:
                before = len(records)
                records = combine_run(records, self.combiner)
                self.combined_away += before - len(records)
        batch = batch_from_pairs(records, self.serializer, raw=self.raw)
        dur = _clock() - t0
        self.sort_seconds += dur
        if _T.enabled:
            _T.complete(
                "spl.seal", t0, dur, cat="sort",
                args={"partition": part.partition_id, "records": batch.count},
            )
        # the encoded block is its own exact byte count
        nbytes = len(batch.data)
        self.records_out += batch.count
        self.bytes_out += nbytes
        return Block(
            part.partition_id, batch, nbytes, sorted=self.cmp is not None
        )

    def flush_all(self) -> list[Block]:
        """Seal every non-empty partition (end of the O phase)."""
        blocks = []
        for part in self.partitions:
            if part.records:
                blocks.append(self._seal(part))
        return blocks


class ReceivePartitionList:
    """RPL: arriving blocks for one hosted partition.

    Thread-safe: the receiver thread files blocks under the same lock
    the A task takes to merge and read the partition.
    """

    def __init__(
        self,
        partition_id: int,
        cmp: Compare | None,
        store: RunStore,
        merge_threshold_blocks: int | None = None,
    ) -> None:
        """``merge_threshold_blocks`` is inert: arrivals are never merged
        eagerly.  The slot stays because the frozen ``bench/replay.py``
        fills it positionally; it goes with the next benchmark revision.
        """
        self.partition_id = partition_id
        self.cmp = cmp
        self.store = store
        self.blocks_received = 0
        self.records_received = 0
        self._lock = threading.Lock()

    def add_block(self, block: Block, retain: bool = True) -> None:
        """Count an arriving block and file it in the store — O(1) for a
        sorted block.  ``retain=False`` only counts: a pipelined plane
        hands the block to its stream queue, the sole consumer."""
        with self._lock:
            self.blocks_received += 1
            self.records_received += block.count
            if not retain:
                return
            batch = block.records
            if self.cmp is not None and not block.sorted:
                batch = sort_batch(batch, self.cmp, self.store.serializer)
            self.store.add_run(batch)

    def merged(self) -> Iterator[KV]:
        """Final merged iterator (after the plane completed)."""
        with self._lock:
            return iter(self.store)

    def merged_batch(self) -> "RecordBatch | None":
        """The whole partition as one merged batch, or ``None`` when any
        run is on disk (callers fall back to :meth:`merged`)."""
        with self._lock:
            return self.store.as_batch()

    def cleanup(self) -> None:
        with self._lock:
            self.store.cleanup()
