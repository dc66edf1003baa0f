"""Partition-List buffer management (§IV-D, Figure 6).

Send side: a :class:`SendPartitionList` (SPL) holds one staging buffer
per A task.  An emitted pair is framed into its record bytes at the call
and cached in the partition selected by ``MPI_D_PARTITION``; when a
partition crosses the flush threshold it is sealed into a block (sorted
and combined if the mode asks for it), which the sealing task's own
thread ships (``ShuffleService.send_blocks``).

Receive side: a :class:`ReceivePartitionList` (RPL) per hosted partition
files arriving blocks in a :class:`~repro.core.sorter.RunStore`, which
merges them when the A task reads the partition, or before a spill when
the memory budget overflows.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.records import _size_of
from repro.core.metrics import phase
from repro.core.sorter import RunStore, combine_groups, combine_run, sort_block
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import RecordBatch, batch_from_pairs, framer, sort_batch
from repro.serde.comparators import Compare, sorted_order
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]
Combiner = Callable[[Any, list[Any]], Iterable[Any]]


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
    """SPL: per-destination-partition staging buffers.

    Without a combiner the ``add`` that receives a pair frames it into its
    record bytes — ``Send`` owns its bytes when it returns, and a pair that
    cannot be encoded fails that call — and the partition holds the framed
    records, beside their keys when the exchange sorts; its seal is a
    stable sorted index and one join.  Under a combiner a partition holds
    ``key -> [values]`` in arrival order — values *by reference* until the
    seal — so that its seal sorts and combines each *unique* key once
    instead of every record.
    """

    def __init__(
        self,
        num_partitions: int,
        flush_bytes: int,
        cmp: Compare | None,
        combiner: Combiner | None = None,
        *,
        serializer: Serializer,
        raw: bool = False,
        linger: float | None = None,
        now: Callable[[], float] = time.perf_counter,
    ) -> None:
        #: a combiner implies a sorted exchange (DataMPIJob validates it)
        self._grouped = cmp is not None and combiner is not None
        self._held: list[list | dict[Any, list[Any]]] = [
            {} if self._grouped else [] for _ in range(num_partitions)
        ]
        #: the sort keys of the framed records a partition holds
        self._keys: list[list] = [[] for _ in range(num_partitions)]
        #: per partition, the bytes it holds: exact for framed records,
        #: ``kv_bytes`` estimates under a combiner
        self._nbytes = [0] * num_partitions
        self.flush_bytes = flush_bytes
        self.cmp = cmp
        self.combiner = combiner
        #: ``raw`` frames bytes keys/values as they are, without serializer tags
        self.serializer = serializer
        self.raw = raw
        #: Streaming mode bounds a held record's age too: the sending task
        #: reads ``now`` after each pair (``TaskContext._bind_send``) and,
        #: past ``next_seal``, ships ``flush_all("age")``.  Checked only when
        #: the task sends: a task gone silent holds under one ``linger`` of
        #: records until its next send or its end.  ``None``: bytes alone
        self.linger = linger
        self.now = now
        self.next_seal = now() + linger if linger is not None else float("inf")
        self.records_out = 0
        self.bytes_out = 0
        self.combined_away = 0
        if not self._grouped:
            self.add = self._bind_add()

    def add(self, partition: int, key: Any, value: Any) -> Block | None:
        """Cache a pair — the only per-record buffer call; returns a
        sealed block when the partition filled.  This is the combiner's
        ``add``; :meth:`_bind_add` builds the one that frames."""
        held = self._held[partition]
        nbytes = self._nbytes[partition] + _size_of(key) + _size_of(value)
        if type(held) is list:
            held.append((key, value))
        else:
            try:
                values = held.get(key)
                if values is None:
                    held[key] = [value]
                else:
                    values.append(value)
            except TypeError:
                # unhashable key: back to tuples until this block seals;
                # equal keys keep their arrival order, all a stable sort uses
                held = [(k, v) for k, vs in held.items() for v in vs]
                held.append((key, value))
                self._held[partition] = held
        if nbytes >= self.flush_bytes:
            return self._seal(partition, "full")
        self._nbytes[partition] = nbytes

    def _bind_add(self) -> Callable[[int, Any, Any], Block | None]:
        """``add`` without a combiner: frame the pair here, once, and hold
        the record's bytes (a raw sort key is snapshot to ``bytes`` with
        them); the partition flushes on the exact bytes it holds."""
        held, sizes, seal, flush_bytes = (
            self._held, self._nbytes, self._seal, self.flush_bytes)
        keys_of = self._keys if self.cmp is not None else None
        frame, raw = framer(self.serializer, self.raw), self.raw

        def add(partition: int, key: Any, value: Any) -> Block | None:
            record = frame(key, value)
            held[partition].append(record)
            if keys_of is not None:
                keys_of[partition].append(
                    bytes(key) if raw and type(key) is not bytes else key)
            nbytes = sizes[partition] + len(record)
            if nbytes >= flush_bytes:
                return seal(partition, "full")
            sizes[partition] = nbytes

        return add

    def _seal(self, partition: int, cause: str) -> Block:
        held = self._held[partition]
        self._held[partition] = {} if self._grouped else []
        self._nbytes[partition] = 0
        # the paper's "partition-sort" stage: the seal moves the calling
        # thread's lane there itself, whoever triggered it
        with phase("partition-sort"), _T.span(
            "spl.seal", cat="sort", args={"partition": partition, "cause": cause}
        ) as span:
            if not self._grouped:
                before = len(held)
                if self.cmp is not None:
                    keys, self._keys[partition] = self._keys[partition], []
                    held = map(held.__getitem__, sorted_order(keys, self.cmp))
                batch = RecordBatch(b"".join(held), before, self.raw)
            else:
                if type(held) is dict:
                    before = sum(map(len, held.values()))
                    records = combine_groups(held, self.cmp, self.combiner)
                else:  # this block met an unhashable key
                    before = len(held)
                    records = combine_run(sort_block(held, self.cmp), self.combiner)
                batch = batch_from_pairs(records, self.serializer, raw=self.raw)
            span.set("records", batch.count)
        # the encoded block is its own exact byte count
        nbytes = len(batch.data)
        self.records_out += batch.count
        self.bytes_out += nbytes
        self.combined_away += before - batch.count
        return Block(partition, batch, nbytes, sorted=self.cmp is not None)

    def add_batch(self, batch: RecordBatch, boundaries: Sequence[Any]) -> list[Block]:
        """Seal a whole fixed-stride raw batch into sorted blocks, without
        holding it: one :func:`sort_batch`, partition ``i`` the rows whose
        keys are ``<= boundaries[i]`` (``bisect_right``: a key equal to a
        cut belongs below it, as in ``range_partitioner``), each sliced
        into blocks of the records a full partition buffer holds — views of
        the sorted array.  The caller checked the rest: a raw exchange
        under the byte order, no combiner, ``_fixed_stride(batch)``."""
        with phase("partition-sort"), _T.span(
            "spl.seal", cat="sort", args={"cause": "batch"}
        ) as span:
            batch = sort_batch(batch, self.cmp, self.serializer)
            data, n = batch.data, batch.count
            stride, klen = len(data) // n, data[0]
            keys_at = range(1, len(data), stride)  # row i's key starts there
            cuts = [bisect.bisect_right(keys_at, b, key=lambda at: bytes(
                data[at:at + klen])) for b in boundaries]
            per_block = -(-self.flush_bytes // stride)
            blocks = []
            for partition, (lo, end) in enumerate(zip([0, *cuts], [*cuts, n])):
                for start in range(lo, end, per_block):
                    stop = min(start + per_block, end)
                    blocks.append(Block(partition, RecordBatch(
                        data[start * stride:stop * stride], stop - start, True),
                        (stop - start) * stride, sorted=True))
            span.set("records", n)
            span.set("blocks", len(blocks))
        self.records_out += n
        self.bytes_out += len(data)
        return blocks

    def flush_all(self, cause: str = "end") -> list[Block]:
        """Seal every non-empty partition — at the end of the O phase, or
        (``cause="age"``) when the linger ran out — and re-arm the linger."""
        if self.linger is not None:
            self.next_seal = self.now() + self.linger
        return [self._seal(p, cause) for p, held in enumerate(self._held) if held]


class ReceivePartitionList:
    """RPL: arriving blocks for one hosted partition.

    Thread-safe: the delivering thread files blocks under the same lock
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
