"""Partition-List buffer management (§IV-D, Figure 6).

Send side: a :class:`SendPartitionList` (SPL) holds one staging buffer
per A task, filled by a task's send core (:meth:`SendPartitionList.bind`);
a partition past the flush threshold is sealed into a block (sorted and
combined if the mode asks for it) that the sending thread ships.

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
from repro.core.partition import Partitioner, hash_partitioner, validate_destination
from repro.core.sorter import RunStore, combine_groups, combine_run, sort_block
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import RecordBatch, batch_from_pairs, framer, sort_batch
from repro.serde.comparators import Compare, sorted_order
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]
Combiner = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass(frozen=True)
class Block:
    """A sealed partition block in flight: ``records`` is one contiguous
    :class:`~repro.serde.batch.RecordBatch` payload that every later hop
    (coalescing, wire, spill, merge) moves without re-encoding."""

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

    Without a combiner a partition holds framed records, beside their keys
    when the exchange sorts; its seal is a stable sorted index and one
    join.  Under a combiner it holds ``key -> [values]`` in arrival order,
    values *by reference*, so that its seal sorts and combines each
    *unique* key once.
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
            {} if self._grouped else [] for _ in range(num_partitions)]
        #: the sort keys of the framed records a partition holds
        self._keys: list[list] = [[] for _ in range(num_partitions)]
        #: per partition, its bytes: exact framed, ``kv_bytes`` combined
        self._nbytes = [0] * num_partitions
        self.flush_bytes = flush_bytes
        self.cmp = cmp
        self.combiner = combiner
        #: ``raw`` frames bytes keys/values as they are, without serializer tags
        self.serializer = serializer
        self.raw = raw
        #: Streaming mode bounds a held record's age too: after each pair
        #: the sending task reads ``now`` and, past ``next_seal``, ships
        #: ``flush_all("age")`` (a silent task holds until its next send or
        #: its end).  ``None``: bytes alone
        self.linger = linger
        self.now = now
        self.next_seal = now() + linger if linger is not None else float("inf")
        self.records_out = 0
        self.bytes_out = 0
        self.combined_away = 0
        #: the memos of the send cores bound to this SPL, emptied by a seal
        self._memos: list[dict] = []
        self._hold = self.bind(None, None, None)

    def add(self, partition: int, key: Any, value: Any) -> Block | None:
        """Cache a pair in ``partition``; returns a sealed block when the
        partition filled: :meth:`bind`'s core with the destination given —
        no partitioner, no count, no memo, no ship."""
        return self._hold(key, value, partition)

    def bind(self, partitioner: Partitioner | None, ship: Callable | None,
             metrics: Any) -> Callable[..., Block | None]:
        """A task's send core: one call per pair that partitions,
        range-checks, counts ``metrics.records_emitted``, holds, sizes,
        seals and ``ship``s.  Without a combiner the pair is framed here,
        once (``Send`` owns its bytes when it returns; a raw sort key is
        snapshot to ``bytes``).  ``core(key, value, dest)`` is :meth:`add`.

        Under a partitioner that reads the key alone (``hash_partitioner``,
        or one carrying ``boundaries``) a key of exact type str, bytes or
        int is partitioned and sized once — a repeat under a combiner is
        one append to its held list.  Exact types: ``1``, ``True`` and
        ``1.0`` are one dict key, not one partition or size.  A seal empties the
        memo, so it holds no key the SPL does not."""
        held, sizes, seal, flush_bytes = (
            self._held, self._nbytes, self._seal, self.flush_bytes)
        grouped, n, raw = self._grouped, len(held), self.raw
        keys_of = self._keys if self.cmp is not None and not grouped else None
        frame = framer(self.serializer, raw)
        #: key -> (partition, and under a combiner its size and held values)
        memo: dict[Any, tuple[int, int, list | None]] = {}
        memo_types = frozenset()
        if partitioner is hash_partitioner or hasattr(partitioner, "boundaries"):
            memo_types = frozenset((str, bytes, int))
            self._memos.append(memo)

        def core(key: Any, value: Any, dest: int | None = None) -> Block | None:
            values = fresh = None
            if dest is None:
                hit = memo.get(key) if type(key) in memo_types else None
                if hit is None:
                    dest = partitioner(key, value, n)
                    if not 0 <= dest < n:
                        validate_destination(dest, n)  # raises, uncounted
                    fresh = type(key) in memo_types
                else:
                    dest, ksize, values = hit
                metrics.records_emitted += 1
            if values is not None:  # a memoized key, held under a combiner
                values.append(value)
                nbytes = sizes[dest] + ksize + _size_of(value)
            elif grouped:
                group, ksize = held[dest], _size_of(key)
                nbytes = sizes[dest] + ksize + _size_of(value)
                if type(group) is dict:
                    try:
                        values = group.get(key)
                        if values is None:
                            values = group[key] = [value]
                        else:
                            values.append(value)
                    except TypeError:
                        # unhashable key: tuples until the seal (a stable
                        # sort keeps equal keys in order); the memo's lists
                        # were the dict's
                        group = [(k, v) for k, vs in group.items() for v in vs]
                        group.append((key, value))
                        held[dest] = group
                        memo.clear()
                else:
                    group.append((key, value))
            else:
                record = frame(key, value)
                held[dest].append(record)
                if keys_of is not None:
                    keys_of[dest].append(
                        bytes(key) if raw and type(key) is not bytes else key)
                ksize, nbytes = 0, sizes[dest] + len(record)
            if fresh:  # held now: the memo stays within what the SPL holds
                memo[key] = (dest, ksize, values)
            if nbytes < flush_bytes:
                sizes[dest] = nbytes
            elif ship is None:
                return seal(dest, "full")
            else:
                ship(seal(dest, "full"))
            return None

        return core

    def _seal(self, partition: int, cause: str) -> Block:
        held = self._held[partition]
        self._held[partition] = {} if self._grouped else []
        self._nbytes[partition] = 0
        for memo in self._memos:
            memo.clear()
        # the paper's "partition-sort" stage, on the sealing thread's lane
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
        """Seal a whole fixed-stride raw batch into sorted blocks, unheld:
        one :func:`sort_batch`; partition ``i`` the rows keyed ``<=
        boundaries[i]`` (``bisect_right``, as in ``range_partitioner``),
        sliced into full-buffer blocks that view the sorted array.  The
        caller checked the exchange (``TaskContext.send_batch``)."""
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
    """RPL: arriving blocks for one hosted partition, filed by the
    delivering thread under the lock the A task takes to read them."""

    def __init__(
        self,
        partition_id: int,
        cmp: Compare | None,
        store: RunStore,
        merge_threshold_blocks: int | None = None,
    ) -> None:
        """``merge_threshold_blocks`` is inert, kept for the frozen
        ``bench/replay.py``, which fills it positionally."""
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
