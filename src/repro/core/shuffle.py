"""O-side shuffle pipeline (§IV-C) over the MPI bipartite model.

Per worker process:

* the **main thread** runs task logic and emits pairs into the SPL;
* the **communication (sender) thread** drains sealed blocks from a send
  queue and pushes them to the owning process with MPI point-to-point;
* the **receiver thread** accepts blocks from every peer, caching them
  in the RPL of the hosted partition — so computation and copy overlap;
  the A task merges its partition once, when it reads it (CPython's GIL
  leaves a background merge thread nothing to overlap with).

A *plane* is one logical exchange (forward O→A, or backward A→O per
Iteration round).  A plane completes when an end-of-stream marker has
arrived from every process; Streaming mode delivers records to per-
partition queues as blocks land instead of waiting for completion.

The sender thread *coalesces*: consecutive sealed blocks bound for the
same ``(plane, destination)`` ride in one MPI envelope (size-capped by
``batch_bytes``), and the per-plane EOS marker folds into the last batch
for each destination instead of costing ``nprocs`` extra messages.
Batches flush when the send queue runs dry, so an idle pipeline never
holds data back.
"""

from __future__ import annotations

import queue
import threading
from time import monotonic as _now
from typing import Any, Callable, Iterator

from repro.common.errors import DataMPIError, MPIAbort
from repro.core.buffers import Block, ReceivePartitionList
from repro.core.constants import SHUFFLE_TAG, MPI_D_Constants as K
from repro.core.modes import default_of
from repro.core.partition import PartitionWindow
from repro.core.sorter import RunStore
from repro.mpi.datatypes import ANY_SOURCE
from repro.mpi.transport import TruncatedPayload
from repro.obs.tracer import TRACER as _T, flow_id as _flow_id
from repro.serde.batch import RecordBatch
from repro.serde.comparators import Compare
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]

#: sentinel ending a streaming partition queue
_STREAM_EOS = object()


class PlaneConfig:
    """Everything a plane needs to build its receive side."""

    def __init__(
        self,
        num_partitions: int,
        window: PartitionWindow,
        cmp: Compare | None,
        serializer: Serializer,
        spill_dir: str,
        memory_budget: int,
        merge_threshold_blocks: int | None = None,
        pipelined: bool = False,
        compress_spills: bool = False,
    ) -> None:
        """``merge_threshold_blocks`` is inert (nothing merges eagerly);
        the slot stays because the frozen ``bench/replay.py`` fills it
        positionally, and goes with the next benchmark revision."""
        self.num_partitions = num_partitions
        self.window = window
        self.cmp = cmp
        self.serializer = serializer
        self.spill_dir = spill_dir
        self.memory_budget = memory_budget
        self.pipelined = pipelined
        self.compress_spills = compress_spills


class ShufflePlane:
    """Receive-side state of one exchange on one process."""

    def __init__(self, plane_id: str, process_rank: int, config: PlaneConfig) -> None:
        self.plane_id = plane_id
        self.config = config
        owned = config.window.owned_by(process_rank)
        budget_each = max(1, config.memory_budget // max(1, len(owned)))
        self.rpls: dict[int, ReceivePartitionList] = {
            p: ReceivePartitionList(
                p,
                config.cmp,
                RunStore(
                    config.cmp,
                    config.serializer,
                    config.spill_dir,
                    budget_each,
                    stem=f"{plane_id}-p{p}",
                    compress_spills=config.compress_spills,
                ),
            )
            for p in owned
        }
        self.streams: dict[int, "queue.Queue[Any]"] = (
            {p: queue.Queue() for p in owned} if config.pipelined else {}
        )
        self._eos_seen = 0
        self._eos_expected = config.window.num_processes
        self.complete = threading.Event()
        self._lock = threading.Lock()
        #: runtime abort latch (set by ShuffleService); lets waiters unwind
        #: promptly when the world dies instead of sitting out the timeout
        self.abort = None

    def add_block(self, block: Block) -> None:
        rpl = self.rpls.get(block.partition_id)
        if rpl is None:
            raise DataMPIError(
                f"plane {self.plane_id}: received partition {block.partition_id}"
                " not owned by this process (Partition Window mismatch)"
            )
        # a pipelined plane delivers through the stream queue alone: the
        # RPL counts the block but stores nothing, so an unbounded stream
        # retains no history and never spills data nobody will read
        rpl.add_block(block, retain=not self.config.pipelined)
        if self.config.pipelined:
            # one queue op per block, not per record; stream_iter unpacks
            self.streams[block.partition_id].put(block.records)

    def add_eos(self) -> None:
        with self._lock:
            self._eos_seen += 1
            if self._eos_seen > self._eos_expected:
                raise DataMPIError(f"plane {self.plane_id}: extra EOS marker")
            if self._eos_seen == self._eos_expected:
                for stream in self.streams.values():
                    stream.put(_STREAM_EOS)
                self.complete.set()
                if _T.enabled:
                    _T.instant(
                        "plane.complete", cat="shuffle",
                        args={"plane": self.plane_id},
                    )

    # -- consumption -----------------------------------------------------------
    def merged_iter(self, partition: int) -> Iterator[KV]:
        """Post-completion ordered iterator for one partition."""
        if not self.complete.is_set():
            raise DataMPIError(
                f"plane {self.plane_id}: partition {partition} read before EOS"
            )
        return self.rpls[partition].merged()

    def merged_batch(self, partition: int) -> "RecordBatch | None":
        """Post-completion partition payload as one contiguous batch.

        ``None`` when the partition spilled to disk; callers fall back to
        :meth:`merged_iter`.
        """
        if not self.complete.is_set():
            raise DataMPIError(
                f"plane {self.plane_id}: partition {partition} read before EOS"
            )
        return self.rpls[partition].merged_batch()

    def stream_iter(self, partition: int) -> Iterator[KV]:
        """Live iterator (Streaming mode): yields pairs as they arrive.

        The queue carries whole sealed batches, decoded lazily here;
        per-partition record order is preserved because the receiver
        thread enqueues blocks in arrival order and each block is
        unpacked in order here.
        """
        stream = self.streams[partition]
        serializer = self.config.serializer
        while True:
            item = stream.get()
            if item is _STREAM_EOS:
                return
            yield from item.iter_pairs(serializer)

    def wait_complete(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else _now() + timeout
        while not self.complete.is_set():
            if self.abort is not None:
                self.abort.check()  # raises MPIAbort once the world died
            slice_ = 0.05
            if deadline is not None:
                remaining = deadline - _now()
                if remaining <= 0:
                    raise DataMPIError(
                        f"plane {self.plane_id}: completion timed out"
                    )
                slice_ = min(slice_, remaining)
            self.complete.wait(slice_)

    def cleanup(self) -> None:
        for rpl in self.rpls.values():
            rpl.cleanup()

    # -- stats ------------------------------------------------------------------
    def records_received(self) -> int:
        return sum(r.records_received for r in self.rpls.values())

    def blocks_received(self) -> int:
        return sum(r.blocks_received for r in self.rpls.values())

    def spilled_bytes(self) -> int:
        return sum(r.store.spilled_bytes for r in self.rpls.values())

    def spill_seconds(self) -> float:
        return sum(r.store.spill_seconds for r in self.rpls.values())


class _Batch:
    """Blocks coalescing toward one (plane, destination) envelope."""

    __slots__ = ("blocks", "nbytes", "eos", "items")

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.nbytes = 0
        self.eos = False
        #: send-queue items folded in (for task_done accounting)
        self.items = 0


class _Channel:
    """Receive-side state of one (plane, origin) stream under rank
    recovery: blocks stage here until the origin's EOS commits them
    atomically, so a stream cut short by a death leaves no half-applied
    contribution behind."""

    __slots__ = ("epoch", "last", "staged", "committed")

    def __init__(self) -> None:
        self.epoch = 0
        self.last = -1
        self.staged: list[Block] = []
        self.committed = False


class ShuffleService:
    """Sender + receiver threads of one worker process."""

    def __init__(
        self,
        world: Any,  # worker Intracomm
        plane_config_factory: Callable[[str], PlaneConfig],
        batch_bytes: int = default_of(K.SHUFFLE_BATCH_BYTES),
    ) -> None:
        self.world = world
        self.rank = world.rank
        self.nprocs = world.size
        self._factory = plane_config_factory
        self._planes: dict[str, ShufflePlane] = {}
        self._planes_lock = threading.Lock()
        self._send_queue: "queue.Queue[tuple | None]" = queue.Queue()
        self.batch_bytes = batch_bytes
        self.blocks_sent = 0
        self.bytes_sent = 0
        self.envelopes_sent = 0
        #: per-(plane, dest) batch sequence numbers; receivers use them to
        #: drop duplicated envelopes and detect lost ones (chaos tolerance)
        self._send_seq: dict[tuple[str, int], int] = {}
        self.duplicates_dropped = 0
        # -- surgical rank recovery (process backend) -----------------------
        # This incarnation's epoch (> 0 after a respawn) and whether the
        # world runs with rank recovery armed.  A reborn sender announces
        # ("reset", plane, (rank, epoch)) ahead of each re-sent stream so
        # receivers can tell a replay from a duplicate; receivers then
        # *stage* each (plane, origin) stream and commit it atomically at
        # that origin's EOS — a stream cut short by a death is discarded
        # wholesale instead of half-applied (coalescing boundaries are
        # nondeterministic, so replayed batches never line up seq-by-seq).
        self.epoch = world.runtime.rank_epoch
        self.recovery = world.runtime.rank_recovery
        self._reset_announced: set[tuple[str, int]] = set()
        self.replays_dropped = 0
        self._sender = threading.Thread(
            target=self._sender_loop, daemon=True, name=f"shuffle-send-{self.rank}"
        )
        self._receiver = threading.Thread(
            target=self._receiver_loop, daemon=True, name=f"shuffle-recv-{self.rank}"
        )
        self._sender.start()
        self._receiver.start()

    # -- plane registry -----------------------------------------------------------
    def plane(self, plane_id: str) -> ShufflePlane:
        with self._planes_lock:
            plane = self._planes.get(plane_id)
            if plane is None:
                plane = ShufflePlane(plane_id, self.rank, self._factory(plane_id))
                plane.abort = self.world.runtime.abort_flag
                self._planes[plane_id] = plane
            return plane

    # -- send path -------------------------------------------------------------
    def send_block(self, plane_id: str, block: Block) -> None:
        """Hand a sealed block to the communication thread."""
        config = self.plane(plane_id).config
        dest = config.window.owner(block.partition_id)
        self._send_queue.put(("block", plane_id, dest, block))

    def send_eos(self, plane_id: str) -> None:
        """Tell every process this sender finished the plane."""
        for dest in range(self.nprocs):
            self._send_queue.put(("eos", plane_id, dest, None))

    def _sender_loop(self) -> None:
        _T.bind(self.rank)  # attribute send spans to this rank's lane
        pending: dict[tuple[str, int], _Batch] = {}
        while True:
            if pending:
                # more batching is only worthwhile while items are already
                # waiting; the moment the queue runs dry, flush everything
                try:
                    item = self._send_queue.get_nowait()
                except queue.Empty:
                    if not self._flush_pending(pending):
                        return  # aborted
                    continue
            else:
                item = self._send_queue.get()
            if item is None:
                self._flush_pending(pending)
                self._send_queue.task_done()
                return
            kind, plane_id, dest, block = item
            key = (plane_id, dest)
            batch = pending.get(key)
            if batch is None:
                pending[key] = batch = _Batch()
            batch.items += 1
            if kind == "block":
                batch.blocks.append(block)
                batch.nbytes += block.nbytes
                if batch.nbytes >= self.batch_bytes:
                    del pending[key]
                    if not self._transmit(key, batch):
                        self._drain_aborted(pending)
                        return
            else:  # eos: nothing more can follow for this (plane, dest)
                batch.eos = True
                del pending[key]
                if not self._transmit(key, batch):
                    self._drain_aborted(pending)
                    return

    def _flush_pending(self, pending: dict[tuple[str, int], _Batch]) -> bool:
        """Transmit every held batch; False when the job aborted."""
        for key in list(pending):
            batch = pending.pop(key)
            if not self._transmit(key, batch):
                self._drain_aborted(pending)
                return False
        return True

    def _transmit(self, key: tuple[str, int], batch: _Batch) -> bool:
        plane_id, dest = key
        seq = self._send_seq.get(key, -1) + 1
        self._send_seq[key] = seq
        trace_t0 = _T.clock() if _T.enabled else 0.0
        try:
            if self.recovery and self.epoch > 0 and key not in self._reset_announced:
                # reborn incarnation: tell the receiver its (plane, origin)
                # channel restarts from seq 0 at this epoch before the
                # first batch of the re-sent stream arrives
                self._reset_announced.add(key)
                self.world.send(
                    ("reset", plane_id, (self.rank, self.epoch)),
                    dest=dest,
                    tag=SHUFFLE_TAG,
                )
            flow = 0
            if _T.enabled:
                # deterministic causal pair: the receiver recomputes the
                # same flow id from (plane>dest, origin, seq), and the
                # pair additionally travels in the envelope header so the
                # link survives the wire even for wildcard receivers.
                # dest is part of the name because seq counts per
                # (plane, dest) channel — without it two same-seq batches
                # from one rank to different receivers would collide.
                channel = f"{plane_id}>{dest}"
                flow = _flow_id(channel, self.rank, seq)
                _T.set_flow(flow, _flow_id(channel, self.rank, seq, domain=1))
            self.world.send(
                ("batch", plane_id, (seq, self.rank, batch.blocks, batch.eos)),
                dest=dest,
                tag=SHUFFLE_TAG,
            )
        except MPIAbort:
            # the job is dead; account the items so drain_sends unblocks
            for _ in range(batch.items):
                self._send_queue.task_done()
            return False
        self.envelopes_sent += 1
        self.blocks_sent += len(batch.blocks)
        self.bytes_sent += batch.nbytes
        if _T.enabled:
            _T.complete(
                "shuffle.send", trace_t0, _T.clock() - trace_t0, cat="shuffle",
                args={
                    "plane": plane_id, "dest": dest, "seq": seq,
                    "blocks": len(batch.blocks), "bytes": batch.nbytes,
                    "eos": batch.eos, "flow_out": flow,
                },
            )
            _T.counter(f"shuffle.r{self.rank}.bytes_sent", self.bytes_sent)
        for _ in range(batch.items):
            self._send_queue.task_done()
        return True

    def _drain_aborted(self, pending: dict[tuple[str, int], _Batch]) -> None:
        """After an abort: release every queued item so joiners unblock."""
        for batch in pending.values():
            for _ in range(batch.items):
                self._send_queue.task_done()
        pending.clear()
        while True:
            try:
                self._send_queue.get_nowait()
            except queue.Empty:
                return
            self._send_queue.task_done()

    # -- receive path ------------------------------------------------------------
    def _receiver_loop(self) -> None:
        """Accept blocks from every peer until shutdown (or abort).

        Batch envelopes carry ``(seq, origin, blocks, eos)``: per
        (plane, origin) the sequence must advance by exactly one, so a
        duplicated envelope (``seq`` already applied) is dropped without
        double-counting records and a lost envelope (a gap) fails loudly
        instead of silently producing short output.  A
        :class:`TruncatedPayload` marker means wire corruption — same
        treatment.  Any receiver-side failure aborts the whole world; a
        dead receiver thread must never leave peers blocked on a plane
        that cannot complete.

        With rank recovery armed, each (plane, origin) stream is
        *staged* and committed atomically at that origin's EOS, and a
        ``("reset", plane, (origin, epoch))`` announcement from a reborn
        sender either discards the partial staging (stream restarts from
        seq 0) or, when the stream already committed, marks the whole
        replay as droppable — a rank's contribution is applied exactly
        once, whole, no matter how many times it dies mid-stream.
        """
        _T.bind(self.rank)  # attribute recv spans to this rank's lane
        last_seq: dict[tuple[str, int], int] = {}
        channels: dict[tuple[str, int], _Channel] = {}
        staging = self.recovery
        while True:
            try:
                message = self.world.recv(source=ANY_SOURCE, tag=SHUFFLE_TAG)
            except MPIAbort:
                return  # job aborted; planes will never complete, that's fine
            flow_in = _T.recv_flow() if _T.enabled else None
            try:
                if isinstance(message, TruncatedPayload):
                    raise DataMPIError(
                        f"shuffle receiver rank {self.rank}: truncated "
                        f"envelope {message!r}; refusing to interpret "
                        "corrupt data"
                    )
                kind, plane_id, payload = message
                if kind == "shutdown":
                    return
                if kind == "reset":
                    origin, epoch = payload
                    key = (plane_id, origin)
                    channel = channels.get(key)
                    if channel is None:
                        channel = channels[key] = _Channel()
                    if epoch > channel.epoch:
                        channel.epoch = epoch
                        if not channel.committed:
                            # stream died mid-flight: discard the partial
                            # staging, the replay restarts from seq 0
                            channel.staged = []
                            channel.last = -1
                        if _T.enabled:
                            _T.instant(
                                "shuffle.stream_reset", cat="recovery",
                                args={"plane": plane_id, "origin": origin,
                                      "epoch": epoch,
                                      "committed": channel.committed},
                            )
                    continue
                if kind != "batch":
                    raise DataMPIError(f"unknown shuffle message kind {kind!r}")
                plane = self.plane(plane_id)
                seq, origin, blocks, eos = payload
                key = (plane_id, origin)
                if staging:
                    channel = channels.get(key)
                    if channel is None:
                        channel = channels[key] = _Channel()
                    if channel.committed:
                        # a replayed stream whose first life already
                        # landed in full: drop it wholesale
                        self.replays_dropped += 1
                        if _T.enabled:
                            _T.instant(
                                "shuffle.replay_dropped", cat="recovery",
                                args={"plane": plane_id, "origin": origin,
                                      "seq": seq},
                            )
                        continue
                    last = channel.last
                else:
                    last = last_seq.get(key, -1)
                if seq <= last:
                    # duplicated envelope: already applied in full
                    self.duplicates_dropped += 1
                    if _T.enabled:
                        _T.instant(
                            "shuffle.duplicate_dropped", cat="shuffle",
                            args={"plane": plane_id, "origin": origin,
                                  "seq": seq},
                        )
                    continue
                if seq != last + 1:
                    if _T.enabled:
                        _T.instant(
                            "shuffle.seq_gap", cat="shuffle",
                            args={"plane": plane_id, "origin": origin,
                                  "expected": last + 1, "got": seq},
                        )
                    raise DataMPIError(
                        f"shuffle plane {plane_id}: lost batch from "
                        f"process {origin} (expected seq {last + 1}, "
                        f"got {seq})"
                    )
                trace_t0 = _T.clock() if _T.enabled else 0.0
                if staging:
                    channel.last = seq
                    channel.staged.extend(blocks)
                    if eos:
                        # commit the whole stream atomically
                        for block in channel.staged:
                            plane.add_block(block)
                        channel.staged = []
                        channel.committed = True
                        plane.add_eos()
                else:
                    last_seq[key] = seq
                    for block in blocks:
                        plane.add_block(block)
                    if eos:
                        plane.add_eos()
                if _T.enabled and blocks:
                    # prefer the pair the envelope header carried; a
                    # path that lost it (direct deposits in unit
                    # tests) falls back to recomputing the same id
                    channel_name = f"{plane_id}>{self.rank}"
                    trace, parent = (
                        flow_in if flow_in is not None
                        else (_flow_id(channel_name, origin, seq),
                              _flow_id(channel_name, origin, seq,
                                       domain=1))
                    )
                    _T.complete(
                        "shuffle.recv.batch", trace_t0,
                        _T.clock() - trace_t0, cat="shuffle",
                        args={"plane": plane_id, "origin": origin,
                              "blocks": len(blocks), "seq": seq,
                              "flow_in": trace, "flow_parent": parent},
                    )
            except MPIAbort:
                return
            except BaseException as exc:  # noqa: BLE001 - must abort the world
                self.world.abort(
                    reason=f"shuffle receiver rank {self.rank}: {exc!r}"
                )
                return

    # -- lifecycle ---------------------------------------------------------------
    def drain_sends(self) -> None:
        """Block until the communication thread emptied the send queue."""
        self._send_queue.join()

    def shutdown(self) -> None:
        self._send_queue.put(None)
        self._sender.join(timeout=10)
        try:
            # self-deliver the receiver stop marker through MPI so it drains
            # everything already enqueued first
            self.world.send(("shutdown", "", None), dest=self.rank, tag=SHUFFLE_TAG)
        except MPIAbort:
            pass  # receiver already unwound via the abort
        self._receiver.join(timeout=10)
        for plane in self._planes.values():
            plane.cleanup()

    def stats(self) -> dict[str, int]:
        return {
            "blocks_sent": self.blocks_sent,
            "bytes_sent": self.bytes_sent,
            "envelopes_sent": self.envelopes_sent,
            "records_received": sum(
                p.records_received() for p in self._planes.values()
            ),
            "blocks_received": sum(
                p.blocks_received() for p in self._planes.values()
            ),
            "spilled_bytes": sum(p.spilled_bytes() for p in self._planes.values()),
            "duplicates_dropped": self.duplicates_dropped,
            "replays_dropped": self.replays_dropped,
        }

    def spill_seconds(self) -> float:
        """Receiver-thread seconds spent writing spills (overlay phase)."""
        return sum(p.spill_seconds() for p in self._planes.values())
