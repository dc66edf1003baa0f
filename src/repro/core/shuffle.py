"""O-side shuffle pipeline (§IV-C) over the MPI bipartite model.

A worker process runs no shuffle thread.  The **task thread** runs task
logic, emits pairs into the SPL and itself ships every block a seal
hands it (:meth:`ShuffleService.send_blocks`).  The destination files
each envelope in the RPL of the hosted partition on the thread that
delivers it — the sender's on the thread backend, the wire reader's on
the process backend — through its ``SHUFFLE_TAG`` listener
(:meth:`ShuffleService._deliver`); the A task merges the RPL once, when
it reads it.  The paper's communication threads overlap nothing under
CPython's GIL, so there are none (docs/ARCHITECTURE.md, "Thread model").

A *plane* is one logical exchange (forward O→A, or backward A→O per
Iteration round).  A plane completes when an end-of-stream marker has
arrived from every process; Streaming mode delivers records to per-
partition queues as blocks land.  Every block takes the one path, a
rank's own included.

Coalescing follows the seals alone: blocks bound for one ``(plane,
destination)`` ride in one MPI envelope.  A batch plane's stream leaves
when it reaches ``batch_bytes`` and at the EOS, which folds into its
last envelope; a pipelined plane's streams leave at the end of the call
that touched them, so nothing waits for a later seal.

One message kind travels on ``SHUFFLE_TAG``:
``("batch", plane, (seq, origin, epoch, blocks, eos))`` — envelope
``seq`` of the stream ``origin`` sends this process on ``plane``, from
its incarnation ``epoch``.  A batch at a higher epoch than its stream's
tells the receiver that a reborn ``origin`` restarted the stream from
seq 0 (rank recovery only).

Each stream has one record on each side: :class:`_Outbound` (sender) and
:class:`_Channel` (receiver, the exactly-once rule); neither touches a
thread, queue, tracer or communicator.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import DataMPIError, MPIAbort
from repro.core.buffers import Block, ReceivePartitionList
from repro.core.constants import SHUFFLE_TAG, MPI_D_Constants as K
from repro.core.metrics import phase
from repro.core.modes import default_of
from repro.core.partition import PartitionWindow
from repro.core.sorter import RunStore
from repro.mpi.transport import Envelope, TruncatedPayload
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import RecordBatch
from repro.serde.comparators import Compare
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]

#: sentinels on a streaming partition queue: the plane completed / the
#: world aborted before it could
_STREAM_EOS = object()
_STREAM_ABORT = object()


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
                ),
            )
            for p in owned
        }
        self.streams: dict[int, "queue.SimpleQueue[Any]"] = (
            {p: queue.SimpleQueue() for p in owned} if config.pipelined else {}
        )
        self._eos_seen = 0
        self._eos_expected = config.window.num_processes
        self.complete = threading.Event()
        #: set at completion, or when the world aborted before it
        self._settled = threading.Event()
        self._lock = threading.Lock()
        #: runtime abort latch (set by ShuffleService): what a waiter on a
        #: plane that can no longer complete reports
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
                self._settled.set()
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
        per-partition record order is preserved because deliveries
        enqueue blocks one at a time, in arrival order, and each block
        is unpacked in order here.
        """
        stream = self.streams[partition]
        serializer = self.config.serializer
        while True:
            item = stream.get()
            if item is _STREAM_EOS:
                return
            if item is _STREAM_ABORT:
                raise MPIAbort(message=f"plane {self.plane_id}: aborted before EOS")
            yield from item.iter_pairs(serializer)

    def abort_streams(self) -> None:
        """The world aborted: an open plane will never complete; wake its
        stream consumers and waiters now, not at the plane timeout."""
        if not self.complete.is_set():
            for stream in self.streams.values():
                stream.put(_STREAM_ABORT)
            self._settled.set()

    def wait_complete(self, timeout: float | None = None) -> None:
        """Block until the plane completes; :class:`MPIAbort` (the world's
        reason) as soon as it never will, the timeout error at ``timeout``."""
        if not self._settled.wait(timeout):
            raise DataMPIError(f"plane {self.plane_id}: completion timed out")
        if not self.complete.is_set():
            if self.abort is not None:
                self.abort.check()
            raise MPIAbort(message=f"plane {self.plane_id}: aborted before EOS")

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

    def counts(self) -> dict[str, float]:
        """The three above and the spill seconds, by name (``_RECEIVED``)."""
        return {
            "records_received": self.records_received(),
            "blocks_received": self.blocks_received(),
            "spilled_bytes": self.spilled_bytes(),
            "spill_seconds": sum(r.store.spill_seconds for r in self.rpls.values()),
        }


_RECEIVED = ("records_received", "blocks_received", "spilled_bytes", "spill_seconds")


#: :meth:`_Channel.accept` verdicts for an envelope that applies nothing
DUPLICATE = "duplicate"  # this life of the stream already delivered it
REPLAY = "replay"  # re-sent by a reborn origin; its first life landed whole


class _Outbound:
    """Send-side record of one (plane, dest) stream: the sequence number
    of its next envelope and the blocks coalescing toward it.  Dropped at
    the stream's EOS."""

    __slots__ = ("seq", "blocks", "nbytes")

    def __init__(self) -> None:
        self.seq = 0
        self.blocks: list[Block] = []
        self.nbytes = 0

    def add(self, block: Block) -> None:
        self.blocks.append(block)
        self.nbytes += block.nbytes

    def take(self) -> tuple[int, list[Block], int]:
        """The held blocks leave as envelope ``seq``: (seq, blocks, bytes)."""
        envelope = (self.seq, self.blocks, self.nbytes)
        self.seq, self.blocks, self.nbytes = self.seq + 1, [], 0
        return envelope


class _Channel:
    """Receive-side record of one (plane, origin) stream, and the only
    owner of the exactly-once rule.

    The sequence advances by exactly one: an envelope at or below ``last``
    is a :data:`DUPLICATE`, one beyond ``last + 1`` means a lost envelope
    and raises instead of producing short output.  ``staging`` (rank
    recovery armed) holds accepted blocks until the origin's EOS commits
    the stream whole, so a stream cut short by a death leaves nothing
    half-applied: a :meth:`reset` (a batch at a higher epoch) discards
    it, and once it committed every later envelope is a :data:`REPLAY` —
    a reborn origin need not seal what its first life sealed (FCFS task
    order, the Streaming clock), so a replay never lines up with the
    first life seq by seq.  Without staging blocks are released at
    once, nothing commits.
    """

    __slots__ = ("staging", "epoch", "last", "staged", "committed")

    def __init__(self, staging: bool) -> None:
        self.staging = staging
        self.epoch = 0
        self.last = -1
        self.staged: list[Block] = []
        self.committed = False

    def reset(self, epoch: int) -> bool:
        """A reborn origin restarts the stream from seq 0 at ``epoch``;
        False when that epoch was already seen (a duplicated reset)."""
        if epoch <= self.epoch:
            return False
        self.epoch = epoch
        if not self.committed:
            # the stream died mid-flight: discard the partial staging
            self.staged = []
            self.last = -1
        return True

    def accept(self, seq: int, blocks: list[Block], eos: bool) -> list[Block] | str:
        """Envelope ``seq`` arrived: the blocks to apply now (the caller
        counts the EOS once they are in), or a drop verdict."""
        if self.committed:
            return REPLAY
        if seq <= self.last:
            return DUPLICATE
        if seq != self.last + 1:
            raise DataMPIError(f"lost batch (expected seq {self.last + 1}, got {seq})")
        self.last = seq
        if not self.staging:
            return blocks
        self.staged.extend(blocks)
        if not eos:
            return []
        self.committed = True
        staged, self.staged = self.staged, []
        return staged


def _note(event: str, cat: str, plane_id: str, origin: int, **args: Any) -> None:
    """Trace what the delivery decided about one stream's message."""
    _T.instant(event, cat=cat, args={"plane": plane_id, "origin": origin, **args})


class ShuffleService:
    """The send path of one worker process, and the delivery of what
    every process sends it."""

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
        #: the ``ShufflePlane.counts`` of every dropped plane
        self._dropped: list[dict[str, float]] = []
        self._abort = world.runtime.abort_flag
        #: the open send streams; the sending task's thread is their only user
        self._streams: dict[tuple[str, int], _Outbound] = defaultdict(_Outbound)
        self.batch_bytes = batch_bytes
        self.blocks_sent = 0
        self.bytes_sent = 0
        self.envelopes_sent = 0
        self.duplicates_dropped = 0
        self.replays_dropped = 0
        # rank recovery (process backend): this incarnation's epoch (> 0 after
        # a respawn; every batch names it) and whether channels stage
        self.epoch = world.runtime.rank_epoch
        self.recovery = world.runtime.rank_recovery
        #: the receive side of every stream, by (plane, origin)
        self._channels = defaultdict(lambda: _Channel(self.recovery))
        #: the delivery lock: one envelope is filed at a time, whichever
        #: thread delivers it
        self._lock = threading.Lock()
        with self._lock:
            # what arrived before this service existed (early peers, a
            # reborn rank's redelivered frames) is filed first; a deposit
            # racing in waits here behind it, so each origin keeps its order
            for envelope in world.listen(SHUFFLE_TAG, self._deliver):
                self._file(envelope)
        self._abort.watch(self._abort_planes)

    # -- plane registry -----------------------------------------------------------
    def plane(self, plane_id: str) -> ShufflePlane:
        with self._planes_lock:
            plane = self._planes.get(plane_id)
            if plane is None:
                plane = ShufflePlane(plane_id, self.rank, self._factory(plane_id))
                plane.abort = self._abort
                if self._abort.is_set():
                    plane.abort_streams()  # nothing will ever land on it
                self._planes[plane_id] = plane
            return plane

    def drop(self, plane_id: str) -> None:
        """This rank is done with a completed plane: free its data now, not
        at shutdown, and fold its counts into the service totals.  Its
        channels stay, so a late duplicate or a replayed stream is still
        told apart (and never recreates the plane)."""
        with self._planes_lock:
            plane = self._planes.pop(plane_id, None)
            if plane is None:
                return
            self._dropped.append(plane.counts())
        plane.cleanup()

    def _planes_now(self) -> list[ShufflePlane]:
        """A snapshot: ``plane()`` inserts from the task threads and the
        delivering ones while the pulse thread reads the stats."""
        with self._planes_lock:
            return list(self._planes.values())

    def _abort_planes(self) -> None:
        """The world aborted: no open plane can complete now."""
        for plane in self._planes_now():
            plane.abort_streams()

    # -- send path -------------------------------------------------------------
    def send_blocks(
        self, plane_id: str, blocks: Iterable[Block], eos: bool = False
    ) -> None:
        """Ship sealed blocks on the calling task's thread, a rank's own as
        well; ``eos``: this process finished the plane, and when the call
        returns every stream of it is on the wire.  Raises
        :class:`MPIAbort` (the job is dead) into the sending task."""
        plane = self.plane(plane_id)
        pipelined, owner = plane.config.pipelined, plane.config.window.owner
        streams = self._streams
        for block in blocks:
            dest = owner(block.partition_id)
            out = streams[plane_id, dest]
            out.add(block)
            if out.nbytes >= self.batch_bytes:
                self._transmit((plane_id, dest), out, eos=False)
        if eos:  # nothing more can follow on these streams
            for dest in range(self.nprocs):
                key = (plane_id, dest)
                self._transmit(key, streams.pop(key, None) or _Outbound(), eos=True)
        elif pipelined:  # nothing waits for a later seal
            for dest in range(self.nprocs):
                out = streams.get((plane_id, dest))
                if out is not None and out.blocks:
                    self._transmit((plane_id, dest), out, eos=False)

    def send_block(self, plane_id: str, block: Block) -> None:
        """:meth:`send_blocks` of one block."""
        self.send_blocks(plane_id, (block,))

    def send_eos(self, plane_id: str) -> None:
        """Tell every process this sender finished the plane."""
        self.send_blocks(plane_id, (), eos=True)

    def _transmit(self, key: tuple[str, int], out: _Outbound, eos: bool) -> None:
        """Send the stream's held blocks as its next envelope, as the
        calling thread's communicate time."""
        plane_id, dest = key
        seq, blocks, nbytes = out.take()
        with phase("communicate"):
            trace_t0 = _T.clock() if _T.enabled else 0.0
            batch = ("batch", plane_id, (seq, self.rank, self.epoch, blocks, eos))
            self.world.send(batch, dest=dest, tag=SHUFFLE_TAG)
        self.envelopes_sent += 1
        self.blocks_sent += len(blocks)
        self.bytes_sent += nbytes
        if _T.enabled:
            _T.complete(
                "shuffle.send", trace_t0, _T.clock() - trace_t0, cat="shuffle",
                args={
                    "plane": plane_id, "origin": self.rank, "epoch": self.epoch,
                    "dest": dest, "seq": seq, "blocks": len(blocks),
                    "bytes": nbytes, "eos": eos,
                },
            )
            _T.counter(f"shuffle.r{self.rank}.bytes_sent", self.bytes_sent)

    # -- receive path ------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        """The ``SHUFFLE_TAG`` listener: file one envelope on the thread
        that delivers it, sending nothing but a failed delivery's abort."""
        with self._lock:
            self._file(envelope)

    def _file(self, envelope: Envelope) -> None:
        """Decode one message, ask the stream's :class:`_Channel`, apply
        the answer and trace it (delivery lock held).  A dropped duplicate
        or replay is counted; a lost envelope (a gap) or a
        :class:`TruncatedPayload` marker (wire corruption) fails loudly.
        Any failure aborts the whole world: no peer may be left blocked on
        a plane that cannot complete.  After an abort nothing is filed."""
        if self._abort.is_set():
            return
        message = envelope.payload
        try:
            if isinstance(message, TruncatedPayload):
                raise DataMPIError(f"truncated envelope {message!r}: corrupt data")
            kind, plane_id, payload = message
            if kind != "batch":
                raise DataMPIError(f"unknown shuffle message kind {kind!r}")
            seq, origin, epoch, blocks, eos = payload
            channel = self._channels[plane_id, origin]
            if epoch > channel.epoch:
                # a reborn origin restarted the stream from seq 0
                channel.reset(epoch)
                _note("shuffle.stream_reset", "recovery", plane_id, origin,
                      epoch=epoch, committed=channel.committed)
            trace_t0 = _T.clock() if _T.enabled else 0.0
            try:
                verdict = channel.accept(seq, blocks, eos)
            except DataMPIError:
                expected = channel.last + 1
                _note("shuffle.seq_gap", "shuffle", plane_id, origin,
                      expected=expected, got=seq)
                raise DataMPIError(
                    f"shuffle plane {plane_id}: lost batch from process "
                    f"{origin} (expected seq {expected}, got {seq})"
                ) from None
            if verdict is DUPLICATE:
                self.duplicates_dropped += 1
                _note("shuffle.duplicate_dropped", "shuffle", plane_id, origin, seq=seq)
                return
            if verdict is REPLAY:
                self.replays_dropped += 1
                _note("shuffle.replay_dropped", "recovery", plane_id, origin, seq=seq)
                return
            plane = self.plane(plane_id)  # after the verdict: drop is final
            for block in verdict:
                plane.add_block(block)
            if eos:
                plane.add_eos()
            if _T.enabled and blocks:
                # on the thread backend this span nests in the sender's
                # ``shuffle.send``: ``rank`` names the receiving one.  The
                # exporter links it to that send by the stream coordinates
                _T.complete(
                    "shuffle.recv.batch", trace_t0, _T.clock() - trace_t0,
                    cat="shuffle",
                    args={"plane": plane_id, "origin": origin,
                          "epoch": channel.epoch, "rank": self.rank,
                          "seq": seq, "blocks": len(blocks)},
                )
        except Exception as exc:  # noqa: BLE001 - must abort the world
            self.world.abort(reason=f"shuffle receiver rank {self.rank}: {exc!r}")

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop listening (later arrivals queue in the mailbox) and drop
        every plane's data."""
        with self._lock:
            self.world.listen(SHUFFLE_TAG, None)
            for plane in self._planes_now():
                plane.cleanup()

    def stats(self) -> dict[str, float]:
        """The counters by :class:`~repro.core.metrics.Counters` field
        name, and ``spill_seconds``: the seconds the delivering threads
        spent writing this process's spills (an overlay phase).  The
        planes' ``counts`` are summed over the live and dropped ones, read
        under one lock so a drop never counts twice or not at all."""
        with self._planes_lock:
            counts = [p.counts() for p in self._planes.values()] + self._dropped
        return {
            "blocks_sent": self.blocks_sent,
            "bytes_sent": self.bytes_sent,
            "envelopes_sent": self.envelopes_sent,
            **{name: sum(c[name] for c in counts) for name in _RECEIVED},
            "duplicates_dropped": self.duplicates_dropped,
            "replays_dropped": self.replays_dropped,
        }
