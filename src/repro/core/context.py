"""Task execution context: the object behind the MPI_D API calls.

One :class:`TaskContext` per task attempt: its bipartite communicator,
``Send`` through the SPL's send core, ``Recv`` from the task's merged
partition (or its live stream in Streaming mode).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.common.errors import DataMPIError
from repro.core.buffers import SendPartitionList
from repro.core.checkpoint import CheckpointReader, CheckpointWriter
from repro.core.metrics import TaskMetrics
from repro.core.partition import Partitioner, validate_destination
from repro.serde.batch import RecordBatch, _fixed_stride, framer
from repro.serde.comparators import bytes_compare, default_compare

if TYPE_CHECKING:
    from repro.core.shuffle import ShufflePlane, ShuffleService

KV = tuple[Any, Any]


@dataclass(frozen=True)
class BipartiteComm:
    """What ``MPI_D.COMM_BIPARTITE_O`` / ``..._A`` evaluate to in a task.

    ``rank`` is the *task* rank within its communicator and ``size`` the
    total number of tasks there (Table I: naming functions operate on
    tasks, not processes).
    """

    kind: str  # "O" or "A"
    rank: int
    size: int


class TaskContext:
    """Runtime state of one task attempt."""

    def __init__(
        self,
        kind: str,
        task_id: int,
        o_size: int,
        a_size: int,
        round_no: int,
        conf: Any,
        partitioner: Partitioner,
        spl: SendPartitionList | None,
        send_plane_id: str | None,
        shuffle: "ShuffleService | None",
        recv_plane: "ShufflePlane | None",
        pipelined: bool = False,
        state: dict | None = None,
        checkpoint_writer: CheckpointWriter | None = None,
        checkpoint_reader: CheckpointReader | None = None,
        crash_after: int = -1,
        key_class: type | None = None,
        value_class: type | None = None,
    ) -> None:
        self.kind = kind
        self.task_id = task_id
        self.o_size = o_size
        self.a_size = a_size
        self.round = round_no
        self.conf = conf
        self._partitioner = partitioner
        self._spl = spl
        self._send_plane_id = send_plane_id
        self._shuffle = shuffle
        self._recv_plane = recv_plane
        self._pipelined = pipelined
        #: process-local state shared between rounds (Iteration mode): A
        #: tasks stash results the next round's local O task reads
        self.state = state if state is not None else {}
        self._cp_writer = checkpoint_writer
        self._cp_reader = checkpoint_reader
        self._skip_emits = 0
        self._recv_iter: Iterator[KV] | None = None
        self.metrics = TaskMetrics(task_id=task_id, kind=kind)
        self.initialized = self.finalized = False
        #: ``MPI_D_SEND``: no destination — the library partitions (§III-A)
        self.send = self._bind_send(crash_after, key_class, value_class)

    # -- bipartite communicators -------------------------------------------------
    @property
    def comm(self) -> BipartiteComm:
        size = self.o_size if self.kind == "O" else self.a_size
        return BipartiteComm(self.kind, self.task_id, size)

    @property
    def rank(self) -> int:
        return self.task_id

    @property
    def size(self) -> int:
        return self.comm.size

    # -- recovery ------------------------------------------------------------------
    def replay_checkpoint(self) -> int:
        """Resend persisted pairs; the task then skips that many emits.
        Returns the number of reloaded records (Figure 13's "Job Reload
        Checkpoint" phase)."""
        if self._cp_reader is not None:
            for key, value in self._cp_reader.replay():
                self._emit(key, value)
                self._skip_emits += 1
        return self._skip_emits

    # -- send path -------------------------------------------------------------------
    def _bind_send(
        self, crash_after: int, key_class: type | None, value_class: type | None
    ) -> Callable[[Any, Any], None]:
        """Build this task's ``MPI_D_SEND`` once, around the SPL's send
        core (:meth:`SendPartitionList.bind`).  Wrappers go around it only
        where configured, innermost first: the linger check (Streaming);
        the crash/replay counter with the checkpoint write; KEY_CLASS /
        VALUE_CLASS coercion — outside the counter, so a pair it rejects
        raises in every attempt and is never counted."""
        who = f"{self.kind} task {self.task_id}"
        spl, shuffle, plane_id = self._spl, self._shuffle, self._send_plane_id
        #: pairs offered past coercion: the replayed prefix is skipped by it
        self._offered = 0
        writer = self._cp_writer
        linger = getattr(spl, "linger", None)  # the frozen bench's SPL has none
        #: nothing but the counter wraps the core: ``send_batch`` may take
        #: its array pass
        self._batchable = (
            crash_after < 0 and key_class is None and value_class is None
            and linger is None
        )
        if spl is None:
            def send(key: Any, value: Any) -> None:
                raise DataMPIError(f"{who} cannot Send in this mode")
            return send
        partitioner = self._partitioner
        # O sends toward A tasks, A (Iteration mode) back toward O tasks
        n = self.a_size if self.kind == "O" else self.o_size
        if hasattr(spl, "bind"):
            send = spl.bind(partitioner, lambda block: shuffle.send_blocks(
                plane_id, (block,)), self.metrics)
        else:  # the frozen bench's stand-in SPL has only ``add``
            def send(key: Any, value: Any, metrics=self.metrics) -> None:
                spl.add(validate_destination(partitioner(key, value, n), n), key, value)
                metrics.records_emitted += 1
        self._emit = send  # a checkpoint replay resends through the core
        if linger is not None:
            def send(key: Any, value: Any, core=send, now=spl.now) -> None:
                core(key, value)
                if now() >= spl.next_seal:  # the oldest held pair is due
                    shuffle.send_blocks(plane_id, spl.flush_all("age"))
        if crash_after >= 0 or writer is not None or self._cp_reader is not None:
            persist = writer.add if writer is not None else lambda key, value: None
            frame = framer(spl.serializer, spl.raw) if spl.combiner is None else None

            def send(key: Any, value: Any, core=send) -> None:
                if 0 <= crash_after <= self._offered:
                    raise DataMPIError(
                        f"injected crash in {who} after {self._offered} records")
                # the first _skip_emits pairs were resent by replay_checkpoint;
                # a skipped one still runs the core's call-time checks, and a
                # pair any check rejects is never counted
                if self._offered < self._skip_emits:
                    validate_destination(partitioner(key, value, n), n)
                    if frame is not None:
                        frame(key, value)
                else:
                    core(key, value)
                    persist(key, value)
                self._offered += 1
        if key_class is not None or value_class is not None:
            def typed(what: str, obj: Any, cls: type | None) -> Any:
                if cls is None or isinstance(obj, cls):
                    return obj
                try:
                    return cls(obj)
                except (TypeError, ValueError) as exc:
                    raise DataMPIError(
                        f"{who}: {what} {obj!r} is not a {cls.__name__} "
                        f"and cannot be coerced ({exc})") from None

            def send(key: Any, value: Any, checked=send) -> None:
                checked(typed("key", key, key_class),
                        typed("value", value, value_class))
        return send

    def send_batch(self, batch: RecordBatch) -> None:
        """``MPI_D_SEND`` of every (key bytes, value bytes) pair of a raw
        ``batch``, in order.  A fixed-stride batch bound for a range
        partitioner on a raw, uncombined, byte-ordered exchange, past a
        replayed prefix and with nothing but the counter around the send,
        takes one array pass (:meth:`SendPartitionList.add_batch`; a
        checkpoint adds its bytes whole); else ``batch.count`` sends."""
        spl = self._spl
        boundaries = getattr(self._partitioner, "boundaries", None)
        n = self.a_size if self.kind == "O" else self.o_size
        if (
            self._batchable and self._offered >= self._skip_emits
            and spl is not None and spl.raw and spl.combiner is None
            and (spl.cmp is bytes_compare or spl.cmp is default_compare)
            and boundaries is not None and len(boundaries) == n - 1
            and _fixed_stride(batch) is not None
        ):
            blocks = spl.add_batch(batch, boundaries)
            self._offered += batch.count
            self.metrics.records_emitted += batch.count
            if self._cp_writer is not None:
                self._cp_writer.add_records(batch.data, batch.count)
            self._shuffle.send_blocks(self._send_plane_id, blocks)
            return
        send = self.send
        for key, value in batch.iter_views():
            send(key, value)

    # -- receive path -----------------------------------------------------------------
    def _plane(self) -> "ShufflePlane":
        if self._recv_plane is None:
            raise DataMPIError(f"{self.kind} task {self.task_id} has nothing to Recv from")
        return self._recv_plane

    def _ensure_recv_iter(self) -> Iterator[KV]:
        if self._recv_iter is None:
            plane = self._plane()
            self._recv_iter = (
                plane.stream_iter if self._pipelined else plane.merged_iter)(self.task_id)
        return self._recv_iter

    def recv(self) -> KV | None:
        """``MPI_D_RECV``: next pair for this task, or ``None`` at end."""
        record = next(self._ensure_recv_iter(), None)
        if record is not None:
            self.metrics.records_received += 1
        return record

    def recv_iter(self) -> Iterator[KV]:
        """All remaining pairs, each counted as it is handed over (``recv``
        may be mixed in, or the loop left early) — the fast way to read."""
        metrics = self.metrics
        for record in self._ensure_recv_iter():
            metrics.records_received += 1
            yield record

    def recv_batch(self):
        """This task's whole input as one merged record batch, or ``None``
        when the partition spilled, the plane is pipelined or a pair was
        already consumed (callers fall back to :meth:`recv_iter`).  The
        raw byte path, for consumers of the partition's *bytes*
        (``unframed()`` / ``iter_views()`` when ``batch.raw``); pairs read
        faster through :meth:`recv_iter`, which builds no batch."""
        if self._recv_iter is not None or self._pipelined:
            return None
        batch = self._plane().merged_batch(self.task_id)
        if batch is not None:
            self.metrics.records_received += batch.count
            # the input is consumed; recv() afterwards sees end-of-stream
            self._recv_iter = iter(())
        return batch

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        if self._cp_writer is not None:
            self._cp_writer.close()


class _ContextBinding(threading.local):
    """Thread-local binding of the active TaskContext (set by the engine)."""

    def __init__(self) -> None:
        self.ctx: TaskContext | None = None


CURRENT = _ContextBinding()


def bind(ctx: TaskContext | None) -> None:
    CURRENT.ctx = ctx


def current() -> TaskContext:
    if CURRENT.ctx is None:
        raise DataMPIError(
            "no DataMPI task context on this thread; MPI_D calls are only "
            "valid inside a task launched by mpidrun"
        )
    return CURRENT.ctx
