"""Shared helpers for end-to-end DataMPI engine tests."""

from __future__ import annotations

import threading
import time
import types
from collections import defaultdict
from typing import Any

from repro.core.buffers import Block
from repro.core.output import FileSink
from repro.mpi.transport import AbortFlag
from repro.serde.batch import batch_from_pairs
from repro.serde.serialization import WritableSerializer

#: what :func:`batch_block` seals with
SERIALIZER = WritableSerializer()


def batch_block(
    partition: int,
    records,
    *,
    sorted_: bool = True,
    nbytes: int | None = None,
    raw: bool = False,
) -> Block:
    """Seal ``records`` the way the SPL does: one batch ``Block``.

    ``nbytes`` overrides the size the block declares (coalescing tests
    want round numbers); ``batch_block(...).records`` is a run for a
    :class:`~repro.core.sorter.RunStore`.
    """
    batch = batch_from_pairs(records, SERIALIZER, raw=raw)
    return Block(
        partition, batch, len(batch.data) if nbytes is None else nbytes,
        sorted=sorted_,
    )


class RecordingWorld:
    """Intracomm stand-in of rank 0 that keeps what a shuffle service
    sends, as ``(payload, dest)``, and delivers nothing.  ``reborn``: a
    respawned incarnation of a rank-recovery world."""

    def __init__(self, size: int = 1, reborn: bool = False) -> None:
        self.rank = 0
        self.size = size
        # everything the shuffle service reads off a runtime
        self.runtime = types.SimpleNamespace(
            rank_epoch=1 if reborn else 0, rank_recovery=reborn,
            abort_flag=AbortFlag(),
        )
        self.sent: list[tuple[Any, int]] = []

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.sent.append((obj, dest))

    def listen(self, tag: int, handler: Any) -> list:
        return []  # nothing arrived before the listener

    def abort(self, errorcode: int = 1, reason: str = "MPI_Abort") -> None:
        self.runtime.abort_flag.trip(reason, errorcode)


class Shipped:
    """Stands in for the ShuffleService: keeps what the task shipped."""

    def __init__(self):
        self.blocks = []

    def send_blocks(self, _plane_id, blocks, eos=False):
        self.blocks.extend(blocks)


def busy_for(seconds: float) -> None:
    """Burn CPU in Python frames (a sampler can see them) for ``seconds``."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i for i in range(100))


class Collector:
    """Thread-safe output sink keyed by A-task rank."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_task: dict[int, list[tuple[Any, Any]]] = defaultdict(list)

    def __call__(self, rank: int, key: Any, value: Any) -> None:
        with self._lock:
            self.by_task[rank].append((key, value))

    def merged(self) -> dict[Any, Any]:
        out: dict[Any, Any] = {}
        for pairs in self.by_task.values():
            out.update(pairs)
        return out

    def all_pairs(self) -> list[tuple[Any, Any]]:
        return [kv for pairs in self.by_task.values() for kv in pairs]


class FileCollector(FileSink):
    """Output sink that survives a process boundary: the engine's own
    :class:`~repro.core.output.FileSink`, read back like a
    :class:`Collector`, so tests parametrized over launchers use it for
    both backends."""

    def all_pairs(self) -> list[tuple[Any, Any]]:
        return list(self.pairs())


def int_range_input(n: int):
    """Input provider: task rank r of size s yields (i, i) for i = r, r+s, ..."""

    def provider(rank: int, size: int):
        for i in range(rank, n, size):
            yield (i, i)

    return provider


def wordcount_pieces(texts: list[str]):
    """(input_provider, mapper, reducer) for a classic word count."""

    def provider(rank: int, size: int):
        for i, line in enumerate(texts):
            if i % size == rank:
                yield (i, line)

    def mapper(_key, line, emit):
        for word in line.split():
            emit(word, 1)

    def reducer(word, counts, emit):
        emit(word, sum(counts))

    return provider, mapper, reducer


def expected_wordcount(texts: list[str]) -> dict[str, int]:
    from collections import Counter

    counter: Counter = Counter()
    for line in texts:
        counter.update(line.split())
    return dict(counter)
