"""Shared helpers for end-to-end DataMPI engine tests."""

from __future__ import annotations

import os
import pickle
import threading
from collections import defaultdict
from typing import Any

from repro.core.buffers import Block
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


class FileCollector:
    """Output sink that survives a process boundary.

    With ``mpi.d.launcher=processes`` A tasks run in worker processes, so
    an in-memory :class:`Collector` in the driver never sees their
    output.  This sink appends each pair to a per-task pickle stream
    under ``directory``; the driver reads the files after the job.  Works
    identically on the thread backend, so tests parametrized over
    launchers use it for both.
    """

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, rank: int) -> str:
        return os.path.join(self.directory, f"part-{rank:05d}.pkl")

    def __call__(self, rank: int, key: Any, value: Any) -> None:
        # append-mode open per record: atomic enough for one writer per
        # task file, and robust to abrupt worker death mid-job
        with open(self._path(rank), "ab") as f:
            pickle.dump((key, value), f)

    def by_task(self) -> dict[int, list[tuple[Any, Any]]]:
        out: dict[int, list[tuple[Any, Any]]] = defaultdict(list)
        for name in sorted(os.listdir(self.directory)):
            if not name.startswith("part-"):
                continue
            rank = int(name[len("part-"):].split(".")[0])
            with open(os.path.join(self.directory, name), "rb") as f:
                while True:
                    try:
                        out[rank].append(pickle.load(f))
                    except EOFError:
                        break
        return dict(out)

    def merged(self) -> dict[Any, Any]:
        out: dict[Any, Any] = {}
        for pairs in self.by_task().values():
            out.update(pairs)
        return out

    def all_pairs(self) -> list[tuple[Any, Any]]:
        return [kv for pairs in self.by_task().values() for kv in pairs]


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
