"""Process-safe job output sinks.

An output collector is called from A tasks — with
``mpi.d.launcher=processes`` those run in worker processes, so closures
that append to driver-side memory silently lose the output.
:class:`FileSink` is the backend-agnostic alternative: each A task
appends pickled pairs to its own part file under a directory, and the
driver reads the files back after ``mpidrun`` returns.  One writer per
part file (tasks are pinned to ranks) keeps appends safe without
cross-process locking; the writer keeps its part file open and flushes
every pair, so the stream stays parsable even if the worker dies mid-job.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, BinaryIO, Iterator

__all__ = ["FileSink"]


class FileSink:
    """File-backed output collector usable on every rank backend.

    >>> sink = FileSink.temporary("wc")
    >>> job = mapreduce_job(..., output_collector=sink, ...)  # doctest: +SKIP
    >>> mpidrun(job, ...)                                     # doctest: +SKIP
    >>> dict(sink.pairs())                                    # doctest: +SKIP
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: append handle per task rank written from this process
        self._files: dict[int, BinaryIO] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_files": {}}  # handles stay with their process

    @classmethod
    def temporary(cls, name: str = "job") -> "FileSink":
        return cls(tempfile.mkdtemp(prefix=f"datampi-{name}-out-"))

    def _path(self, rank: int) -> str:
        return os.path.join(self.directory, f"part-{rank:05d}.pkl")

    def __call__(self, rank: int, key: Any, value: Any) -> None:
        f = self._files.get(rank)
        if f is None:
            f = self._files[rank] = open(self._path(rank), "ab")
        pickle.dump((key, value), f)
        f.flush()

    # -- driver-side readers ---------------------------------------------------
    def ranks(self) -> list[int]:
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:  # cleaned up already
            return []
        out = []
        for name in names:
            if name.startswith("part-") and name.endswith(".pkl"):
                out.append(int(name[len("part-"):].split(".")[0]))
        return out

    def pairs_for(self, rank: int) -> Iterator[tuple[Any, Any]]:
        try:
            f = open(self._path(rank), "rb")
        except FileNotFoundError:
            return
        with f:
            while True:
                try:
                    yield pickle.load(f)
                except EOFError:
                    return

    def pairs(self) -> Iterator[tuple[Any, Any]]:
        """All pairs, in part order (A-task rank order)."""
        for rank in self.ranks():
            yield from self.pairs_for(rank)

    def merged(self) -> dict[Any, Any]:
        """Pairs folded into a dict (last write per key wins)."""
        return dict(self.pairs())

    def cleanup(self) -> None:
        """Close the handles, remove the part files and the directory;
        calling it again is harmless."""
        for f in self._files.values():
            f.close()
        self._files.clear()
        for rank in self.ranks():
            try:
                os.unlink(self._path(rank))
            except OSError:
                pass
        try:
            os.rmdir(self.directory)
        except OSError:
            pass
