"""Sorting and k-way merging of key-value runs (§IV-C/§IV-D machinery).

A *run* is a key-sorted sequence of (key, value) pairs.  Runs resident
in memory are merged by one stable sort over their concatenation
(``list.sort`` gallops over the sorted runs at C speed) — of an index
over their keys when the partition is read, of the records themselves
when its bytes are wanted; :func:`merge_runs`, ``heapq.merge`` under
the job's comparator, merges lazily where a run streams back from disk.
All are stable, so equal keys keep their arrival order — which
MapReduce semantics rely on.
"""

from __future__ import annotations

import heapq
import operator
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from time import perf_counter as _clock
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import SerializationError
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import (
    RecordBatch, concat_batches, sort_batch, whole_records,
)
from repro.serde.comparators import (
    Compare, bytes_compare, default_compare, sort_key, sorted_order,
)
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]

_key_of = operator.itemgetter(0)


def sort_block(records: list[KV], cmp: Compare | None = None) -> list[KV]:
    """Stable in-memory sort of one block by key."""
    cmp = cmp or default_compare
    if cmp is default_compare or cmp is bytes_compare:
        # bytes_compare orders exactly like native ``<`` on bytes keys
        try:
            return sorted(records, key=_key_of)
        except TypeError:
            pass  # heterogeneous/unorderable keys: total-order path below
    key_fn = sort_key(cmp)
    return sorted(records, key=lambda kv: key_fn(kv[0]))


def merge_runs(
    runs: list[Iterable[KV]], cmp: Compare | None = None
) -> Iterator[KV]:
    """Lazy stable k-way merge of key-sorted runs (``heapq.merge``).

    Ties break by run index then arrival order, so the merge is stable
    with respect to the order runs were produced.  Under
    ``bytes_compare`` (``<`` on bytes keys: TeraSort) the heap compares
    the raw keys; any other comparator goes through its sort key.
    """
    if cmp is bytes_compare:
        return heapq.merge(*runs, key=_key_of)
    key_fn = sort_key(cmp or default_compare)
    return heapq.merge(*runs, key=lambda kv: key_fn(kv[0]))


def merge_batches(
    batches: list[RecordBatch], cmp: Compare | None, serializer: Serializer
) -> RecordBatch:
    """Merge key-sorted sealed batches into one batch, bytes-first.

    One stable sort over the concatenation (:func:`sort_batch`: an array
    sort when every record frames to one raw stride): keys alone are
    read, records are copied as opaque slices or rows.  Ties keep batch
    order, then arrival order, exactly as :func:`merge_runs` would.
    """
    merged = concat_batches(batches)
    return merged if cmp is None else sort_batch(merged, cmp, serializer)


def group_by_key(sorted_records: Iterable[KV]) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted stream into (key, [values]) — the reduce input."""
    it = iter(sorted_records)
    first = next(it, None)
    if first is None:
        return
    current_key, values = first[0], [first[1]]
    for key, value in it:
        if key == current_key:
            values.append(value)
        else:
            yield current_key, values
            current_key, values = key, [value]
    yield current_key, values


def _combine(
    groups: Iterable[tuple[Any, list[Any]]],
    combiner: Callable[[Any, list[Any]], Iterable[Any]],
) -> list[KV]:
    return [
        (key, combined) for key, values in groups
        for combined in combiner(key, values)
    ]


def combine_run(
    sorted_records: Iterable[KV],
    combiner: Callable[[Any, list[Any]], Iterable[Any]],
) -> list[KV]:
    """Apply ``MPI_D_COMBINE`` to a sorted run, shrinking it in place.

    The combiner receives (key, values) and returns the combined output
    values for that key (usually one).
    """
    return _combine(group_by_key(sorted_records), combiner)


def combine_groups(
    groups: dict[Any, list[Any]],
    cmp: Compare | None,
    combiner: Callable[[Any, list[Any]], Iterable[Any]],
) -> list[KV]:
    """Hash-combine: the combined run of records already grouped as
    ``key -> [values]``, keys in first-seen and values in arrival order.

    Sorting the unique keys and combining each key's values is what
    ``combine_run(sort_block(records, cmp), combiner)`` yields for the
    records themselves — the sort is stable and both group by ``==``
    under the first-seen key — without sorting every record.  (Keys the
    comparator ties are taken to be ``==``, as the reduce side's
    :func:`group_by_key` takes them: ties that are not fragment a key's
    group there, and may fragment it differently here.)
    """
    return _combine(sort_block(list(groups.items()), cmp), combiner)


#: read granularity when streaming a spill back in
_SPILL_CHUNK_BYTES = 64 * 1024


@dataclass(eq=False)
class SpillFile:
    """One on-disk run: a sealed record batch written verbatim,
    length-prefixed layout and all."""

    path: str
    serializer: Serializer
    count: int
    nbytes: int  #: bytes on disk
    raw: bool = False

    def __iter__(self) -> Iterator[KV]:
        """Stream the run back in record-aligned chunks, each decoded as
        the batch it is.

        The k-way merge holds one iterator per spill; slurping whole
        files here would momentarily resident the entire spilled dataset,
        defeating the memory budget that caused the spill.
        """
        left, data = self.count, b""
        with open(self.path, "rb") as f:
            while left:
                chunk = f.read(_SPILL_CHUNK_BYTES)
                if not chunk:
                    raise SerializationError(
                        f"spill {self.path} ends {left} records short")
                data += chunk
                end, count = whole_records(data, left)
                yield from RecordBatch(data, count, self.raw).iter_pairs(self.serializer)
                left, data = left - count, data[end:]

    def delete(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def spill_batch(
    batch: RecordBatch,
    serializer: Serializer,
    directory: str,
    stem: str,
) -> SpillFile:
    """Write a sealed batch to disk verbatim — no per-record re-encode."""
    fd, path = tempfile.mkstemp(prefix=f"{stem}-", suffix=".spill", dir=directory)
    with os.fdopen(fd, "wb") as f:
        f.write(batch.data)
    return SpillFile(path, serializer, batch.count, len(batch.data), raw=batch.raw)


class RunStore:
    """Accumulates runs for one partition, spilling past a memory budget.

    Arriving runs are only filed.  What is resident is merged when the
    partition is read — iteration parses it once and orders an index,
    building nothing — or when the in-memory footprint exceeds
    ``memory_budget``: then the merged run is spilled as one file
    (Hadoop's sort-and-spill), never one file per block.  Iteration
    merges everything (disk + memory) in key order.
    """

    def __init__(
        self,
        cmp: Compare | None,
        serializer: Serializer,
        directory: str,
        memory_budget: int,
        stem: str = "run",
    ) -> None:
        self.cmp = cmp
        self.serializer = serializer
        self.directory = directory
        self.memory_budget = memory_budget
        self.stem = stem
        #: in-memory runs in arrival order, each a sealed batch
        self.memory_runs: list[RecordBatch] = []
        #: spilled runs, oldest first; each precedes everything resident
        self.disk_runs: list[SpillFile] = []
        self.memory_bytes = 0
        self.spilled_bytes = 0
        self.total_records = 0
        #: seconds spent writing spills (an overlay phase bucket: spills
        #: happen on whichever thread delivered the block)
        self.spill_seconds = 0.0

    def add_run(self, run: RecordBatch) -> None:
        """File a sealed batch (key-sorted, or unsorted when cmp is None)
        as one run — O(1) on arrival; its bytes spill and merge without
        per-record re-encoding."""
        self.memory_runs.append(run)
        self.memory_bytes += len(run.data)
        self.total_records += run.count
        if self.memory_bytes > self.memory_budget:
            self._spill()

    def _spill(self) -> None:
        """Merge everything resident into one run and write that to disk:
        one coarse file per overflow, so the final merge's fan-in is the
        number of overflows, not the number of blocks received."""
        self.compact()
        (run,) = self.memory_runs
        self.memory_runs = []
        self.memory_bytes = 0
        t0 = _clock()
        spill = spill_batch(run, self.serializer, self.directory, self.stem)
        dur = _clock() - t0
        self.spill_seconds += dur
        if _T.enabled:
            _T.complete(
                "spill", t0, dur, cat="spill",
                args={
                    "stem": self.stem, "records": len(run),
                    "bytes": spill.nbytes,
                },
            )
        self.disk_runs.append(spill)
        self.spilled_bytes += spill.nbytes

    def _merge_span(self):
        """One ``rpl.merge`` span per merge of the resident runs."""
        runs = self.memory_runs
        return _T.span(
            "rpl.merge", cat="merge",
            args={
                "stem": self.stem, "runs": len(runs),
                "records": sum(map(len, runs)), "bytes": self.memory_bytes,
            },
        )

    def compact(self, max_runs: int = 1) -> None:
        """Merge the resident runs into one batch (no-op at ``max_runs`` or
        fewer) — for the spill and for whole-partition byte consumers: a
        stable sort over the runs in arrival order, so ties break by run,
        then by position — the order a heap merge yields.
        """
        if len(self.memory_runs) <= max_runs:
            return
        with self._merge_span():
            merged = merge_batches(self.memory_runs, self.cmp, self.serializer)
        self.memory_runs = [merged]

    def as_batch(self) -> RecordBatch | None:
        """The whole store as one merged batch, or ``None``.

        Available when everything is resident (no disk runs): for
        consumers of the partition's bytes (TeraSort's part file, through
        ``recv_batch``); pairs come from iteration."""
        if self.disk_runs or not self.memory_runs:
            return None
        self.compact()
        return self.memory_runs[0]

    def _resident(self) -> Iterator[KV]:
        """The resident runs' pairs in key order, merged without building
        the merged batch: one parse into a key column and a value getter,
        one stable sort of an index over the keys (runs in arrival order,
        so ties break by run, then position), pairs straight from the
        columns — each key decoded once, a value when it is reached."""
        with self._merge_span():
            keys, value_at = concat_batches(self.memory_runs).key_index(
                self.serializer, values=True)
            order = sorted_order(keys, self.cmp)
        return zip(map(keys.__getitem__, order), map(value_at, order))

    def __iter__(self) -> Iterator[KV]:
        """Everything in key order; values decode as the consumer reaches
        them.  The heap merges only when a run lives on disk (fan-in:
        spill files + the resident runs as one)."""
        if self.cmp is not None and len(self.memory_runs) > 1:
            resident: list[Iterable[KV]] = [self._resident()]
        else:
            resident = [run.iter_pairs(self.serializer) for run in self.memory_runs]
        runs = [*self.disk_runs, *resident]
        if self.cmp is None or len(runs) == 1:
            return chain.from_iterable(runs)
        return merge_runs(runs, self.cmp)

    def cleanup(self) -> None:
        for spill in self.disk_runs:
            spill.delete()
        self.disk_runs.clear()
        self.memory_runs.clear()
        self.memory_bytes = 0
