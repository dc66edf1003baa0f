"""Partitioners and the Partition Window (§III-A Table II, §IV-D).

``MPI_D_PARTITION`` decides which *A task* a key-value pair belongs to
(the default policy is hash-modulo, as the paper requires).  The
**Partition Window** then redirects task-level partitions to the
*processes* that host them — resolving the "mismatches between
process-level MPI communication and task-level data movements" shown in
Figure 6 for the NUMO>NUMA / = / < cases.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Sequence

from repro.common.errors import DataMPIError

#: signature of a user partition function: (key, value, num_partitions) -> dest
Partitioner = Callable[[Any, Any, int], int]


def _stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash (Python's str hash is salted)."""
    # exact-type front for the common key types; subclasses and everything
    # else take the ladder below, which gives these types the same values
    t = type(key)
    if t is str:
        return zlib.crc32(key.encode())
    if t is bytes:
        return zlib.crc32(key)
    if t is int:
        return key & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode())
    if isinstance(key, tuple):
        h = 0x811C9DC5
        for item in key:
            h = (h * 31 + _stable_hash(item)) & 0x7FFFFFFF
        return h
    if hasattr(key, "to_bytes") and callable(getattr(key, "to_bytes", None)):
        try:
            return zlib.crc32(key.to_bytes())  # Writable values
        except TypeError:
            pass
    return zlib.crc32(repr(key).encode())


def hash_partitioner(key: Any, value: Any, num_partitions: int) -> int:
    """The default hash-modulo policy required by the specification."""
    return _stable_hash(key) % num_partitions


def range_partitioner(boundaries: Sequence[Any]) -> Partitioner:
    """Total-order partitioner from sorted split points (TeraSort-style).

    ``len(boundaries)`` must be ``num_partitions - 1``; keys <=
    ``boundaries[i]`` land in partition i.  The returned function carries
    the cut points as ``partition.boundaries``: the declared sign that it
    is monotone in key order, so a sorted batch splits at
    ``bisect_right`` of each cut (``TaskContext.send_batch``).
    """
    import bisect

    cut = list(boundaries)

    def partition(key: Any, value: Any, num_partitions: int) -> int:
        if len(cut) != num_partitions - 1:
            raise DataMPIError(
                f"range partitioner has {len(cut)} boundaries for "
                f"{num_partitions} partitions"
            )
        return bisect.bisect_left(cut, key)

    partition.boundaries = cut
    return partition


def validate_destination(dest: int, num_partitions: int) -> int:
    """Clamp-check a user partitioner's output."""
    if not 0 <= dest < num_partitions:
        raise DataMPIError(
            f"partitioner returned {dest}, outside [0, {num_partitions})"
        )
    return dest


class PartitionWindow:
    """Maps A-task partitions onto worker processes (Figure 6).

    The default is round-robin (partition ``t`` lives on process ``t %
    nprocs``), which covers all three Figure 6 cases:

    * NUMO > NUMA: only the first NUMA processes receive data;
    * NUMO = NUMA: a one-to-one mapping;
    * NUMO < NUMA: processes own multiple partitions, and A tasks run in
      waves on the process that holds their partition — preserving
      reduce-side data locality.
    """

    def __init__(self, num_partitions: int, num_processes: int) -> None:
        if num_partitions < 1 or num_processes < 1:
            raise DataMPIError("partition window needs >=1 partition and process")
        self.num_partitions = num_partitions
        self.num_processes = num_processes

    def owner(self, partition: int) -> int:
        """The process rank hosting ``partition``'s intermediate data."""
        if not 0 <= partition < self.num_partitions:
            raise DataMPIError(
                f"partition {partition} outside [0, {self.num_partitions})"
            )
        return partition % self.num_processes

    def owned_by(self, process: int) -> list[int]:
        """All partitions hosted by ``process`` (that process's A-task wave)."""
        return list(range(process, self.num_partitions, self.num_processes))
