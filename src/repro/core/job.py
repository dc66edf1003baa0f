"""Job definitions.

A :class:`DataMPIJob` bundles the user's O/A task functions with the
optional Table-II functions (compare, partition, combine), the task
counts, and mode + configuration.  :func:`mapreduce_job` adapts
classic ``map(k, v, emit)`` / ``reduce(k, values, emit)`` callables onto
the bipartite API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.common.errors import DataMPIError
from repro.core.constants import Mode
from repro.core.context import TaskContext
from repro.core.modes import mode_sorts, profile_for
from repro.core.partition import Partitioner, hash_partitioner
from repro.core.sorter import group_by_key
from repro.serde.comparators import Compare

TaskFn = Callable[[TaskContext], None]
#: input provider: (task rank, num tasks) -> iterable of (key, value)
InputProvider = Callable[[int, int], Iterable[tuple[Any, Any]]]
#: output collector: (task rank, key, value) -> None
OutputCollector = Callable[[int, Any, Any], None]
Combiner = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass
class DataMPIJob:
    """Everything ``mpidrun`` needs to execute one application."""

    name: str
    o_fn: TaskFn
    a_fn: TaskFn
    o_tasks: int
    a_tasks: int
    mode: Mode = Mode.MAPREDUCE
    conf: Mapping[str, Any] = field(default_factory=dict)
    #: MPI_D_PARTITION (Table II); default hash-modulo policy
    partitioner: Partitioner = hash_partitioner
    #: MPI_D_COMPARE (Table II); None = natural key ordering
    comparator: Compare | None = None
    #: MPI_D_COMBINE (Table II); None = no combining
    combiner: Combiner | None = None
    #: Iteration mode: number of O/A rounds
    rounds: int = 1

    def validate(self) -> None:
        if self.o_tasks < 1 or self.a_tasks < 1:
            raise DataMPIError("jobs need at least one O and one A task")
        if self.rounds < 1:
            raise DataMPIError("rounds must be >= 1")
        if self.rounds > 1 and self.mode is not Mode.ITERATION:
            raise DataMPIError("multi-round jobs require Iteration mode")
        if self.combiner is not None and not mode_sorts(
            profile_for(self.mode, self.conf)
        ):
            # combining groups equal keys of a *sorted* block; an unsorted
            # exchange would drop the combiner without a word
            raise DataMPIError(
                f"job {self.name!r}: a combiner needs a sorted exchange, and "
                f"{self.mode.value} mode with this configuration does not "
                "sort (mpi.d.sort is false)"
            )


def mapreduce_job(
    name: str,
    input_provider: InputProvider,
    mapper: Callable[[Any, Any, Callable[[Any, Any], None]], None],
    reducer: Callable[[Any, list[Any], Callable[[Any, Any], None]], None],
    output_collector: OutputCollector,
    o_tasks: int,
    a_tasks: int,
    conf: Mapping[str, Any] | None = None,
    combiner: Combiner | None = None,
    partitioner: Partitioner = hash_partitioner,
    comparator: Compare | None = None,
) -> DataMPIJob:
    """Adapt map/reduce callables to the bipartite model (MapReduce mode).

    The O task streams its input split through ``mapper``; the A task
    groups its key-sorted partition and feeds ``reducer``.
    """

    def o_fn(ctx: TaskContext) -> None:
        for key, value in input_provider(ctx.rank, ctx.o_size):
            mapper(key, value, ctx.send)

    def a_fn(ctx: TaskContext) -> None:
        def emit(key: Any, value: Any) -> None:
            output_collector(ctx.rank, key, value)

        for key, values in group_by_key(ctx.recv_iter()):
            reducer(key, values, emit)

    return DataMPIJob(
        name=name,
        o_fn=o_fn,
        a_fn=a_fn,
        o_tasks=o_tasks,
        a_tasks=a_tasks,
        mode=Mode.MAPREDUCE,
        conf=dict(conf or {}),
        partitioner=partitioner,
        comparator=comparator,
        combiner=combiner,
    )


def common_job(
    name: str,
    o_fn: TaskFn,
    a_fn: TaskFn,
    o_tasks: int,
    a_tasks: int,
    conf: Mapping[str, Any] | None = None,
    **kwargs: Any,
) -> DataMPIJob:
    """SPMD-style Common-mode job (the Listing-1 shape)."""
    return DataMPIJob(
        name=name,
        o_fn=o_fn,
        a_fn=a_fn,
        o_tasks=o_tasks,
        a_tasks=a_tasks,
        mode=Mode.COMMON,
        conf=dict(conf or {}),
        **kwargs,
    )
