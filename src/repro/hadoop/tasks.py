"""Map and reduce task execution, on the engine's buffers and lanes.

A map collects through a ``SendPartitionList``'s send core — the one an
engine task's ``MPI_D_SEND`` runs — and files each sealed block in its
partition's ``RunStore``, which spills past ``io.sort.mb`` (Hadoop's
sort-and-spill); at task end each partition's segment goes to local disk
(§IV-B).  A reduce merges the segments it pulls in a ``RunStore``, as an
A task merges its arrivals.

Each task runs on a ``PhaseClock`` lane of its own and returns the record
an engine rank writes, a ``WorkerMetrics`` holding the one task: a map is
an O task (compute, its seals' partition-sort, the segments' merge), a
reduce an A task (communicate while it pulls, merge while it merges,
reduces and writes).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.core.buffers import SendPartitionList
from repro.core.metrics import PhaseClock, TaskMetrics, WorkerMetrics, bind_clock, phase
from repro.core.sorter import RunStore, SpillFile, combine_run, group_by_key, spill_batch
from repro.hadoop.io_formats import InputSplit
from repro.hadoop.job import HadoopJob
from repro.hadoop.shuffle_http import ShuffleDirectory, ShuffleServer
from repro.hdfs.client import DFSClient
from repro.serde.batch import batch_from_pairs
from repro.serde.comparators import default_compare
from repro.serde.serialization import get_serializer

#: Hadoop's map output is Writables, for every job
SERDE = get_serializer("writable")


def _segment(job: HadoopJob, store: RunStore, local_dir: str, stem: str) -> SpillFile:
    """Write one partition's map output to local disk as one sorted file.
    With a combiner, several runs are merged and combined once more."""
    runs = len(store.disk_runs) + len(store.memory_runs)
    if job.combiner is not None and runs > 1:
        batch = batch_from_pairs(combine_run(iter(store), job.combiner), SERDE)
    else:
        batch = store.as_batch() or batch_from_pairs(iter(store), SERDE)
    return spill_batch(batch, SERDE, local_dir, stem)


@contextmanager
def _lane(first: str) -> Iterator[PhaseClock]:
    """Run the body on a lane of its own, in ``first`` outside any
    ``phase(...)`` scope."""
    clock = PhaseClock(first)
    bind_clock(clock)
    try:
        yield clock
    finally:
        bind_clock(None)


def _record(task: TaskMetrics, clock: PhaseClock, stores: list[RunStore],
            **counts: int) -> WorkerMetrics:
    """The task's record: its lane's phases plus the stores' spill
    overlay, as ``WorkerEngine._fold`` builds a rank's.  The lane spans
    the task, so its total is the task's duration."""
    phases = clock.read()
    wall = task.duration = sum(phases.values())
    spill = sum(store.spill_seconds for store in stores)
    if spill > 0:
        phases["spill"] = spill
    return WorkerMetrics(
        rank=task.worker, wall_seconds=wall, phase_times=phases, tasks=[task],
        spilled_bytes=sum(store.spilled_bytes for store in stores), **counts)


def run_map_task(
    job: HadoopJob,
    map_id: int,
    split: InputSplit,
    dfs: DFSClient,
    server: ShuffleServer,
    local_dir: str,
) -> WorkerMetrics:
    """Execute one map task on the host owning ``dfs``/``server``."""
    n = job.num_reduces
    cmp = job.comparator or default_compare
    task = TaskMetrics(task_id=map_id, kind="O", worker=dfs.node_id)
    with _lane("compute") as clock:
        spl = SendPartitionList(n, job.sort_buffer_bytes, cmp, job.combiner,
                                serializer=SERDE)
        stores = [RunStore(cmp, SERDE, local_dir, job.sort_buffer_bytes,
                           stem=f"m{map_id}-p{p}") for p in range(n)]
        # the engine's send core, each sealed block filed in its partition's store
        collect = spl.bind(
            job.partitioner, lambda block: stores[block.partition_id].add_run(block.records),
            task)
        input_records = 0
        for key, value in job.input_format.read_split(dfs, split):
            input_records += 1
            job.mapper(key, value, collect)
        task.records_received = input_records
        for block in spl.flush_all():
            stores[block.partition_id].add_run(block.records)
        # every partition is registered, an empty one as None, so that no
        # segment of an earlier job on this host answers for it
        segments: dict[int, SpillFile | None] = dict.fromkeys(range(n))
        combined = 0
        with phase("merge"):
            for partition, store in enumerate(stores):
                if store.total_records:
                    segment = _segment(job, store, local_dir, f"m{map_id}-p{partition}-out")
                    segments[partition] = segment
                    combined += store.total_records - segment.count  # the final combine
                    store.cleanup()
        server.register_map_output(map_id, segments)
    written = [s for s in segments.values() if s is not None]
    return _record(
        task, clock, stores, o_tasks_run=1,
        bytes_sent=sum(s.nbytes for s in written),
        records_sent=sum(s.count for s in written),
        combined_away=spl.combined_away + combined)


def run_reduce_task(
    job: HadoopJob,
    reduce_id: int,
    num_maps: int,
    directory: ShuffleDirectory,
    dfs: DFSClient,
    local_dir: str,
) -> WorkerMetrics:
    """Execute one reduce: copy (HTTP pulls) -> merge -> reduce -> HDFS."""
    task = TaskMetrics(task_id=reduce_id, kind="A", worker=dfs.node_id)
    output_pairs: list[tuple[Any, Any]] = []

    def emit(key: Any, value: Any) -> None:
        output_pairs.append((key, value))

    reduce_input = 0
    with _lane("merge") as clock:
        store = RunStore(job.comparator or default_compare, SERDE, local_dir,
                         job.sort_buffer_bytes, stem=f"r{reduce_id}")
        try:
            # -- copy phase: pull this partition's segment from every map ----
            with phase("communicate"):
                for map_id in range(num_maps):
                    batch = directory.fetch(map_id, reduce_id)
                    if batch is not None:
                        store.add_run(batch)
            # -- merge and reduce phases --------------------------------------
            for key, values in group_by_key(iter(store)):
                reduce_input += len(values)
                job.reducer(key, values, emit)
        finally:
            store.cleanup()
        dfs.write_file(f"{job.output_path}/part-r-{reduce_id:05d}",
                       job.output_format.serialize(output_pairs))
    task.records_received, task.records_emitted = reduce_input, len(output_pairs)
    return _record(task, clock, [store], a_tasks_run=1,
                   records_received=reduce_input)
