"""Map and reduce task execution, on the engine's buffers.

A map collects into a ``SendPartitionList`` and files each sealed block
in its partition's ``RunStore``, which spills past ``io.sort.mb``
(Hadoop's sort-and-spill); at task end each partition's segment goes to
local disk (§IV-B).  A reduce merges the segments it pulls in a
``RunStore``, as an A task merges its arrivals.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.buffers import SendPartitionList
from repro.core.partition import validate_destination
from repro.core.sorter import RunStore, SpillFile, combine_run, group_by_key, spill_batch
from repro.hadoop.io_formats import InputSplit
from repro.hadoop.job import HadoopCounters, HadoopJob
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


def run_map_task(
    job: HadoopJob,
    map_id: int,
    split: InputSplit,
    dfs: DFSClient,
    server: ShuffleServer,
    local_dir: str,
    counters: HadoopCounters,
    counters_lock: Any,
) -> None:
    """Execute one map task on the host owning ``dfs``/``server``."""
    n = job.num_reduces
    cmp = job.comparator or default_compare
    spl = SendPartitionList(n, job.sort_buffer_bytes, cmp, job.combiner, serializer=SERDE)
    stores = [RunStore(cmp, SERDE, local_dir, job.sort_buffer_bytes, stem=f"m{map_id}-p{p}")
              for p in range(n)]

    def collect(key: Any, value: Any) -> None:
        block = spl.add(validate_destination(job.partitioner(key, value, n), n), key, value)
        if block is not None:
            stores[block.partition_id].add_run(block.records)

    input_records = 0
    for key, value in job.input_format.read_split(dfs, split):
        input_records += 1
        job.mapper(key, value, collect)
    for block in spl.flush_all():
        stores[block.partition_id].add_run(block.records)
    # every partition is registered, an empty one as None, so that no
    # segment of an earlier job on this host answers for it
    segments: dict[int, SpillFile | None] = dict.fromkeys(range(n))
    spills = combined = 0
    for partition, store in enumerate(stores):
        if store.total_records:
            segment = _segment(job, store, local_dir, f"m{map_id}-p{partition}-out")
            segments[partition] = segment
            spills += len(store.disk_runs) + 1
            combined += store.total_records - segment.count  # the final combine
            store.cleanup()
    written = [s for s in segments.values() if s is not None]
    server.register_map_output(map_id, segments)
    with counters_lock:
        counters.map_input_records += input_records
        counters.map_output_records += spl.records_out + spl.combined_away
        counters.map_output_bytes += sum(s.nbytes for s in written)
        counters.spilled_records += sum(s.count for s in written)
        counters.spill_files += spills
        counters.combine_output_records += spl.combined_away + combined
        if dfs.node_id is not None and dfs.node_id in split.hosts:
            counters.data_local_maps += 1
        else:
            counters.rack_remote_maps += 1


def run_reduce_task(
    job: HadoopJob,
    reduce_id: int,
    num_maps: int,
    directory: ShuffleDirectory,
    dfs: DFSClient,
    local_dir: str,
    counters: HadoopCounters,
    counters_lock: Any,
) -> str:
    """Execute one reduce: copy (HTTP pulls) -> merge -> reduce -> HDFS.

    Returns the output file path written.
    """
    store = RunStore(job.comparator or default_compare, SERDE, local_dir,
                     job.sort_buffer_bytes, stem=f"r{reduce_id}")
    output_pairs: list[tuple[Any, Any]] = []

    def emit(key: Any, value: Any) -> None:
        output_pairs.append((key, value))

    shuffle_bytes = reduce_input = 0
    try:
        # -- copy phase: pull this partition's segment from every map --------
        for map_id in range(num_maps):
            batch, _host = directory.fetch(map_id, reduce_id)
            if batch is not None:
                shuffle_bytes += len(batch.data)
                store.add_run(batch)
        # -- merge and reduce phases ------------------------------------------
        for key, values in group_by_key(iter(store)):
            reduce_input += len(values)
            job.reducer(key, values, emit)
    finally:
        store.cleanup()
    out_path = f"{job.output_path}/part-r-{reduce_id:05d}"
    dfs.write_file(out_path, job.output_format.serialize(output_pairs))
    with counters_lock:
        counters.reduce_shuffle_bytes += shuffle_bytes
        counters.shuffle_fetches += num_maps
        counters.reduce_input_records += reduce_input
        counters.reduce_output_records += len(output_pairs)
    return out_path


def now() -> float:
    return time.perf_counter()
