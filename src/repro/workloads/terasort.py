"""TeraSort on both engines.

TeraSort = total-order sort of TeraGen records: sample the input to pick
range-partition boundaries, shuffle each record to its range, sort within
ranges; the concatenation of the output partitions is globally sorted.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import JobResult
from repro.core.partition import range_partitioner
from repro.hadoop.engine import MiniHadoopCluster
from repro.hadoop.io_formats import (
    BytesConcatOutputFormat,
    FixedLengthRecordFormat,
    compute_splits,
)
from repro.hadoop.job import HadoopJob
from repro.hdfs.cluster import MiniDFSCluster
from repro.serde.comparators import bytes_compare
from repro.workloads.teragen import KEY_LEN, RECORD_LEN


def sample_boundaries(
    dfs: Any, path: str, num_partitions: int, sample_records: int = 1000
) -> list[bytes]:
    """TotalOrderPartitioner-style sampling: read a prefix of the input,
    sort the sampled keys, take ``num_partitions - 1`` quantiles."""
    if num_partitions < 2:
        return []
    blocks = dfs.namenode.get_block_locations(path)
    keys: list[bytes] = []
    for i in range(len(blocks)):
        data = dfs.read_blocks(path, [i])
        for pos in range(0, len(data), RECORD_LEN):
            keys.append(data[pos : pos + KEY_LEN])
            if len(keys) >= sample_records:
                break
        if len(keys) >= sample_records:
            break
    keys.sort()
    step = len(keys) / num_partitions
    return [keys[int(step * (i + 1))] for i in range(num_partitions - 1)]


# -- DataMPI ---------------------------------------------------------------------


def terasort_datampi(
    dfs_cluster: MiniDFSCluster,
    input_path: str,
    output_path: str,
    o_tasks: int,
    a_tasks: int,
    nprocs: int | None = None,
    conf: dict | None = None,
) -> JobResult:
    """TeraSort as a MapReduce-mode DataMPI job.

    O tasks load HDFS splits "by their ranks and the communicator size"
    (§IV-B's utility function) and send each as one raw batch, which
    the SPL sorts and range-partitions as an array; A tasks receive their
    range already key-sorted by the shuffle and spill an output part to
    local disk — the MiniDFS block store is in-memory, so with
    ``mpi.d.launcher=processes`` a worker-side ``write_file`` would be
    invisible to the driver.  The driver commits the local parts into
    HDFS after the job, on both backends alike.
    """
    dfs0 = dfs_cluster.client(None)
    boundaries = sample_boundaries(dfs0, input_path, a_tasks)
    splits = compute_splits(dfs0, input_path)
    fmt = FixedLengthRecordFormat(RECORD_LEN, KEY_LEN)
    spill_dir = tempfile.mkdtemp(prefix="datampi-terasort-")

    def o_fn(ctx):
        dfs = dfs_cluster.client(None)
        for index in range(ctx.rank, len(splits), ctx.o_size):
            ctx.send_batch(fmt.read_batch(dfs, splits[index]))

    def a_fn(ctx):
        # a raw partition held in memory is written as one slice of its
        # merged batch; a spilled or Writable-framed one pair by pair
        batch = ctx.recv_batch() if ctx.conf.get_bool(K.SHUFFLE_RAW) else None
        if batch is not None:
            out = batch.unframed()
        else:
            out = bytearray()
            for key, value in ctx.recv_iter():
                out += key
                out += value
        with open(os.path.join(spill_dir, f"part-{ctx.rank:05d}"), "wb") as f:
            f.write(out)

    job_conf = dict(conf or {})
    # keys and values are already the application's bytes: shuffle them as
    # raw record batches (no serializer framing on the wire or in spills)
    job_conf.setdefault(K.SHUFFLE_RAW, True)
    job = DataMPIJob(
        name="terasort",
        o_fn=o_fn,
        a_fn=a_fn,
        o_tasks=o_tasks,
        a_tasks=a_tasks,
        mode=Mode.MAPREDUCE,
        conf=job_conf,
        partitioner=range_partitioner(boundaries),
        comparator=bytes_compare,
    )
    try:
        result = mpidrun(job, nprocs=nprocs, raise_on_error=True)
        for name in sorted(os.listdir(spill_dir)):
            dfs0.put(os.path.join(spill_dir, name), f"{output_path}/{name}")
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return result


# -- Hadoop -----------------------------------------------------------------------


def terasort_hadoop(
    hadoop: MiniHadoopCluster,
    input_path: str,
    output_path: str,
    num_reduces: int,
) -> JobResult:
    """TeraSort as a mini-Hadoop job (identity map/reduce + range partition)."""
    dfs0 = hadoop.dfs_cluster.client(None)
    boundaries = sample_boundaries(dfs0, input_path, num_reduces)
    part = range_partitioner(boundaries)

    def mapper(key, value, emit):
        emit(key, value)

    def reducer(key, values, emit):
        for value in values:
            emit(key, value)

    job = HadoopJob(
        name="terasort",
        input_path=input_path,
        output_path=output_path,
        mapper=mapper,
        reducer=reducer,
        num_reduces=num_reduces,
        partitioner=part,
        comparator=bytes_compare,
        input_format=FixedLengthRecordFormat(RECORD_LEN, KEY_LEN),
        output_format=BytesConcatOutputFormat(),
    )
    return hadoop.run_job(job)


# -- verification ---------------------------------------------------------------------


def verify_terasort_output(dfs: Any, output_path: str, expected_records: int) -> bool:
    """Global order check: each part sorted, parts ordered, count exact."""
    paths = dfs.listdir(output_path)
    total = 0
    prev_last: bytes | None = None
    for path in paths:  # listdir sorts lexicographically = partition order
        data = dfs.read_file(path)
        if len(data) % RECORD_LEN:
            return False
        keys = [
            data[pos : pos + KEY_LEN] for pos in range(0, len(data), RECORD_LEN)
        ]
        total += len(keys)
        if keys != sorted(keys):
            return False
        if keys:
            if prev_last is not None and keys[0] < prev_last:
                return False
            prev_last = keys[-1]
    return total == expected_records
