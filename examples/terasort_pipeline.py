#!/usr/bin/env python
"""TeraSort end to end on both engines, plus the simulated evaluation.

Demonstrates the full reproduction stack on one workload:

1. TeraGen writes record-aligned input into mini-HDFS;
2. the same sort runs as a DataMPI MapReduce-mode job (range
   partitioner + byte comparator, Table II functions) and as a
   mini-Hadoop job;
3. outputs are verified globally sorted and byte-identical;
4. the discrete-event models replay the paper's 168 GB configuration
   and report the Figure 9 numbers.

Run:  python examples/terasort_pipeline.py
"""

from repro.common.units import MiB
from repro.hadoop import MiniHadoopCluster
from repro.hdfs import MiniDFSCluster
from repro.simulate import TESTBED_A, SimCluster
from repro.simulate.datampi_model import DataMPISimParams, simulate_datampi_job
from repro.simulate.hadoop_model import HadoopSimParams, simulate_hadoop_job
from repro.simulate.profiles import TERASORT
from repro.workloads import (
    teragen_to_dfs,
    terasort_datampi,
    terasort_hadoop,
    verify_terasort_output,
)
from repro.workloads.teragen import RECORD_LEN

NUM_RECORDS = 3000


def functional_run() -> None:
    print("== functional run (real engines, small data) ==")
    dfs_cluster = MiniDFSCluster(num_nodes=4, block_size=200 * RECORD_LEN)
    teragen_to_dfs(dfs_cluster.client(0), "/tera/in", NUM_RECORDS)
    dfs = dfs_cluster.client(None)
    print(f"teragen: {NUM_RECORDS} records"
          f" ({dfs.file_size('/tera/in') / 1e6:.2f} MB) in"
          f" {len(dfs_cluster.locality_map('/tera/in'))} blocks")

    result = terasort_datampi(
        dfs_cluster, "/tera/in", "/tera/out-datampi", o_tasks=4, a_tasks=3,
        nprocs=4,
    )
    assert verify_terasort_output(dfs, "/tera/out-datampi", NUM_RECORDS)
    print(f"DataMPI: sorted {result.metrics.records_sent} records,"
          f" A locality {result.a_data_locality:.0%},"
          f" {result.metrics.blocks_sent} shuffle blocks")

    hadoop = MiniHadoopCluster(dfs_cluster)
    hresult = terasort_hadoop(hadoop, "/tera/in", "/tera/out-hadoop", 3)
    assert verify_terasort_output(dfs, "/tera/out-hadoop", NUM_RECORDS)
    hosts = dict(dfs_cluster.locality_map("/tera/in"))  # map i reads block i
    maps = [t for t in hresult.metrics.tasks if t.kind == "O"]
    local = sum(t.worker in hosts[t.task_id] for t in maps) / len(maps)
    fetches = sum(t.shuffle_server.requests_served for t in hadoop.trackers)
    print(f"Hadoop : {hresult.metrics.records_sent} map outputs,"
          f" {hresult.metrics.spilled_bytes} bytes spilled,"
          f" {fetches} shuffle fetches, map locality {local:.0%}")

    d_bytes = b"".join(dfs.read_file(p) for p in dfs.listdir("/tera/out-datampi"))
    h_bytes = b"".join(dfs.read_file(p) for p in dfs.listdir("/tera/out-hadoop"))
    assert d_bytes == h_bytes
    print("outputs byte-identical across engines\n")


def simulated_run() -> None:
    print("== simulated evaluation (paper's 168 GB on Testbed A) ==")
    data = 168e9
    tasks = TESTBED_A.num_slaves * TESTBED_A.reduce_slots
    hadoop = simulate_hadoop_job(
        SimCluster(TESTBED_A),
        HadoopSimParams(TERASORT, data, 256 * MiB, tasks, name="terasort"),
    )
    datampi = simulate_datampi_job(
        SimCluster(TESTBED_A),
        DataMPISimParams(TERASORT, data, 256 * MiB, tasks, name="terasort"),
    )
    gain = (hadoop.duration - datampi.duration) / hadoop.duration * 100
    print(f"Hadoop : {hadoop.summary()}")
    print(f"DataMPI: {datampi.summary()}")
    print(f"improvement {gain:.1f}%  (paper: 475 s vs 312 s, 34.3%)")


if __name__ == "__main__":
    functional_run()
    simulated_run()
