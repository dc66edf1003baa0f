#!/usr/bin/env python
"""PageRank in the Iteration mode vs a per-round Hadoop pipeline.

The paper's Fig 10(b) workload: rank a random web-like graph for several
rounds.  The DataMPI version is *one* persistent Iteration-mode job —
graph structure and ranks stay in process-local state, only contribution
key-value pairs move each round.  The Hadoop baseline runs one complete
MapReduce job per round, rewriting the whole graph through HDFS.  Both
must agree with plain power iteration and (at convergence) networkx.

Run:  python examples/pagerank_iteration.py
"""

import time

from repro.hadoop import MiniHadoopCluster
from repro.hdfs import MiniDFSCluster
from repro.workloads import (
    generate_graph,
    pagerank_datampi,
    pagerank_hadoop,
    pagerank_reference,
)
from repro.workloads.pagerank import pagerank_networkx

NODES, ROUNDS = 150, 6


def main() -> None:
    graph = generate_graph(NODES, mean_out_degree=5)
    edges = sum(len(adj) for adj in graph.values())
    print(f"graph: {NODES} nodes, {edges} edges, {ROUNDS} rounds\n")

    reference = pagerank_reference(graph, ROUNDS)

    t0 = time.perf_counter()
    result, ranks = pagerank_datampi(graph, ROUNDS, o_tasks=3, a_tasks=2, nprocs=3)
    datampi_wall = time.perf_counter() - t0
    err = max(abs(ranks[n] - reference[n]) for n in graph)
    print(f"DataMPI Iteration mode: one job, {ROUNDS} rounds,"
          f" {result.metrics.records_sent} pairs shuffled,"
          f" max error vs power iteration: {err:.2e}")

    cluster = MiniDFSCluster(num_nodes=3, block_size=4096)
    hadoop = MiniHadoopCluster(cluster)
    t0 = time.perf_counter()
    round_results, hranks = pagerank_hadoop(hadoop, graph, ROUNDS, num_reduces=2)
    hadoop_wall = time.perf_counter() - t0
    herr = max(abs(hranks[n] - reference[n]) for n in graph)
    map_output = sum(r.metrics.bytes_sent for r in round_results)
    print(f"Hadoop baseline: {len(round_results)} chained jobs,"
          f" {map_output / 1e3:.0f} kB of map output through local disk,"
          f" max error: {herr:.2e}")

    # cross-validate the update rule against converged networkx ranks
    nx_ranks = pagerank_networkx(graph)
    converged = pagerank_reference(graph, rounds=80)
    nx_err = max(abs(converged[n] - nx_ranks[n]) for n in graph)
    print(f"networkx cross-check (80 rounds vs converged): {nx_err:.2e}")

    top = sorted(ranks.items(), key=lambda kv: -kv[1])[:5]
    print("\ntop-5 ranked nodes:",
          ", ".join(f"{n} ({r:.4f})" for n, r in top))
    print(f"\nwall time (functional engines, not the paper's metric): "
          f"DataMPI {datampi_wall:.2f}s, Hadoop-per-round {hadoop_wall:.2f}s")
    print("see benchmarks/bench_fig10b_iteration.py for the simulated "
          "40 GB / 7-round comparison (paper: 41% improvement)")


if __name__ == "__main__":
    main()
