#!/usr/bin/env python
"""K-means clustering in the Iteration mode (the Mahout-vs-DataMPI shape).

Points stay partitioned in process-local state across rounds; only
pre-aggregated per-cluster partial sums travel forward, and new
centroids travel back over the bidirectional plane.  The Hadoop baseline
re-reads all points from HDFS every round, like Mahout 0.8.

Run:  python examples/kmeans_iteration.py
"""

import numpy as np

from repro.hadoop import MiniHadoopCluster
from repro.hdfs import MiniDFSCluster
from repro.workloads import (
    generate_points,
    kmeans_datampi,
    kmeans_hadoop,
    kmeans_reference,
)

POINTS, CLUSTERS, ROUNDS = 600, 5, 5


def main() -> None:
    points = generate_points(POINTS, CLUSTERS, dims=2)
    print(f"{POINTS} points, {CLUSTERS} clusters, {ROUNDS} Lloyd rounds\n")

    reference = kmeans_reference(points, CLUSTERS, ROUNDS)

    result, centroids = kmeans_datampi(
        points, CLUSTERS, ROUNDS, o_tasks=3, a_tasks=2, nprocs=3
    )
    assert np.allclose(centroids, reference)
    print(f"DataMPI Iteration mode: {result.metrics.records_sent} pairs"
          f" shuffled over {ROUNDS} rounds (pre-aggregated partial sums)")

    cluster = MiniDFSCluster(num_nodes=3, block_size=8192)
    hadoop = MiniHadoopCluster(cluster)
    round_results, hadoop_centroids = kmeans_hadoop(
        hadoop, points, CLUSTERS, ROUNDS, num_reduces=2
    )
    assert np.allclose(hadoop_centroids, reference)
    reread = sum(t.records_received for r in round_results
                 for t in r.metrics.tasks if t.kind == "O")
    print(f"Hadoop baseline: {len(round_results)} chained jobs re-read"
          f" {reread} point records from HDFS ({ROUNDS}x the dataset)")

    print("\nfinal centroids (identical across engines and NumPy Lloyd):")
    for i, c in enumerate(centroids):
        print(f"  cluster {i}: ({c[0]:7.3f}, {c[1]:7.3f})")
    print("\nsee benchmarks/bench_fig10b_iteration.py for the simulated"
          " 40 GB comparison (paper: 40% improvement)")


if __name__ == "__main__":
    main()
