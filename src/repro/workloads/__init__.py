"""Benchmark workloads (paper §V).

Five applications spanning the three Big Data computing models the paper
evaluates, each with a DataMPI implementation, a baseline implementation
(mini-Hadoop or mini-S4), and an independent reference for correctness:

====================  ============  =======================================
Workload              Model         Reference
====================  ============  =======================================
TeraSort              MapReduce     global byte-order check
WordCount             MapReduce     ``collections.Counter``
PageRank              Iteration     ``networkx.pagerank``
K-means               Iteration     NumPy Lloyd iteration
Top-K                 Streaming     heap over full stream
Sort (Listing 1)      Common        ``sorted``
====================  ============  =======================================
"""

from repro.workloads.teragen import teragen, teragen_to_dfs
from repro.workloads.terasort import (
    sample_boundaries,
    terasort_datampi,
    terasort_hadoop,
    verify_terasort_output,
)
from repro.workloads.wordcount import (
    generate_text,
    wordcount_datampi,
    wordcount_hadoop,
    wordcount_reference,
)
from repro.workloads.pagerank import (
    generate_graph,
    pagerank_datampi,
    pagerank_hadoop,
    pagerank_reference,
)
from repro.workloads.kmeans import (
    generate_points,
    kmeans_datampi,
    kmeans_hadoop,
    kmeans_reference,
)
from repro.workloads.topk import (
    generate_stream,
    topk_datampi,
    topk_reference,
    topk_s4,
)

__all__ = [
    "teragen",
    "teragen_to_dfs",
    "sample_boundaries",
    "terasort_datampi",
    "terasort_hadoop",
    "verify_terasort_output",
    "generate_text",
    "wordcount_datampi",
    "wordcount_hadoop",
    "wordcount_reference",
    "generate_graph",
    "pagerank_datampi",
    "pagerank_hadoop",
    "pagerank_reference",
    "generate_points",
    "kmeans_datampi",
    "kmeans_hadoop",
    "kmeans_reference",
    "generate_stream",
    "topk_datampi",
    "topk_s4",
    "topk_reference",
]
