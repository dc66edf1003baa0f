"""Mini-Hadoop: the MapReduce baseline the paper compares against.

A functional reproduction of the Hadoop 1.x execution architecture at
the granularity the paper discusses (§IV-B, Figure 5):

* **JobTracker** — splits input by HDFS block, schedules map tasks with
  data-locality preference, launches reduces only after maps complete;
* **MapTask** — collects into the engine's own buffers: a
  ``SendPartitionList`` frames, sorts and combines, a ``RunStore`` per
  partition spills past ``io.sort.mb``; at task end each partition's
  merged segment is written to the job's local directory on disk and
  registered with the host's shuffle server;
* **proxy-based two-phase shuffle** — reduce tasks *pull* map output
  segments as bytes from per-TaskTracker HTTP-style servers;
* **ReduceTask** — copy, merge (a ``RunStore``, as an A task's), reduce,
  write ``part-r-NNNNN`` to HDFS.

This is the "two-phase and proxy-based data movement approach" whose
lack of reduce-side locality and delayed shuffle DataMPI's O-side
pipeline removes.
"""

from repro.hadoop.engine import MiniHadoopCluster
from repro.hadoop.job import HadoopJob
from repro.hadoop.io_formats import (
    FixedLengthRecordFormat,
    KeyValueTextOutputFormat,
    TextInputFormat,
)

__all__ = [
    "MiniHadoopCluster",
    "HadoopJob",
    "TextInputFormat",
    "FixedLengthRecordFormat",
    "KeyValueTextOutputFormat",
]
