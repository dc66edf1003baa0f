"""WordCount on both engines, with a Counter reference."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core import FileSink, mapreduce_job, mpidrun
from repro.core.metrics import JobResult
from repro.hadoop.engine import MiniHadoopCluster
from repro.hadoop.io_formats import compute_splits
from repro.hadoop.job import HadoopJob
from repro.hdfs.client import DFSClient
from repro.hdfs.cluster import MiniDFSCluster

#: a compact vocabulary with a Zipf-like frequency profile
_VOCAB = [f"word{i:03d}" for i in range(120)]


def generate_text(
    num_lines: int, words_per_line: int = 10, seed: int = 7
) -> list[str]:
    """Zipf-distributed word lines (realistic skew for combiners)."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(1.3, size=(num_lines, words_per_line))
    ranks = np.minimum(ranks - 1, len(_VOCAB) - 1)
    return [" ".join(_VOCAB[r] for r in row) for row in ranks]


def write_text_to_dfs(dfs: DFSClient, path: str, lines: list[str]) -> None:
    dfs.write_file(path, ("\n".join(lines) + "\n").encode())


def wordcount_reference(lines: list[str]) -> dict[str, int]:
    counter: Counter = Counter()
    for line in lines:
        counter.update(line.split())
    return dict(counter)


def _mapper(_key, line, emit):
    for word in line.split():
        emit(word, 1)


def _reducer(word, counts, emit):
    emit(word, sum(counts))


def _combiner(word, counts):
    return [sum(counts)]


def wordcount_datampi(
    dfs_cluster: MiniDFSCluster,
    input_path: str,
    o_tasks: int,
    a_tasks: int,
    nprocs: int | None = None,
    conf: dict | None = None,
) -> tuple[JobResult, dict[str, int]]:
    """WordCount over HDFS text via the bipartite model; returns counts.

    Output goes through a :class:`~repro.core.output.FileSink`, so the
    counts come back intact on both rank backends (with
    ``mpi.d.launcher=processes`` the A tasks run in worker processes and
    an in-memory collector would stay empty).
    """
    dfs0 = dfs_cluster.client(None)
    splits = compute_splits(dfs0, input_path)
    from repro.hadoop.io_formats import TextInputFormat

    fmt = TextInputFormat()

    def provider(rank: int, size: int):
        dfs = dfs_cluster.client(None)
        for index in range(rank, len(splits), size):
            yield from fmt.read_split(dfs, splits[index])

    sink = FileSink.temporary("wordcount")
    try:
        job = mapreduce_job(
            "wordcount",
            provider,
            _mapper,
            _reducer,
            sink,
            o_tasks=o_tasks,
            a_tasks=a_tasks,
            conf=conf,
            combiner=_combiner,
        )
        result = mpidrun(job, nprocs=nprocs, raise_on_error=True)
        out = sink.merged()
    finally:
        sink.cleanup()
    return result, out


def wordcount_hadoop(
    hadoop: MiniHadoopCluster,
    input_path: str,
    output_path: str,
    num_reduces: int,
) -> tuple[JobResult, dict[str, int]]:
    job = HadoopJob(
        name="wordcount",
        input_path=input_path,
        output_path=output_path,
        mapper=_mapper,
        reducer=_reducer,
        combiner=_combiner,
        num_reduces=num_reduces,
    )
    result = hadoop.run_job(job)
    counts = {k: int(v) for k, v in hadoop.read_output(job)}
    return result, counts
