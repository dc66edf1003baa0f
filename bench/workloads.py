"""The seven benchmark workloads (``BENCHMARK.json`` lists four of them).

Every workload runs the real ``repro.core`` engine on two ranks (this
box has two cores) with more tasks than ranks, so the scheduler queues.
A workload knows how to build its inputs from a seed (``setup``), run
one job (``run``), check the output against a single-process reference
(``verify``) and run the paper's baseline engine on the same input
(``baseline``).  The layer replay in :mod:`replay` additionally needs
the workload's O-side records and its user functions without the engine
around them (``emit_pairs``, ``consume``, ``seal_args``).

Sizes are chosen so one closed-loop job takes 0.2 to 0.4 s, twenty times
the cost of an empty job: on this shared host a short job has a far
better chance than a long one to run undisturbed (README, "Steadiness"),
and a run fits some eighty of them.  ``scale`` shrinks the sizes for the
smoke suite.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import JobResult
from repro.core.partition import hash_partitioner, range_partitioner
from repro.hadoop.engine import MiniHadoopCluster
from repro.hadoop.io_formats import (
    FixedLengthRecordFormat,
    TextInputFormat,
    compute_splits,
)
from repro.hdfs.cluster import MiniDFSCluster
from repro.serde.comparators import bytes_compare, default_compare
from repro.workloads import pagerank as pagerank_mod
from repro.workloads import wordcount as wordcount_mod
from repro.workloads.pagerank import (
    generate_graph,
    pagerank_datampi,
    pagerank_hadoop,
    pagerank_reference,
)
from repro.workloads.teragen import KEY_LEN, RECORD_LEN, teragen_to_dfs
from repro.workloads.terasort import (
    sample_boundaries,
    terasort_datampi,
    terasort_hadoop,
    verify_terasort_output,
)
from repro.workloads.topk import (
    generate_stream,
    merge_topk,
    topk_reference,
    topk_s4,
)
from repro.workloads.wordcount import (
    generate_text,
    wordcount_datampi,
    wordcount_hadoop,
    wordcount_reference,
    write_text_to_dfs,
)

#: ranks every workload runs on; fixed at this box's core count so the
#: numbers of successive PRs stay comparable
RANKS = 2

#: MiniDFS geometry shared by the DFS-backed workloads (250 KB blocks on
#: four datanodes, i.e. 2500 TeraSort records per split)
DFS_NODES = 4
DFS_BLOCK_BYTES = 2500 * RECORD_LEN

TOPK_K = 10
TOPK_VOCAB = 5000
#: a generator that is this far behind its schedule half of the time no
#: longer offers the stated load, so the run counts as failed.  A single
#: stall does not: events carry their due time, so it shows as latency.
MAX_LATE_MS = 20.0


@dataclass
class RunOutput:
    """What one job run hands back to the measuring loop."""

    result: JobResult
    output: Any
    #: per-event latencies in seconds (streaming workloads only)
    latencies: list[float] = field(default_factory=list)
    #: how far the open-loop generator ran behind its schedule: the
    #: median over its send bursts, and the worst burst
    late_ms: float = 0.0
    max_late_ms: float = 0.0


class Workload:
    """One (input, job) pair.  Subclasses fill in the hooks."""

    name = ""
    why = ""
    mode = Mode.MAPREDUCE
    o_tasks = 4
    a_tasks = 4
    #: layers of the replay that lie on this workload's data path
    path_layers: tuple[str, ...] = ()
    #: events arrive on a schedule, so latency is per event, not per job
    open_loop = False

    def conf(self) -> dict:
        """Job configuration on top of the mode profile."""
        return {}

    def setup(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def records(self, state: Any) -> int:
        """Input records of one job (for records-per-second figures)."""
        raise NotImplementedError

    def run(self, state: Any, conf: dict | None = None) -> RunOutput:
        raise NotImplementedError

    def verify(self, state: Any, out: RunOutput) -> bool:
        raise NotImplementedError

    def baseline(self, state: Any) -> tuple[float, int]:
        """Run the baseline engine; returns (wall seconds, records)."""
        raise NotImplementedError

    # -- layer replay hooks -----------------------------------------------------
    def read_input(self, state: Any) -> list | None:
        """The job's input records read through the HDFS layer, or
        ``None`` when the job's input does not come from the DFS."""
        return None

    def emit_pairs(self, state: Any, records: list | None) -> list[tuple[Any, Any]]:
        """One pass of the O tasks' user code outside the engine: the
        pairs they would ``ctx.send``."""
        raise NotImplementedError

    def seal_args(self, state: Any) -> dict:
        """How the engine's SPL is set up for this job (besides the
        geometry, which comes from the mode profile)."""
        raise NotImplementedError

    def consume(self, state: Any, partition: int, records: Any) -> Any:
        """The A task's user code over one merged partition."""
        raise NotImplementedError


def _read_splits(cluster: MiniDFSCluster, path: str, fmt: Any) -> list:
    """Every record of a DFS file, split by split, the way O tasks read it."""
    dfs = cluster.client(None)
    return [
        record
        for split in compute_splits(dfs, path)
        for record in fmt.read_split(dfs, split)
    ]


# -- TeraSort -------------------------------------------------------------------


class TeraSort(Workload):
    """``terasort_datampi`` over a MiniDFS; three variants share the input."""

    def __init__(self, name: str, why: str, launcher: str, cache_bytes: int | None,
                 path_layers: tuple[str, ...]) -> None:
        self.name = name
        self.why = why
        self.launcher = launcher
        self.cache_bytes = cache_bytes
        self.path_layers = path_layers

    def conf(self) -> dict:
        conf: dict = {K.LAUNCHER: self.launcher}
        if self.cache_bytes is not None:
            conf[K.MEMORY_CACHE_BYTES] = self.cache_bytes
        return conf

    def setup(self, seed: int, scale: float) -> dict:
        num_records = max(2 * DFS_BLOCK_BYTES // RECORD_LEN, int(50_000 * scale))
        cluster = MiniDFSCluster(num_nodes=DFS_NODES, block_size=DFS_BLOCK_BYTES)
        teragen_to_dfs(cluster.client(0), "/tera/in", num_records, seed=seed)
        return {"cluster": cluster, "records": num_records, "runs": 0}

    def records(self, state: dict) -> int:
        return state["records"]

    def run(self, state: dict, conf: dict | None = None) -> RunOutput:
        state["runs"] += 1
        out_path = f"/tera/out-{state['runs']}"
        result = terasort_datampi(
            state["cluster"], "/tera/in", out_path,
            o_tasks=self.o_tasks, a_tasks=self.a_tasks, nprocs=RANKS,
            conf={**self.conf(), **(conf or {})},
        )
        return RunOutput(result, out_path)

    def verify(self, state: dict, out: RunOutput) -> bool:
        dfs = state["cluster"].client(None)
        ok = verify_terasort_output(dfs, out.output, state["records"])
        for path in dfs.listdir(out.output):  # the DFS is in memory
            dfs.delete(path)
        return ok

    def baseline(self, state: dict) -> tuple[float, int]:
        hadoop = MiniHadoopCluster(state["cluster"])
        t0 = time.perf_counter()
        result = terasort_hadoop(hadoop, "/tera/in", "/tera/out-hadoop", self.a_tasks)
        wall = time.perf_counter() - t0
        if not (result.success and self.verify(
                state, RunOutput(None, "/tera/out-hadoop"))):
            raise RuntimeError("mini-Hadoop TeraSort output is wrong")
        return wall, state["records"]

    def read_input(self, state: dict) -> list:
        return _read_splits(
            state["cluster"], "/tera/in", FixedLengthRecordFormat(RECORD_LEN, KEY_LEN))

    def emit_pairs(self, state: dict, records: list | None) -> list[tuple[Any, Any]]:
        return records  # the O task only forwards what it reads

    def seal_args(self, state: dict) -> dict:
        dfs = state["cluster"].client(None)
        boundaries = sample_boundaries(dfs, "/tera/in", self.a_tasks)
        return {
            "partitioner": range_partitioner(boundaries),
            "cmp": bytes_compare,
            "combiner": None,
            "raw": True,
        }

    def consume(self, state: dict, partition: int, records: Any) -> Any:
        out = bytearray()
        for key, value in records:
            out += key
            out += value
        return out


# -- WordCount ------------------------------------------------------------------


class WordCount(Workload):
    name = "wordcount_threads"
    why = ("map, combine and Writable serde dominate and the combiner leaves "
           "almost nothing to shuffle: a shuffle or transport change must not "
           "move it")
    a_tasks = 2
    path_layers = (
        "hdfs.read_split", "workload.o_fn", "core.context.send", "core.partition",
        "core.buffers.spl_seal", "core.sorter.runstore_mem", "core.context.recv",
        "workload.a_fn",
    )

    def setup(self, seed: int, scale: float) -> dict:
        lines = generate_text(max(200, int(8000 * scale)), 12, seed=seed)
        cluster = MiniDFSCluster(num_nodes=DFS_NODES, block_size=DFS_BLOCK_BYTES)
        write_text_to_dfs(cluster.client(0), "/wc/in", lines)
        return {"cluster": cluster, "lines": lines}

    def records(self, state: dict) -> int:
        return len(state["lines"])

    def run(self, state: dict, conf: dict | None = None) -> RunOutput:
        result, counts = wordcount_datampi(
            state["cluster"], "/wc/in", self.o_tasks, self.a_tasks,
            nprocs=RANKS, conf=conf,
        )
        return RunOutput(result, counts)

    def verify(self, state: dict, out: RunOutput) -> bool:
        if "reference" not in state:
            state["reference"] = wordcount_reference(state["lines"])
        return out.output == state["reference"]

    def baseline(self, state: dict) -> tuple[float, int]:
        hadoop = MiniHadoopCluster(state["cluster"])
        t0 = time.perf_counter()
        _result, counts = wordcount_hadoop(hadoop, "/wc/in", "/wc/out-hadoop",
                                           self.a_tasks)
        wall = time.perf_counter() - t0
        if not self.verify(state, RunOutput(None, counts)):
            raise RuntimeError("mini-Hadoop WordCount output is wrong")
        return wall, len(state["lines"])

    def read_input(self, state: dict) -> list:
        return _read_splits(state["cluster"], "/wc/in", TextInputFormat())

    def emit_pairs(self, state: dict, records: list | None) -> list[tuple[Any, Any]]:
        pairs: list[tuple[Any, Any]] = []
        emit = lambda key, value: pairs.append((key, value))  # noqa: E731
        for offset, line in records:
            wordcount_mod._mapper(offset, line, emit)
        return pairs

    def seal_args(self, state: dict) -> dict:
        return {
            "partitioner": hash_partitioner,
            "cmp": default_compare,
            "combiner": wordcount_mod._combiner,
            "raw": False,
        }

    def consume(self, state: dict, partition: int, records: Any) -> Any:
        from repro.core.sorter import group_by_key

        counts: dict[str, int] = {}
        emit = counts.__setitem__
        for word, values in group_by_key(records):
            wordcount_mod._reducer(word, values, emit)
        return counts


# -- PageRank -------------------------------------------------------------------


class PageRank(Workload):
    name = "pagerank_threads"
    why = ("Iteration mode: many small numeric records on forward and reverse "
           "planes with a barrier per round, so merge and control cost dominate")
    mode = Mode.ITERATION
    rounds = 5
    path_layers = (
        "workload.o_fn", "core.context.send", "core.partition",
        "core.buffers.spl_seal", "core.sorter.runstore_mem", "core.context.recv",
        "workload.a_fn",
    )

    def setup(self, seed: int, scale: float) -> dict:
        graph = generate_graph(max(100, int(800 * scale)), 8, seed=seed)
        return {"graph": graph}

    def records(self, state: dict) -> int:
        # one record per edge plus one per node, each round
        graph = state["graph"]
        return self.rounds * (sum(map(len, graph.values())) + len(graph))

    def run(self, state: dict, conf: dict | None = None) -> RunOutput:
        if conf:
            # pagerank_datampi takes no conf; hand it one through the name
            # it resolves mpidrun by, so the traced run uses the real job
            def with_conf(job: DataMPIJob, **kwargs: Any) -> JobResult:
                job.conf = {**dict(job.conf), **conf}
                return mpidrun(job, **kwargs)

            pagerank_mod.mpidrun = with_conf
        try:
            result, ranks = pagerank_datampi(
                state["graph"], self.rounds, self.o_tasks, self.a_tasks,
                nprocs=RANKS,
            )
        finally:
            pagerank_mod.mpidrun = mpidrun
        return RunOutput(result, ranks)

    def verify(self, state: dict, out: RunOutput) -> bool:
        if "reference" not in state:
            state["reference"] = pagerank_reference(state["graph"], self.rounds)
        reference = state["reference"]
        ranks = out.output
        return ranks.keys() == reference.keys() and all(
            abs(ranks[node] - reference[node]) <= 1e-12 for node in reference
        )

    def baseline(self, state: dict) -> tuple[float, int]:
        cluster = MiniDFSCluster(num_nodes=DFS_NODES, block_size=DFS_BLOCK_BYTES)
        hadoop = MiniHadoopCluster(cluster)
        t0 = time.perf_counter()
        _results, ranks = pagerank_hadoop(hadoop, state["graph"], self.rounds,
                                          self.a_tasks)
        wall = time.perf_counter() - t0
        if not self.verify(state, RunOutput(None, ranks)):
            raise RuntimeError("mini-Hadoop PageRank output is wrong")
        return wall, self.records(state)

    def emit_pairs(self, state: dict, records: list | None) -> list[tuple[Any, Any]]:
        # round 0's forward plane; the replay scales by the job's emit count
        graph = state["graph"]
        rank0 = 1.0 / len(graph)
        pairs: list[tuple[Any, Any]] = []
        for node, neighbors in graph.items():
            share = rank0 / len(neighbors)
            for dst in neighbors:
                pairs.append((dst, share))
            pairs.append((node, 0.0))
        return pairs

    def seal_args(self, state: dict) -> dict:
        return {
            "partitioner": lambda key, value, num: key % num,
            "cmp": None,
            "combiner": None,
            "raw": False,
        }

    def consume(self, state: dict, partition: int, records: Any) -> Any:
        n = len(state["graph"])
        sums: dict[int, float] = {}
        for node, contribution in records:
            sums[node] = sums.get(node, 0.0) + contribution
        return {
            node: (1 - pagerank_mod.ALPHA) / n + pagerank_mod.ALPHA * total
            for node, total in sums.items()
        }


# -- Top-K ----------------------------------------------------------------------


class TopK(Workload):
    """Streaming-mode Top-K, open loop at ``rate`` events/s or unthrottled.

    The job is defined here and not taken from ``repro.workloads.topk``
    because the open loop has to stamp each event with the time it was
    *due*, not the time it was sent: a stalled pipeline then shows as
    latency on every event it delayed.
    """

    mode = Mode.STREAMING
    o_tasks = 2
    a_tasks = 2
    path_layers = (
        "workload.o_fn", "core.context.send", "core.partition",
        "core.buffers.spl_seal", "core.sorter.runstore_mem",
        "serde.batch.iter_pairs", "core.context.recv", "workload.a_fn",
    )
    #: events the S4 baseline processes; it manages ~17k events/s, so the
    #: whole stream would not fit the traced run
    baseline_events = 20_000

    def __init__(self, name: str, why: str, rate: float | None, events: int) -> None:
        self.name = name
        self.why = why
        self.rate = rate
        self.open_loop = rate is not None
        self.events = events

    def setup(self, seed: int, scale: float) -> dict:
        events = max(2000, int(self.events * scale))
        return {"words": generate_stream(events, vocab=TOPK_VOCAB, seed=seed)}

    def records(self, state: dict) -> int:
        return len(state["words"])

    def run(self, state: dict, conf: dict | None = None) -> RunOutput:
        words = state["words"]
        rate = self.rate
        partials: list[tuple[str, int]] = []
        latencies: list[float] = []
        late: list[tuple[float, float]] = []
        lock = threading.Lock()
        clock = time.perf_counter

        def o_fn(ctx: Any) -> None:
            mine = words[ctx.rank::ctx.o_size]
            if rate is None:  # closed loop: next event when send returns
                for word in mine:
                    ctx.send(word, clock())
                return
            per_task = rate / ctx.o_size
            t0 = clock()
            sent = 0
            behind: list[float] = []
            while sent < len(mine):
                now = clock()
                due_count = min(len(mine), int((now - t0) * per_task) + 1)
                if due_count <= sent:
                    time.sleep(max(0.0, t0 + sent / per_task - now))
                    continue
                behind.append(now - (t0 + sent / per_task))
                for index in range(sent, due_count):
                    ctx.send(mine[index], t0 + index / per_task)
                sent = due_count
            with lock:
                late.append((statistics.median(behind), max(behind)))

        def a_fn(ctx: Any) -> None:
            counts: dict[str, int] = {}
            local: list[float] = []
            for word, due in ctx.recv_iter():
                counts[word] = counts.get(word, 0) + 1
                local.append(clock() - due)
            top = heapq.nsmallest(TOPK_K, counts.items(),
                                  key=lambda kv: (-kv[1], kv[0]))
            with lock:
                partials.extend(top)
                latencies.extend(local)

        job = DataMPIJob(
            name=self.name, o_fn=o_fn, a_fn=a_fn,
            o_tasks=self.o_tasks, a_tasks=self.a_tasks,
            mode=Mode.STREAMING, conf=dict(conf or {}),
        )
        result = mpidrun(job, nprocs=RANKS, raise_on_error=True)
        return RunOutput(
            result, merge_topk(partials, TOPK_K), latencies,
            late_ms=max((m for m, _ in late), default=0.0) * 1e3,
            max_late_ms=max((w for _, w in late), default=0.0) * 1e3,
        )

    def verify(self, state: dict, out: RunOutput) -> bool:
        if "reference" not in state:
            state["reference"] = topk_reference(state["words"], TOPK_K)
        return (
            out.output == state["reference"]
            and len(out.latencies) == len(state["words"])
            and out.late_ms <= MAX_LATE_MS
        )

    def baseline(self, state: dict) -> tuple[float, int]:
        words = state["words"][: self.baseline_events]
        t0 = time.perf_counter()
        top, _latencies = topk_s4(words, TOPK_K, num_nodes=RANKS)
        wall = time.perf_counter() - t0
        if top != topk_reference(words, TOPK_K):
            raise RuntimeError("mini-S4 Top-K output is wrong")
        return wall, len(words)

    def emit_pairs(self, state: dict, records: list | None) -> list[tuple[Any, Any]]:
        clock = time.perf_counter
        return [(word, clock()) for word in state["words"]]

    def seal_args(self, state: dict) -> dict:
        return {
            "partitioner": hash_partitioner,
            "cmp": None,
            "combiner": None,
            "raw": False,
        }

    def consume(self, state: dict, partition: int, records: Any) -> Any:
        counts: dict[str, int] = {}
        for word, _due in records:
            counts[word] = counts.get(word, 0) + 1
        return heapq.nsmallest(TOPK_K, counts.items(),
                               key=lambda kv: (-kv[1], kv[0]))


_TERASORT_PATH = (
    "hdfs.read_split", "workload.o_fn", "core.context.send", "core.partition",
    "core.buffers.spl_seal", "workload.a_fn",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        TeraSort(
            "terasort_threads",
            "shuffle-bound raw-bytes MapReduce on the default backend: sealing, "
            "coalescing and the in-memory merge do the work, user code none",
            "threads", None, _TERASORT_PATH + ("core.sorter.runstore_mem",),
        ),
        TeraSort(
            "terasort_processes",
            "same input on OS-process ranks: adds the wire codec and the socket "
            "router hop, so the pair with terasort_threads isolates the transport",
            "processes", None,
            _TERASORT_PATH + ("core.sorter.runstore_mem", "net.wire.batch_codec",
                              "net.wire.frame_pack"),
        ),
        TeraSort(
            "terasort_spill",
            "same input with a 1 MiB cache: the RunStore spills and merges from "
            "disk, the same layer used the other way",
            # with runs on disk recv_batch gives up and the A task iterates
            "threads", 1 << 20,
            _TERASORT_PATH + ("core.sorter.runstore_spill", "core.context.recv"),
        ),
        WordCount(),
        PageRank(),
        TopK(
            "topk_stream_20k",
            "open loop at 20000 events/s, a fraction of capacity: per-event "
            "latency_* (elsewhere they repeat job_wall_s in ms) is buffer fill "
            "plus delivery, which a larger flush threshold worsens",
            20_000.0, 40_000,
        ),
        TopK(
            "topk_stream_max",
            "unthrottled closed loop: saturated pipelined delivery, the "
            "throughput side of the layer topk_stream_20k measures for latency",
            None, 40_000,
        ),
    )
}
