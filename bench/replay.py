"""Layer replay: where a workload's time goes, one layer at a time.

The traced run pushes the workload's own records through each layer's
public functions on one thread, with an in-memory span (name, start,
end, parent, workload) around every call; the spans are written out
when the run ends.  No span lives inside ``src/`` — that is a later
change — so a layer's *self time* is its span minus the spans the
replay opened inside it.

Three groups of probes share the span tree:

* **path probes** follow the job's data path in order (read → user O
  code → ``ctx.send`` dispatch → partition → SPL seal → wire codec →
  RunStore → decode → ``ctx.recv`` dispatch → user A code) at the job's
  full volume.  Summed over the layers a workload
  actually uses, plus the CPU an empty job costs, they should explain
  the job's CPU time; what they leave unexplained is threading, queueing
  and transport overhead, reported as ``replay.explained_share``.
* **component probes** time one public function on a bounded sample
  (batch build, batch sort, combine, merge, serde round trip, checkpoint).
* **world probes** need ranks: the shuffle plane and point-to-point on
  both transports, launch cost, and zero-record jobs for the fixed
  per-job and per-round cost.

Every probe runs for every workload, on that workload's records and
geometry: ``core.buffers.spl_seal.records_per_s`` is a raw 32 KiB seal
on ``terasort_*``, a Writable 32 KiB seal with the combiner on
``wordcount_threads`` and a 2 KiB streaming seal on ``topk_*``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.buffers import Block, ReceivePartitionList, SendPartitionList
from repro.core.checkpoint import CheckpointReader, CheckpointWriter
from repro.core.constants import SHUFFLE_TAG, MPI_D_Constants as K
from repro.core.context import TaskContext
from repro.core.modes import mode_is_pipelined, profile_for
from repro.core.partition import PartitionWindow
from repro.core.shuffle import PlaneConfig, ShuffleService
from repro.core.sorter import RunStore, combine_run, merge_batches, sort_block
from repro.hadoop.io_formats import TextInputFormat, compute_splits
from repro.hdfs.cluster import MiniDFSCluster
from repro.mpi import run_world
from repro.mpi.runtime import create_runtime
from repro.net import wire
from repro.serde.batch import batch_from_pairs, sort_batch
from repro.serde.comparators import default_compare
from repro.serde.serialization import get_serializer

from measure import Spans, cpu_seconds
from workloads import DFS_BLOCK_BYTES, DFS_NODES, RANKS, Workload

_clock = time.perf_counter

#: records a component probe touches at most; path probes run at full volume
PROBE_RECORDS = 50_000

#: cache that makes the RunStore spill (the ``terasort_spill`` setting)
SPILL_CACHE_BYTES = 1 << 20

#: path layers in data-path order; each gets a ``replay.<layer>.self_s``
PATH_LAYERS = (
    "hdfs.read_split",
    "workload.o_fn",
    "core.context.send",
    "core.partition",
    "core.buffers.spl_seal",
    "net.wire.batch_codec",
    "net.wire.frame_pack",
    "core.sorter.runstore_mem",
    "core.sorter.runstore_spill",
    "serde.batch.iter_pairs",
    "core.context.recv",
    "workload.a_fn",
)


@dataclass
class _Geometry:
    """The engine settings the replay mirrors, read from the mode profile."""

    num_partitions: int
    flush_bytes: int
    batch_bytes: int
    merge_threshold: int
    #: partitions one rank hosts; a rank's cache is split between them
    owned: int
    cache_bytes: int
    pipelined: bool
    checkpoint_interval: int
    serializer: Any
    cmp: Any
    combiner: Any
    raw: bool
    partitioner: Callable[[Any, Any, int], int]


def _geometry(workload: Workload, state: Any) -> _Geometry:
    profile = profile_for(workload.mode, {})
    return _Geometry(
        num_partitions=workload.a_tasks,
        flush_bytes=profile.get_bytes(K.SPL_PARTITION_BYTES),
        batch_bytes=profile.get_bytes(K.SHUFFLE_BATCH_BYTES),
        merge_threshold=profile.get_int(K.MERGE_THRESHOLD_BLOCKS),
        owned=max(1, workload.a_tasks // RANKS),
        cache_bytes=profile.get_bytes(K.MEMORY_CACHE_BYTES),
        pipelined=mode_is_pipelined(profile),
        checkpoint_interval=profile.get_int(K.FT_INTERVAL_RECORDS),
        serializer=get_serializer(profile.get_str(K.SERIALIZER)),
        **workload.seal_args(state),
    )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _keep_last(_key: Any, values: list) -> list:
    """Stand-in combiner for workloads that define none."""
    return values[-1:]


# -- path probes ------------------------------------------------------------------


class _NoSpl:
    """Stands in for the SPL so that ``ctx.send`` costs its dispatch alone."""

    def add(self, _partition: int, _key: Any, _value: Any) -> None:
        return None


class _ListPlane:
    """Stands in for a completed plane whose partition is ``records``."""

    def __init__(self, records: list) -> None:
        self.records = records

    def merged_iter(self, _partition: int):
        return iter(self.records)


def _task_context(workload: Workload, kind: str, **parts: Any) -> TaskContext:
    return TaskContext(
        kind=kind, task_id=0, o_size=workload.o_tasks, a_size=workload.a_tasks,
        round_no=0, conf=profile_for(workload.mode, workload.conf()),
        send_plane_id="fwd:0", **parts,
    )


def _envelopes(blocks: list[Block], batch_bytes: int) -> list[tuple]:
    """Shuffle messages as the sender thread coalesces them at best: per
    partition, up to ``batch_bytes`` of blocks in one envelope."""
    messages: list[tuple] = []
    held: dict[int, list[Block]] = {}
    for block in blocks:
        run = held.setdefault(block.partition_id, [])
        run.append(block)
        if sum(b.nbytes for b in run) >= batch_bytes:
            messages.append(("batch", "fwd:0", (len(messages), 0, run, False)))
            held[block.partition_id] = []
    for run in held.values():
        if run:
            messages.append(("batch", "fwd:0", (len(messages), 0, run, False)))
    return messages


def _run_store(
    spans: Spans, name: str, geo: _Geometry, blocks: list[Block], cache_bytes: int,
    sink: Callable[[int, ReceivePartitionList], None] | None,
) -> tuple[int, int, float]:
    """File every partition's blocks in an RPL the way the receiver thread
    does, then let ``sink`` read the merged partition.  Returns (records,
    spilled bytes, seconds spent writing spills)."""
    spill_dir = tempfile.mkdtemp(prefix="bench-runstore-")
    records = spilled = 0
    spill_seconds = 0.0
    with spans.span(name):
        for partition in range(geo.num_partitions):
            store = RunStore(
                geo.cmp, geo.serializer, spill_dir,
                max(1, cache_bytes // geo.owned), stem=f"replay-p{partition}",
            )
            rpl = ReceivePartitionList(partition, geo.cmp, store, geo.merge_threshold)
            for block in blocks:
                if block.partition_id == partition:
                    rpl.add_block(block)
            if sink is not None:
                sink(partition, rpl)
            records += rpl.records_received
            spilled += store.spilled_bytes
            spill_seconds += store.spill_seconds
            rpl.cleanup()
    return records, spilled, spill_seconds


def _path_probes(
    workload: Workload, state: Any, geo: _Geometry, spans: Spans,
    out: dict[str, float],
) -> tuple[list, list[Block]]:
    """The data path at full volume; returns the emitted pairs and the
    sealed blocks for the other probes to reuse."""
    with spans.span("hdfs.read_split"):
        records = workload.read_input(state)
    if records is not None:
        out["hdfs.read_split.records_per_s"] = _rate(
            len(records), spans.duration("hdfs.read_split"))
    with spans.span("workload.o_fn"):
        pairs = workload.emit_pairs(state, records)
    del records

    # what the MPI_D_SEND call adds around partitioner and SPL, per record
    send = _task_context(
        workload, "O", partitioner=lambda key, value, num: 0, spl=_NoSpl(),
        shuffle=object(), recv_plane=None,
    ).send
    with spans.span("core.context.send"):
        for key, value in pairs:
            send(key, value)
    out["core.context.send.calls_per_s"] = _rate(
        len(pairs), spans.duration("core.context.send"))

    partitioner, n = geo.partitioner, geo.num_partitions
    with spans.span("core.partition"):
        dests = [partitioner(key, value, n) for key, value in pairs]
    out["core.partition.calls_per_s"] = _rate(
        len(pairs), spans.duration("core.partition"))

    blocks: list[Block] = []
    with spans.span("core.buffers.spl_seal"):
        spl = SendPartitionList(
            n, geo.flush_bytes, geo.cmp, combiner=geo.combiner,
            serializer=geo.serializer, raw=geo.raw,
        )
        add = spl.add
        for (key, value), dest in zip(pairs, dests):
            block = add(dest, key, value)
            if block is not None:
                blocks.append(block)
        blocks.extend(spl.flush_all())
    del dests
    out["core.buffers.spl_seal.records_per_s"] = _rate(
        len(pairs), spans.duration("core.buffers.spl_seal"))

    bodies = []
    with spans.span("net.wire.batch_codec"):
        for message in _envelopes(blocks, geo.batch_bytes):
            body, flags = wire.encode_payload(message)
            wire.decode_payload(body, flags)
            bodies.append(body)
    out["net.wire.batch_codec.mb_per_s"] = _rate(
        sum(map(len, bodies)) / 1e6, spans.duration("net.wire.batch_codec"))

    # one envelope crosses two sockets: the worker packs a frame, the
    # router unpacks the header and packs it again, the receiver unpacks
    with spans.span("net.wire.frame_pack"):
        for body in bodies:
            frame = wire.pack_envelope_frame(
                context=1, source=0, tag=SHUFFLE_TAG, origin=0, dest=1,
                nbytes=len(body), payload=body, flags=wire.FLAG_BATCH,
            )
            wire.unpack_envelope_frame(frame[5:])
            frame = wire.pack_frame(wire.FrameKind.ENVELOPE, frame[5:])
            wire.unpack_envelope_frame(frame[5:])
    out["net.wire.frame_pack.frames_per_s"] = _rate(
        2 * len(bodies), spans.duration("net.wire.frame_pack"))
    del bodies

    serializer = geo.serializer

    def a_task(partition: int, rpl: ReceivePartitionList) -> None:
        """Merge, then the A task's code, the way the engine hands it the
        partition: ``recv_batch`` for raw batches held in memory,
        otherwise the merged iterator of ``recv_iter``."""
        batch = rpl.merged_batch() if geo.raw else None
        merged = list(rpl.merged()) if batch is None else None
        with spans.span("workload.a_fn"):
            workload.consume(
                state, partition, batch.iter_views() if merged is None else merged)

    def drain(_partition: int, rpl: ReceivePartitionList) -> None:
        for _record in rpl.merged():
            pass

    # the A task's code runs once, inside the store probe that is on this
    # workload's path; streaming A tasks read the live stream instead
    spills = "core.sorter.runstore_spill" in workload.path_layers
    count, _, _ = _run_store(
        spans, "core.sorter.runstore_mem", geo, blocks, geo.cache_bytes,
        None if geo.pipelined else drain if spills else a_task,
    )
    out["core.sorter.runstore_mem.records_per_s"] = _rate(
        count, spans.self_time("core.sorter.runstore_mem"))
    count, spilled, spill_seconds = _run_store(
        spans, "core.sorter.runstore_spill", geo, blocks, SPILL_CACHE_BYTES,
        a_task if spills else drain,
    )
    out["core.sorter.runstore_spill.records_per_s"] = _rate(
        count, spans.self_time("core.sorter.runstore_spill"))
    out["core.sorter.spill_mb_per_s"] = _rate(
        spilled / 1e6, spill_seconds)

    # decode at the user-function boundary: what a streaming A task pays
    # per block of its live stream
    with spans.span("serde.batch.iter_pairs"):
        decoded = [list(block.records.iter_pairs(serializer)) for block in blocks]
    out["serde.batch.iter_pairs.records_per_s"] = _rate(
        sum(map(len, decoded)), spans.duration("serde.batch.iter_pairs"))
    # what MPI_D_RECV adds per record handed to the A task
    received = [pair for records in decoded for pair in records]
    ctx = _task_context(
        workload, "A", partitioner=geo.partitioner, spl=None, shuffle=None,
        recv_plane=_ListPlane(received),
    )
    with spans.span("core.context.recv"):
        for _pair in ctx.recv_iter():
            pass
    out["core.context.recv.records_per_s"] = _rate(
        len(received), spans.duration("core.context.recv"))
    del received
    if geo.pipelined:
        with spans.span("workload.a_fn"):
            for partition in range(n):
                workload.consume(state, partition, [
                    pair for block, records in zip(blocks, decoded)
                    if block.partition_id == partition for pair in records
                ])
    return pairs, blocks


# -- component probes ---------------------------------------------------------------


def _component_probes(
    geo: _Geometry, spans: Spans, out: dict[str, float], pairs: list,
    blocks: list[Block],
) -> None:
    serializer, cmp = geo.serializer, geo.cmp
    sample = pairs[:PROBE_RECORDS]
    per_block = max(1, len(pairs) // max(1, len(blocks)))
    chunks = [sample[i : i + per_block] for i in range(0, len(sample), per_block)]

    def timed(name: str, count: int) -> None:
        out[f"{name}.records_per_s"] = _rate(count, spans.duration(name))

    if "hdfs.read_split.records_per_s" not in out:
        # no DFS input on this workload: time the text format on its
        # records all the same, off the data path
        dfs = MiniDFSCluster(num_nodes=DFS_NODES, block_size=DFS_BLOCK_BYTES).client(None)
        dfs.write_file("/probe", "".join(f"{k}\t{v}\n" for k, v in sample).encode())
        fmt = TextInputFormat()
        with spans.span("hdfs.read_split.probe"):
            count = sum(
                1 for split in compute_splits(dfs, "/probe")
                for _ in fmt.read_split(dfs, split)
            )
        out["hdfs.read_split.records_per_s"] = _rate(
            count, spans.duration("hdfs.read_split.probe"))

    with spans.span("serde.batch.build"):
        unsorted = [batch_from_pairs(c, serializer, raw=geo.raw) for c in chunks]
    timed("serde.batch.build", len(sample))

    with spans.span("serde.batch.sort"):
        for batch in unsorted:
            sort_batch(batch, cmp or default_compare, serializer)
    timed("serde.batch.sort", len(sample))
    del unsorted

    dumps, loads = serializer.dumps, serializer.loads
    with spans.span("serde.writable.roundtrip"):
        for key, value in sample:
            loads(dumps(key))
            loads(dumps(value))
    timed("serde.writable.roundtrip", len(sample))

    sorted_runs = [sort_block(c, cmp) for c in chunks]
    combiner = geo.combiner or _keep_last
    with spans.span("core.sorter.combine"):
        for sorted_run in sorted_runs:
            combine_run(sorted_run, combiner)
    timed("core.sorter.combine", len(sample))
    del sorted_runs, chunks

    # merge passes as the receiver's compaction runs them: one partition's
    # batches, ``merge_threshold`` at a time
    merged = 0
    with spans.span("core.sorter.merge_batches"):
        for partition in range(geo.num_partitions):
            run = [b.records for b in blocks if b.partition_id == partition]
            for i in range(0, len(run), geo.merge_threshold):
                if merged < PROBE_RECORDS:
                    merged += merge_batches(
                        run[i : i + geo.merge_threshold], cmp, serializer).count
    timed("core.sorter.merge_batches", merged)

    ft_dir = tempfile.mkdtemp(prefix="bench-ckpt-")
    with spans.span("core.checkpoint.write"):
        writer = CheckpointWriter(ft_dir, "probe", serializer, geo.checkpoint_interval)
        for key, value in sample:
            writer.add(key, value)
        writer.close()
    timed("core.checkpoint.write", len(sample))
    with spans.span("core.checkpoint.replay"):
        count = sum(1 for _ in CheckpointReader(ft_dir, "probe", serializer).replay())
    timed("core.checkpoint.replay", count)


# -- world probes (rank functions at module level: worker processes run them) -------


def _plane_rank(comm: Any, blocks: list[Block], geo: _Geometry) -> tuple:
    spill_dir = tempfile.mkdtemp(prefix="bench-plane-")
    service = ShuffleService(
        comm,
        lambda _plane_id: PlaneConfig(
            geo.num_partitions, PartitionWindow(geo.num_partitions, comm.size),
            geo.cmp, geo.serializer, spill_dir, geo.cache_bytes,
            geo.merge_threshold, geo.pipelined,
        ),
        batch_bytes=geo.batch_bytes,
    )
    try:
        plane = service.plane("fwd:0")
        comm.barrier()
        t0 = _clock()
        for block in blocks[comm.rank :: comm.size]:
            service.send_block("fwd:0", block)
        service.send_eos("fwd:0")
        if geo.pipelined:
            consumed = sum(1 for p in plane.rpls for _ in plane.stream_iter(p))
        else:
            plane.wait_complete(120)
            consumed = plane.records_received()
        elapsed = _clock() - t0
        comm.barrier()
        return elapsed, consumed, service.stats()
    finally:
        service.shutdown()


def _p2p_rank(comm: Any, payload: Any, rounds: int, burst: int) -> tuple[float, float]:
    """Strict ping-pong, then a one-way burst closed by an ack."""
    partner = 1 - comm.rank
    comm.barrier()
    t0 = _clock()
    for _ in range(rounds):
        if comm.rank == 0:
            comm.send(payload, dest=partner, tag=1)
            comm.recv(source=partner, tag=1)
        else:
            comm.recv(source=partner, tag=1)
            comm.send(payload, dest=partner, tag=1)
    pingpong = _clock() - t0
    comm.barrier()
    t0 = _clock()
    if comm.rank == 0:
        for _ in range(burst):
            comm.send(payload, dest=1, tag=2)
        comm.recv(source=1, tag=3)
    else:
        for _ in range(burst):
            comm.recv(source=0, tag=2)
        comm.send(None, dest=0, tag=3)
    return pingpong, _clock() - t0


def _socket_p2p_child(comm: Any, small: bytes, big: bytes, rounds: int, burst: int) -> None:
    rtt, _ = _p2p_rank(comm, small, rounds, 0)
    _, stream = _p2p_rank(comm, big, 0, burst)
    if comm.rank == 0:
        comm.parent.send((rtt, stream), dest=0, tag=5)


def _socket_p2p_driver(comm: Any, *args: Any) -> tuple[float, float]:
    inter = comm.spawn(_socket_p2p_child, RANKS, args=args, name="bench-p2p")
    return inter.recv(tag=5)


def _launch_child(comm: Any) -> None:
    comm.parent.send(comm.rank, dest=0, tag=5)


def _launch_driver(comm: Any) -> None:
    inter = comm.spawn(_launch_child, RANKS, name="bench-launch")
    for _ in range(RANKS):
        inter.recv(tag=5)


def _no_task(_ctx: Any) -> None:
    """A task that emits and consumes nothing."""


def _empty_job(workload: Workload, launcher: str, mode: Mode, rounds: int = 1) -> float:
    """Wall seconds of a job with the workload's task counts and no records."""
    job = DataMPIJob(
        name=f"empty-{launcher}", o_fn=_no_task, a_fn=_no_task,
        o_tasks=workload.o_tasks, a_tasks=workload.a_tasks, mode=mode,
        rounds=rounds, conf={K.LAUNCHER: launcher},
    )
    t0 = _clock()
    mpidrun(job, nprocs=RANKS, raise_on_error=True)
    return _clock() - t0


def _world_probes(
    workload: Workload, geo: _Geometry, spans: Spans, out: dict[str, float],
    blocks: list[Block],
) -> None:
    with spans.span("core.shuffle.plane"):
        results = run_world(RANKS, _plane_rank, blocks, geo)
    sent = sum(block.count for block in blocks)
    if sum(r[1] for r in results) != sent:
        raise RuntimeError("shuffle plane probe lost records")
    out["core.shuffle.plane.records_per_s"] = _rate(sent, max(r[0] for r in results))
    out["core.shuffle.blocks_per_envelope"] = _rate(
        sum(r[2]["blocks_sent"] for r in results),
        sum(r[2]["envelopes_sent"] for r in results))

    rounds, burst = 300, 3000
    with spans.span("mpi.transport.p2p"):
        results = run_world(RANKS, _p2p_rank, blocks[0], rounds, burst)
    pingpong, stream = (max(r[i] for r in results) for i in (0, 1))
    out["mpi.transport.p2p_rtt_us"] = pingpong / rounds * 1e6
    out["mpi.transport.p2p_msgs_per_s"] = _rate(burst, stream)

    # the router hop with the envelope size the shuffle coalesces to
    big = bytes(geo.batch_bytes)
    rounds, burst = 200, 40
    with spans.span("mpi.socket_transport.p2p"):
        pingpong, stream = create_runtime("processes").run(
            _socket_p2p_driver, 1, args=(b"x" * 64, big, rounds, burst), timeout=60,
        )[0]
    out["mpi.socket_transport.p2p_rtt_us"] = pingpong / rounds * 1e6
    out["mpi.socket_transport.p2p_mb_per_s"] = _rate(burst * len(big) / 1e6, stream)

    for launcher in ("threads", "processes"):
        with spans.span(f"mpi.runtime.launch_{launcher}"):
            create_runtime(launcher).run(_launch_driver, 1, timeout=60)
        out[f"mpi.runtime.launch_{launcher}_s"] = spans.duration(
            f"mpi.runtime.launch_{launcher}")
        with spans.span(f"core.engine.empty_job_{launcher}") as row:
            cpu0 = cpu_seconds()
            _empty_job(workload, launcher, workload.mode)
            row["cpu_s"] = cpu_seconds() - cpu0
        out[f"core.engine.empty_job_{launcher}_s"] = spans.duration(
            f"core.engine.empty_job_{launcher}")

    extra_rounds = 5
    with spans.span("core.engine.empty_round"):
        many = _empty_job(workload, "threads", Mode.ITERATION, 1 + extra_rounds)
        one = _empty_job(workload, "threads", Mode.ITERATION)
    out["core.engine.empty_round_s"] = (many - one) / extra_rounds


def run(workload: Workload, state: Any, spans: Spans) -> tuple[dict[str, float], int]:
    """Every probe for one workload; returns the layers' rate metrics and
    how many pairs one replay pass emitted.  The spans keep the self
    times (:meth:`Spans.self_time`)."""
    geo = _geometry(workload, state)
    out: dict[str, float] = {}
    with spans.span("replay"):
        pairs, blocks = _path_probes(workload, state, geo, spans, out)
        _component_probes(geo, spans, out, pairs, blocks)
        _world_probes(workload, geo, spans, out, blocks)
    return out, len(pairs)


def empty_job_cpu(spans: Spans, launcher: str) -> float:
    """CPU seconds the empty job took on ``launcher``."""
    return next(
        row["cpu_s"] for row in spans.rows
        if row["name"] == f"core.engine.empty_job_{launcher}"
    )
