"""Simulated cluster hardware: the paper's two testbeds.

Testbed A: 17 nodes (1 master + 16 slaves), dual octa-core 2.1 GHz
Opterons, 64 GB RAM, one 500 GB HDD, 1GigE.  Testbed B: 65 nodes, dual
quad-core 2.67 GHz Xeons, 12 GB RAM, one HDD, 1GigE (§V-A).

The single HDD per node is load-bearing: "the disk will easily become
the bottleneck" (§V-B).  :class:`SharedDisk` serves concurrent streams
round-robin in chunks with a seek penalty on every stream switch, which
is what makes high task concurrency hurt (Fig 8b) and map-output spills
steal input-read bandwidth (Fig 11b).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.common.units import GiB, MiB
from repro.simulate.engine import Event, Simulator
from repro.simulate.resources import Cores, Device, MemoryGauge


@dataclass(frozen=True)
class NodeSpec:
    cores: int
    ram_bytes: float
    disk_rate: float          # sequential bytes/s (one HDD)
    disk_seek: float          # seconds lost per stream switch
    nic_rate: float           # payload bytes/s each direction


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    num_slaves: int
    node: NodeSpec
    default_block_size: int
    map_slots: int
    reduce_slots: int

    def with_slaves(self, num_slaves: int) -> "ClusterSpec":
        return ClusterSpec(
            self.name, num_slaves, self.node, self.default_block_size,
            self.map_slots, self.reduce_slots,
        )

    def with_slots(self, map_slots: int, reduce_slots: int) -> "ClusterSpec":
        return ClusterSpec(
            self.name, self.num_slaves, self.node, self.default_block_size,
            map_slots, reduce_slots,
        )


#: 1GigE payload goodput (94% framing efficiency)
_GIGE_GOODPUT = 117e6
#: contemporary 7.2k HDD
_HDD_RATE = 110e6
_HDD_SEEK = 8e-3

TESTBED_A = ClusterSpec(
    name="Testbed A",
    num_slaves=16,
    node=NodeSpec(
        cores=16,
        ram_bytes=64 * GiB,
        disk_rate=_HDD_RATE,
        disk_seek=_HDD_SEEK,
        nic_rate=_GIGE_GOODPUT,
    ),
    default_block_size=256 * MiB,
    map_slots=4,
    reduce_slots=4,
)

TESTBED_B = ClusterSpec(
    name="Testbed B",
    num_slaves=64,
    node=NodeSpec(
        cores=8,
        ram_bytes=12 * GiB,
        # "single HDD (less than 80 GB free space)" (§V-A): old and nearly
        # full disks run in their slow inner-track zones
        disk_rate=60e6,
        disk_seek=_HDD_SEEK,
        nic_rate=_GIGE_GOODPUT,
    ),
    default_block_size=128 * MiB,
    map_slots=2,
    reduce_slots=2,
)


class SharedDisk:
    """One HDD served round-robin across streams, chunked, with seeks.

    Each ``transfer`` is a stream; the head moves between active streams
    every chunk, paying a seek each time it switches.  A single stream
    gets the full sequential rate; eight interleaved streams lose
    ``seek/chunk_time`` of it — the concurrency penalty of Fig 8(b).
    """

    CHUNK = 8 * MiB

    def __init__(self, sim: Simulator, spec: NodeSpec, name: str = "disk") -> None:
        self.sim = sim
        self.rate = spec.disk_rate
        self.seek = spec.disk_seek
        self.name = name
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self._streams: deque[list] = deque()  # [remaining, done_event, kind]
        #: the stream whose chunk is being served; None while the disk idles
        self._last_stream: object = None

    def transfer(self, nbytes: float, kind: str = "read") -> Event:
        """Event firing when this stream's bytes are fully served."""
        done = self.sim.event()
        if nbytes <= 0:
            done.succeed()
            return done
        self._streams.append([float(nbytes), done, kind])
        if self._last_stream is None:
            self._serve_next()
        return done

    def read(self, nbytes: float) -> Event:
        return self.transfer(nbytes, "read")

    def write(self, nbytes: float) -> Event:
        return self.transfer(nbytes, "write")

    def _serve_next(self) -> None:
        stream = self._streams.popleft()
        remaining, _, kind = stream
        chunk = min(self.CHUNK, remaining)
        cost = chunk / self.rate
        if self._last_stream is not stream and self._last_stream is not None:
            # seeks lengthen mildly with queue depth: more concurrent
            # streams are spread wider across the platter
            depth = 1 + len(self._streams)
            cost += self.seek * min(2.0, math.log2(1 + depth) / 1.8)
        self._last_stream = stream
        if kind == "read":
            self.bytes_read += chunk
        else:
            self.bytes_written += chunk
        self.sim.timeout(cost).then(lambda _: self._chunk_done(stream, chunk))

    def _chunk_done(self, stream: list, chunk: float) -> None:
        stream[0] -= chunk
        if stream[0] > 0:
            self._streams.append(stream)  # round-robin
        else:
            stream[1].succeed()
        if self._streams:
            self._serve_next()
        else:
            self._last_stream = None


class SimNode:
    """Simulated slave node."""

    def __init__(self, sim: Simulator, node_id: int, spec: NodeSpec) -> None:
        self.node_id = node_id
        self.spec = spec
        self.cpu = Cores(sim, spec.cores, f"cpu{node_id}")
        self.disk = SharedDisk(sim, spec, f"disk{node_id}")
        self.nic_out = Device(sim, spec.nic_rate, f"nic-out{node_id}")
        self.nic_in = Device(sim, spec.nic_rate, f"nic-in{node_id}")
        self.mem = MemoryGauge(spec.ram_bytes, f"mem{node_id}")


class SimCluster:
    """All slave nodes of one testbed under one simulator."""

    def __init__(self, spec: ClusterSpec, sim: Simulator | None = None) -> None:
        self.spec = spec
        self.sim = sim or Simulator()
        self.nodes = [SimNode(self.sim, i, spec.node) for i in range(spec.num_slaves)]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # -- cluster-wide cumulative counters (for the profiler) ----------------------
    def total_disk_read(self) -> float:
        return sum(n.disk.bytes_read for n in self.nodes)

    def total_disk_written(self) -> float:
        return sum(n.disk.bytes_written for n in self.nodes)

    def total_net_bytes(self) -> float:
        return sum(n.nic_out.bytes_transferred for n in self.nodes)

    def total_cpu_busy(self) -> int:
        return sum(n.cpu.busy for n in self.nodes)

    def total_cores(self) -> int:
        return sum(n.cpu.n for n in self.nodes)

    def total_mem_used(self) -> float:
        return sum(n.mem.used for n in self.nodes)
