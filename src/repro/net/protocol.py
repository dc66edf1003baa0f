"""Protocol stack transfer-cost models (Figure 1a machinery).

Each stack models a bulk transfer of ``total_size`` bytes moved in
``packet_size`` chunks as a *serial* per-chunk pipeline:

    t_chunk = fixed_per_chunk + chunk/wire_rate + copies * chunk/copy_rate

Achieved bandwidth is ``total/sum(t_chunk)``.  The decisive differences
between the three systems are mechanistic, not tuned per figure:

* **MVAPICH2** (native MPI): zero-copy RDMA on IB, a single registered-
  buffer copy on Ethernet, microsecond-scale per-message costs.
* **DataMPI** (Java binding over native MPI): identical wire path plus a
  JNI boundary crossing and one JVM-heap copy per chunk — which is why
  the paper observes it "slightly lower than MVAPICH2" (§I-A).
* **Hadoop Jetty** (HTTP shuffle server): kernel TCP path plus an HTTP
  transaction per chunk (request parse, servlet dispatch) and three
  JVM-side copies (file→heap, heap→chunked encoder, encoder→socket).
  On fast fabrics the copies bound throughput (software ceiling); on
  1GigE the wire is the bottleneck, so Jetty is only slightly slower —
  exactly the Figure 1(a) shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.fabric import Fabric

#: JVM memory copy rate, bytes/s (heap-to-heap memcpy incl. GC pressure).
JVM_COPY_RATE = 2.4e9
#: Native (registered buffer) copy rate, bytes/s.
NATIVE_COPY_RATE = 12.0e9


@dataclass(frozen=True)
class ProtocolStack:
    """A protocol's per-chunk serial cost model."""

    name: str
    #: fixed software cost per chunk, seconds (syscalls, dispatch, headers)
    per_chunk_cost: float
    #: number of memory copies each payload byte suffers
    copies: float
    #: bytes/s for each copy
    copy_rate: float
    #: True if the stack can use native verbs when the fabric offers them
    uses_rdma: bool
    #: extra fixed cost per chunk on RDMA (JNI crossing etc.), seconds
    rdma_extra_cost: float = 0.0

    def wire_rate(self, fabric: Fabric) -> float:
        """Payload bytes/s this stack can push onto ``fabric``'s wire."""
        if self.uses_rdma and fabric.has_rdma:
            rate = fabric.rdma_goodput
            assert rate is not None
            return rate
        return fabric.tcp_goodput

    def wire_latency(self, fabric: Fabric) -> float:
        """One-way minimal-packet latency this stack observes."""
        if self.uses_rdma and fabric.has_rdma:
            assert fabric.rdma_latency is not None
            return fabric.rdma_latency
        return fabric.base_latency

    def chunk_time(self, chunk: int, fabric: Fabric) -> float:
        """Seconds to move one ``chunk``-byte packet end to end."""
        fixed = self.per_chunk_cost
        if self.uses_rdma and fabric.has_rdma:
            fixed += self.rdma_extra_cost
        return (
            fixed
            + self.wire_latency(fabric)
            + chunk / self.wire_rate(fabric)
            + self.copies * chunk / self.copy_rate
        )

    def transfer_time(self, total: int, chunk: int, fabric: Fabric) -> float:
        """Seconds to move ``total`` bytes in ``chunk``-byte packets."""
        if total <= 0:
            return 0.0
        chunk = min(chunk, total)
        n_full, rest = divmod(total, chunk)
        t = n_full * self.chunk_time(chunk, fabric)
        if rest:
            t += self.chunk_time(rest, fabric)
        return t

    def throughput(self, total: int, chunk: int, fabric: Fabric) -> float:
        """Achieved payload bytes/s for the whole transfer."""
        t = self.transfer_time(total, chunk, fabric)
        return total / t if t > 0 else math.inf


#: Hadoop's built-in Jetty HTTP server (TaskTracker shuffle proxy).
#: per-chunk: HTTP request parse + servlet dispatch + response headers.
JettyHTTPStack = ProtocolStack(
    name="Hadoop Jetty",
    per_chunk_cost=150e-6,
    copies=3.5,  # server: pagecache->heap->encoder->socket; client: socket->heap
    copy_rate=JVM_COPY_RATE,
    uses_rdma=False,
)

#: DataMPI: native MPI wire path reached through a JNI binding; one JVM
#: heap copy + the JNI crossing per chunk.
DataMPIStack = ProtocolStack(
    name="DataMPI",
    per_chunk_cost=12e-6,
    copies=1.0,
    copy_rate=JVM_COPY_RATE * 2,  # direct-buffer IO (§IV-A "optimized buffer
    # management by native direct IO") halves the JVM copy cost
    uses_rdma=True,
    rdma_extra_cost=8e-6,
)

#: MVAPICH2: the native MPI baseline.
NativeMPIStack = ProtocolStack(
    name="MVAPICH2",
    per_chunk_cost=5e-6,
    copies=1.0,
    copy_rate=NATIVE_COPY_RATE,
    uses_rdma=True,
)

PROTOCOLS: dict[str, ProtocolStack] = {
    stack.name: stack for stack in (JettyHTTPStack, DataMPIStack, NativeMPIStack)
}
