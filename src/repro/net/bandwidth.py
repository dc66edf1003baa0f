"""Peak-bandwidth microbenchmark (Figure 1a).

"The peak bandwidth is measured by varying both total data size and
packet size" (§I-A).  :func:`peak_bandwidth` sweeps the same grid and
takes the maximum achieved rate, exactly like the paper's benchmark
driver would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.units import KiB, MiB
from repro.net.fabric import FABRICS, Fabric
from repro.net.protocol import PROTOCOLS, ProtocolStack

#: default sweep grids (bytes); packet sizes 4 KiB .. 4 MiB, totals up to 1 GiB
DEFAULT_PACKET_SIZES = tuple(4 * KiB * 2**i for i in range(11))
DEFAULT_TOTAL_SIZES = tuple(16 * MiB * 2**i for i in range(7))


def achieved_bandwidth(
    stack: ProtocolStack, fabric: Fabric, total: int, packet: int
) -> float:
    """Payload bytes/s for one (total, packet) point."""
    return stack.throughput(total, packet, fabric)


def peak_bandwidth(
    stack: ProtocolStack,
    fabric: Fabric,
    packet_sizes: tuple[int, ...] = DEFAULT_PACKET_SIZES,
    total_sizes: tuple[int, ...] = DEFAULT_TOTAL_SIZES,
) -> float:
    """Max achieved bandwidth over the sweep grid, bytes/s."""
    best = 0.0
    for total in total_sizes:
        for packet in packet_sizes:
            best = max(best, achieved_bandwidth(stack, fabric, total, packet))
    return best


@dataclass
class BandwidthBenchmark:
    """Reproduces the full Figure 1(a) bar chart.

    ``run()`` returns ``{fabric: {system: MB/s}}`` using decimal MB/s as
    the paper's axis does.
    """

    packet_sizes: tuple[int, ...] = DEFAULT_PACKET_SIZES
    total_sizes: tuple[int, ...] = DEFAULT_TOTAL_SIZES
    fabrics: dict[str, Fabric] = field(default_factory=lambda: dict(FABRICS))
    stacks: dict[str, ProtocolStack] = field(default_factory=lambda: dict(PROTOCOLS))

    def run(self) -> dict[str, dict[str, float]]:
        result: dict[str, dict[str, float]] = {}
        for fabric_name, fabric in self.fabrics.items():
            row: dict[str, float] = {}
            for stack_name, stack in self.stacks.items():
                row[stack_name] = peak_bandwidth(
                    stack, fabric, self.packet_sizes, self.total_sizes
                ) / 1e6
            result[fabric_name] = row
        return result

    @staticmethod
    def improvement_matrix(result: dict[str, dict[str, float]]) -> dict[str, float]:
        """MPI-vs-Jetty bandwidth ratio per fabric (paper: >2x on IB/10GigE)."""
        ratios = {}
        for fabric_name, row in result.items():
            ratios[fabric_name] = row["DataMPI"] / row["Hadoop Jetty"]
        return ratios


def summarize_figure_1a() -> str:
    """Text rendering of Figure 1(a) for the benchmark harness."""
    bench = BandwidthBenchmark()
    result = bench.run()
    systems = ["Hadoop Jetty", "DataMPI", "MVAPICH2"]
    lines = ["Figure 1(a) Peak Bandwidth (MB/sec, higher is better)"]
    header = f"{'Network':<16}" + "".join(f"{s:>14}" for s in systems)
    lines.append(header)
    for fabric_name, row in result.items():
        cells = "".join(f"{row[s]:>14.1f}" for s in systems)
        lines.append(f"{fabric_name:<16}{cells}")
    ratios = bench.improvement_matrix(result)
    lines.append(
        "DataMPI/Jetty ratio: "
        + ", ".join(f"{k}: {v:.2f}x" for k, v in ratios.items())
    )
    return "\n".join(lines)
