"""Simulation reports: what a simulated job run produces."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.stats import TimeSeries


@dataclass
class SimJobReport:
    """Timing, progress and resource profile of one simulated job."""

    name: str
    framework: str
    duration: float = 0.0
    #: phase -> (start, end) in virtual seconds
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: per-phase task-completion progress curves (fraction 0..1)
    progress: dict[str, TimeSeries] = field(default_factory=dict)
    #: cluster-average resource profiles over time
    cpu_util: TimeSeries = field(default_factory=lambda: TimeSeries("cpu %"))
    disk_read: TimeSeries = field(default_factory=lambda: TimeSeries("disk read B/s"))
    disk_write: TimeSeries = field(default_factory=lambda: TimeSeries("disk write B/s"))
    net: TimeSeries = field(default_factory=lambda: TimeSeries("net B/s"))
    mem: TimeSeries = field(default_factory=lambda: TimeSeries("mem B"))
    #: free-form extra numbers (checkpoint stats, spill bytes, ...)
    extra: dict[str, float] = field(default_factory=dict)

    def phase_duration(self, phase: str) -> float:
        start, end = self.phases[phase]
        return end - start

    def throughput(self, total_bytes: float) -> float:
        """Job-level bytes/s (the paper's TeraSort 'Throughput (MB/sec)')."""
        return total_bytes / self.duration if self.duration else 0.0

    def mean_disk_read_rate(self, phase: str) -> float:
        """Per-node average disk read rate during a phase (Fig 11b)."""
        start, end = self.phases[phase]
        return self.disk_read.mean(start, end)

    def summary(self) -> str:
        phase_bits = ", ".join(
            f"{name}: {end - start:.0f}s" for name, (start, end) in self.phases.items()
        )
        return f"{self.framework} {self.name}: {self.duration:.0f}s ({phase_bits})"
