"""Simulated hardware resources with utilization accounting.

* :class:`Device` — FIFO-served rate device (an HDD, a NIC direction):
  one transfer at a time at a fixed byte rate, queueing behind earlier
  transfers.  Serialization *is* the contention model: a disk doing map
  spills makes concurrent input reads slow, which is precisely how the
  paper's Hadoop map phase loses read bandwidth (Fig 11b).
* :class:`Cores` — a counted CPU resource; compute() holds one core.
* :class:`MemoryGauge` — byte counter with peak/time-series tracking.

All expose cumulative counters the profiler samples into time series.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError
from repro.simulate.engine import Event, Simulator


class Device:
    """A FIFO rate-server (disk or one NIC direction)."""

    def __init__(self, sim: Simulator, rate: float, name: str = "dev") -> None:
        if rate <= 0:
            raise SimulationError(f"device rate must be positive: {name}")
        self.sim = sim
        self.rate = rate
        self.name = name
        #: virtual time at which the device frees up
        self._free_at = 0.0
        self.bytes_transferred = 0.0

    def transfer(self, nbytes: float) -> Event:
        """Event firing when ``nbytes`` have moved through the device."""
        start = max(self.sim.now, self._free_at)
        duration = nbytes / self.rate
        self._free_at = start + duration
        self.bytes_transferred += nbytes
        return self.sim.timeout(self._free_at - self.sim.now)


class Cores:
    """N CPU cores; ``compute(seconds)`` occupies one until done."""

    def __init__(self, sim: Simulator, n: int, name: str = "cpu") -> None:
        if n < 1:
            raise SimulationError("need at least one core")
        self.sim = sim
        self.n = n
        self.name = name
        self.busy = 0
        self._waiters: deque[tuple[float, Event]] = deque()
        self.core_seconds = 0.0

    def compute(self, seconds: float) -> Event:
        """Event firing when the work completes (after core acquisition)."""
        done = self.sim.event()
        if self.busy < self.n:
            self._start(seconds, done)
        else:
            self._waiters.append((seconds, done))
        return done

    def _start(self, seconds: float, done: Event) -> None:
        self.busy += 1
        self.core_seconds += seconds
        self.sim.timeout(seconds).then(lambda _: self._finish(done))

    def _finish(self, done: Event) -> None:
        self.busy -= 1
        if self._waiters:
            self._start(*self._waiters.popleft())
        done.succeed()


class MemoryGauge:
    """Tracks allocated bytes; never blocks (RAM exhaustion is modelled
    upstream by spill decisions, as in the real systems)."""

    def __init__(self, capacity: float, name: str = "mem") -> None:
        self.capacity = capacity
        self.name = name
        self.used = 0.0
        self.peak = 0.0

    def allocate(self, nbytes: float) -> None:
        self.used += nbytes
        self.peak = max(self.peak, self.used)

    def release(self, nbytes: float) -> None:
        self.used = max(0.0, self.used - nbytes)
