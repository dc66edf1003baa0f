"""Process CPU/RSS readings and the windowed sampler that records them.

The :class:`WindowedSampler` reads process CPU and RSS (stdlib
``os.times`` / ``/proc``; no external dependencies) on an interval into
:class:`~repro.common.stats.TimeSeries`, so a real run reproduces the
paper's Fig-11-style utilization series of the process it runs in —
under ``mpidrun`` the driver's, which holds no rank on the process
backend.  The counters a job reports live in :mod:`repro.core.metrics`;
telemetry snapshots take the same two readings in each rank's process.

The clock and the loop are injectable, so tests drive ``sample_once``
with a fake clock and get a bit-identical time axis.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from repro.common.stats import TimeSeries

try:  # not on every platform; gate instead of hard-requiring
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = ["WindowedSampler"]


def _process_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # non-POSIX
    _PAGE_SIZE = 4096


def _process_rss_bytes() -> float:
    # /proc/self/statm field 2 is *current* resident pages — the series
    # can go down after frees.  ru_maxrss is the lifetime high-water
    # mark, kept only as the non-Linux fallback.
    try:
        with open("/proc/self/statm", "rb") as f:
            return float(int(f.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        pass
    if _resource is None:
        return 0.0
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize heuristically
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return float(rss * 1024 if rss < 1 << 32 else rss)


class WindowedSampler:
    """Interval sampler: CPU seconds / CPU percent / RSS series of the
    calling process (the driver's, under ``mpidrun``).

    ``start()`` runs a daemon thread; tests instead call
    :meth:`sample_once` directly with a fake clock for a deterministic
    time axis.  The CPU-seconds series is cumulative from the first
    sample.
    """

    def __init__(
        self,
        interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.interval = interval
        self.clock = clock
        self.series: dict[str, TimeSeries] = {}
        self._epoch: float | None = None
        self._cpu0 = 0.0
        self._last: tuple[float, float] | None = None  # (t, cpu) for utilization
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sampling -----------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = TimeSeries(name=name)
        return s

    def sample_once(self, now: float | None = None) -> None:
        """Take one snapshot at time ``now`` (defaults to the clock)."""
        t = self.clock() if now is None else now
        cpu = _process_cpu_seconds()
        if self._epoch is None:
            self._epoch = t
            self._cpu0 = cpu
        rel = t - self._epoch
        self._series("process.cpu.seconds").add(rel, cpu - self._cpu0)
        if self._last is not None:
            dt = t - self._last[0]
            if dt > 0:
                util = (cpu - self._last[1]) / dt * 100.0
                self._series("process.cpu.percent").add(rel, util)
        self._last = (t, cpu)
        self._series("process.rss.bytes").add(rel, _process_rss_bytes())

    # -- the interval thread ------------------------------------------------
    def start(self) -> "WindowedSampler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self.sample_once()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.sample_once()
                except Exception:  # noqa: BLE001 - sampling must never kill a job
                    return

        self._thread = threading.Thread(
            target=loop, daemon=True, name="obs-sampler"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None
        self.sample_once()  # closing sample so short jobs still get >= 2 points

    def as_journal_series(self) -> dict[str, tuple[list[float], list[float]]]:
        return {
            name: (list(s.times), list(s.values))
            for name, s in self.series.items()
        }
