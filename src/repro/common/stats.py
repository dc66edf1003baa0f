"""Small statistics helpers used by the evaluation harness.

The paper reports averages over time windows (Fig 11), latency
distributions (Fig 10c); these helpers keep that arithmetic in one
tested place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def percentile(data: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) of ``data`` using linear interpolation."""
    if not len(data):
        raise ValueError("empty data")
    return float(np.percentile(np.asarray(data, dtype=float), q))


def histogram(
    data: Sequence[float], edges: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Distribution ratio per bin, as plotted in Fig 10(c).

    Returns ``(lo, hi, ratio)`` triples where ratios sum to 1.0 over all
    samples that fall inside the edges.
    """
    arr = np.asarray(data, dtype=float)
    counts, _ = np.histogram(arr, bins=np.asarray(edges, dtype=float))
    total = counts.sum()
    ratios = counts / total if total else counts.astype(float)
    return [
        (float(edges[i]), float(edges[i + 1]), float(ratios[i]))
        for i in range(len(counts))
    ]


@dataclass
class TimeSeries:
    """An append-only (time, value) series with window statistics.

    Used by the resource profiler to record CPU utilisation, disk/network
    throughput and memory footprint over virtual time (Fig 11, Fig 13b).
    """

    name: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.times)

    def mean(self, t_lo: float = -math.inf, t_hi: float = math.inf) -> float:
        """Time-weighted mean of the series inside ``[t_lo, t_hi]``.

        Each sample is taken to hold until the next sample time, matching a
        sampling profiler (``iostat``-style) view of resource usage.
        """
        if not self.times:
            raise ValueError(f"time series {self.name!r} is empty")
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        if len(t) == 1:
            return float(v[0])
        # durations each sample is in force; last sample gets median spacing
        spacing = np.diff(t)
        last = float(np.median(spacing)) if len(spacing) else 1.0
        dur = np.append(spacing, last)
        mask = (t >= t_lo) & (t <= t_hi)
        if not mask.any():
            raise ValueError("no samples inside window")
        return float(np.average(v[mask], weights=dur[mask]))

    def max(self) -> float:
        return float(np.max(self.values))

    def integral(self) -> float:
        """Trapezoid-free integral: sum(value * holding duration)."""
        if len(self.times) < 2:
            return 0.0
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        return float(np.sum(v[:-1] * np.diff(t)))


def summarize(values: Iterable[float]) -> dict[str, float]:
    """min/max/mean/median/p95 summary for a sample set."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample set")
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p95": float(np.percentile(arr, 95)),
    }
