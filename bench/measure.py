"""Measurement primitives shared by the timed run and the layer replay:
CPU time, the keep-awake loops and the span recorder.  Nothing here
knows about workloads or the engine.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from typing import Iterator

_clock = time.perf_counter


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped
    (the process backend's ranks are reaped when their job returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


#: a busy loop at idle priority, pinned to one core, that ends with its
#: parent; where idle priority is refused it ends at once, since at any
#: other priority it would take time from the ranks
_KEEP_AWAKE = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    sys.exit()
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1_000_000):
        pass
"""


@contextlib.contextmanager
def cores_kept_awake() -> Iterator[list[subprocess.Popen]]:
    """Keep every core out of its idle states while a run measures.

    The engine's threads hand work to each other all the time.  A core
    of this VM that went idle is slow to take the next hand-off, much
    slower while the host is busy, and which hand-offs hit an idle core
    is luck.  An idle-priority busy loop per core (the scheduler preempts
    it for any other thread) removes that luck: over ten paired runs it
    made the five closed-loop thread workloads 5-12 % faster and, in a
    spell where the host was busy, narrowed the range of
    ``topk_stream_max`` job times from 62 % to 6 % (results/keep-awake-ab.jsonl,
    README "Steadiness").  Yields the loops; those still alive at the end
    of the run were in effect.
    """
    loops = [
        subprocess.Popen([sys.executable, "-c", _KEEP_AWAKE, str(cpu)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield loops
    finally:
        for loop in loops:
            loop.kill()
        for loop in loops:
            loop.wait()


class Spans:
    """In-memory span recorder for one single-threaded replay."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": _clock(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = _clock()
            self._open.pop()

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)

    def self_time(self, name: str) -> float:
        """Span time minus the time of the spans opened inside it."""
        total = 0.0
        for row in self.rows:
            if row["name"] == name:
                inside = sum(
                    c["end"] - c["start"] for c in self.rows
                    if c["parent"] == row["id"]
                )
                total += row["end"] - row["start"] - inside
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for row in self.rows:
                f.write(json.dumps(row) + "\n")
