"""Low-overhead span tracer with per-thread event buffers.

Every instrumented layer talks to the process-wide :data:`TRACER`.  The
design centers on two costs:

* **Disabled** (the default): a call site pays one attribute load and a
  boolean check.  ``span()`` returns a shared immutable null context
  manager, ``instant``/``counter``/``complete`` return immediately —
  no allocation, no lock, no clock read.  Hot paths additionally guard
  with ``if TRACER.enabled:`` so even argument tuples are never built.
* **Enabled**: events append to a plain ``list`` owned by the calling
  thread (thread-local), so recording never takes a lock and never
  contends.  The registry of buffers is locked only on first use per
  thread and on :meth:`Tracer.drain`.

Events become dicts only at drain time; in the buffers they are small
tuples.  Timestamps are ``clock()`` values (``time.perf_counter`` by
default) made epoch-relative on drain, so a journal starts near zero.

Thread attribution: each buffer remembers its thread name; the engine
additionally calls :meth:`Tracer.bind` so events carry the worker's
global rank, which the exporters map to Perfetto process lanes.
"""

from __future__ import annotations

import threading
import time
from typing import Any

__all__ = ["TRACER", "Tracer"]


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ThreadBuf:
    """One thread's event list plus its identity."""

    __slots__ = ("events", "tid", "rank")

    def __init__(self, tid: str) -> None:
        self.events: list[tuple] = []
        self.tid = tid
        self.rank = -1


class _Span:
    """A live span; records one complete ("X") event on exit."""

    __slots__ = ("_tracer", "_buf", "name", "cat", "args", "_t0")

    def __init__(
        self, tracer: "Tracer", buf: _ThreadBuf, name: str, cat: str,
        args: dict | None,
    ) -> None:
        self._tracer = tracer
        self._buf = buf
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.clock()
        return self

    def set(self, key: str, value: Any) -> "_Span":
        """Attach an attribute discovered while the span is open."""
        if self.args is None:
            self.args = {}
        self.args[key] = value
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = self._tracer.clock()
        self._buf.events.append(
            ("X", self._t0, t1 - self._t0, self.name, self.cat, self.args)
        )
        return False


class Tracer:
    """Span / instant / counter recorder with thread-local buffers."""

    def __init__(self, clock=time.perf_counter) -> None:
        #: the one flag instrumented code checks; plain attribute access
        self.enabled = False
        self.clock = clock
        self.meta: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bufs: list[_ThreadBuf] = []
        #: events drained elsewhere and handed over (a worker process's)
        self._absorbed: list[dict] = []
        self._epoch = 0.0
        #: bumped on every enable(); stale thread-locals re-register
        self._generation = 0

    # -- lifecycle ----------------------------------------------------------
    def enable(self, **meta: Any) -> None:
        """Start recording; clears any previous buffers."""
        with self._lock:
            self._bufs = []
            self._absorbed = []
            self._generation += 1
            self.meta = dict(meta)
            self._epoch = self.clock()
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def absorb(self, events: list[dict]) -> None:
        """File events another tracer drained on this one's epoch (a
        forked worker's, handed over as it exits); ``drain`` merges them."""
        with self._lock:
            self._absorbed.extend(events)

    def drain(self) -> list[dict]:
        """Stop-the-presses collection: every buffered and absorbed
        event as a dict, globally sorted by timestamp (epoch-relative
        seconds)."""
        with self._lock:
            bufs = list(self._bufs)
            events: list[dict] = list(self._absorbed)
        epoch = self._epoch
        for buf in bufs:
            for ev in list(buf.events):
                ph = ev[0]
                record: dict[str, Any] = {
                    "ph": ph,
                    "ts": ev[1] - epoch,
                    "name": ev[3] if ph == "X" else ev[2],
                    "tid": buf.tid,
                    "rank": buf.rank,
                }
                if ph == "X":
                    record["dur"] = ev[2]
                    if ev[4]:
                        record["cat"] = ev[4]
                    if ev[5]:
                        record["args"] = ev[5]
                elif ph == "i":
                    if ev[3]:
                        record["cat"] = ev[3]
                    if ev[4]:
                        record["args"] = ev[4]
                else:  # "C"
                    record["args"] = {"value": ev[3]}
                    if ev[4]:
                        record["cat"] = ev[4]
                events.append(record)
        events.sort(key=lambda e: e["ts"])
        return events

    def reset(self) -> None:
        """Drop all buffered events (tests)."""
        with self._lock:
            self._bufs = []
            self._absorbed = []
            self._generation += 1

    def reset_after_fork(self) -> None:
        """Make the tracer sane in a freshly forked worker process.

        The child inherits the parent's buffers (they belong to threads
        that do not exist here) and possibly a lock captured mid-hold;
        both are replaced.  ``enabled`` and the epoch are kept: a worker
        forked while the driver traces is traced, and the events it hands
        back (:meth:`absorb`) land on the driver's timeline
        (``perf_counter`` is CLOCK_MONOTONIC — system-wide on Linux).
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bufs = []
        self._absorbed = []
        self._generation += 1

    # -- thread attribution -------------------------------------------------
    def _buf(self) -> _ThreadBuf:
        local = self._local
        buf = getattr(local, "buf", None)
        if buf is None or getattr(local, "gen", -1) != self._generation:
            buf = _ThreadBuf(threading.current_thread().name)
            local.buf = buf
            local.gen = self._generation
            with self._lock:
                self._bufs.append(buf)
        return buf

    def bind(self, rank: int) -> None:
        """Attribute the calling thread's events to a global rank."""
        if self.enabled:
            self._buf().rank = rank

    # -- recording ----------------------------------------------------------
    def span(self, name: str, cat: str = "", args: dict | None = None):
        """A nestable context manager; a no-op singleton when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, self._buf(), name, cat, args)

    def instant(self, name: str, cat: str = "", args: dict | None = None) -> None:
        """A point-in-time event (failures, faults, EOS markers...)."""
        if not self.enabled:
            return
        self._buf().events.append(("i", self.clock(), name, cat, args))

    def counter(self, name: str, value: float, cat: str = "") -> None:
        """One sample of a numeric series (bytes, queue depth...)."""
        if not self.enabled:
            return
        self._buf().events.append(("C", self.clock(), name, value, cat))

    def complete(
        self, name: str, t0: float, dur: float, cat: str = "",
        args: dict | None = None,
    ) -> None:
        """Record an already-measured span (callers that time themselves
        anyway — spills, task attempts — avoid a second pair of clock
        reads)."""
        if not self.enabled:
            return
        self._buf().events.append(("X", t0, dur, name, cat, args))


#: the process-wide flight recorder every instrumented layer consults
TRACER = Tracer()
