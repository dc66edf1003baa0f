"""The per-job JSONL event journal and the Chrome/Perfetto exporter.

A journal is a newline-delimited JSON file with one record per line,
each tagged with a ``type``:

* ``meta``    — job name, nprocs, mode, attempt count, schema version
* ``event``   — one tracer event (``ph`` is ``X`` span / ``i`` instant /
  ``C`` counter; ``ts``/``dur`` in seconds relative to the job epoch).
  A rank's utilization series are its ``process.cpu.seconds`` and
  ``process.rss.bytes`` counters, sampled on its own lane
* ``profile`` — one rank's sampling-profiler aggregate
* ``summary`` — driver-side digest: ``JobMetrics.as_dict()`` (counters,
  merged phase times, per-task metrics), one ``WorkerMetrics.as_dict()``
  row per worker (CPU and RSS included), failure timeline

The format is append-friendly (a crashed run still has a parsable
prefix) and greppable.  :func:`to_chrome_trace` converts a journal to
the Chrome ``trace.json`` format: load it at ``chrome://tracing`` or
https://ui.perfetto.dev.  Each rank becomes a process lane, each thread
a named track; counters render as counter tracks.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "JOURNAL_VERSION",
    "Journal",
    "JournalWriter",
    "export_chrome",
    "read_journal",
    "to_chrome_trace",
]

JOURNAL_VERSION = 1


class JournalWriter:
    """Streams journal records to ``path`` (one JSON object per line)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._f = open(path, "w", encoding="utf-8")

    def _write(self, record: dict) -> None:
        self._f.write(json.dumps(record, default=repr, sort_keys=False))
        self._f.write("\n")

    def write_meta(self, **meta: Any) -> None:
        self._write({"type": "meta", "version": JOURNAL_VERSION, **meta})

    def write_event(self, event: dict) -> None:
        self._write({"type": "event", **event})

    def write_events(self, events: Iterable[dict]) -> None:
        for event in events:
            self.write_event(event)

    def write_profile(self, profile: dict) -> None:
        """One rank's sampling-profiler aggregate (collapsed stacks per
        phase bucket; see :mod:`repro.obs.profiler`)."""
        self._write({"type": "profile", **profile})

    def write_summary(self, summary: dict) -> None:
        self._write({"type": "summary", **summary})

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


@dataclass
class Journal:
    """A parsed journal."""

    meta: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    #: sampling-profiler aggregates, one per (rank, epoch)
    profiles: list[dict] = field(default_factory=list)

    @property
    def spans(self) -> list[dict]:
        return [e for e in self.events if e.get("ph") == "X"]

    @property
    def instants(self) -> list[dict]:
        return [e for e in self.events if e.get("ph") == "i"]

    @property
    def counters(self) -> list[dict]:
        return [e for e in self.events if e.get("ph") == "C"]


def read_journal(path: str) -> Journal:
    """Parse a JSONL journal (tolerates a truncated final line and
    skips record types it does not know)."""
    journal = Journal()
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a crashed run
            kind = record.pop("type", None)
            if kind == "meta":
                journal.meta = record
            elif kind == "event":
                journal.events.append(record)
            elif kind == "summary":
                journal.summary = record
            elif kind == "profile":
                journal.profiles.append(record)
    return journal


#: the coordinates naming one shuffle envelope: ``seq`` counts per
#: (plane, origin incarnation, receiver) stream.  A send span names the
#: receiver ``dest``; a receive span, recorded on the thread that filed
#: the envelope (the sender's, on the thread backend), names it ``rank``
_SEND_KEY = ("plane", "origin", "epoch", "dest", "seq")
_RECV_KEY = ("plane", "origin", "epoch", "rank", "seq")


def _coordinates(
    event: dict, fields: tuple[str, ...], restarts: list[float]
) -> tuple | None:
    """The span's attempt and its values of ``fields``; None when it
    lacks one.  A whole-job restart reruns every stream from seq 0 at
    epoch 0, so the attempt is a coordinate too: the number of
    ``job.restart`` instants before the span (mpidrun records one only
    after the failed attempt's ranks have all joined)."""
    args = event.get("args") or {}
    if not all(f in args for f in fields):
        return None
    attempt = bisect_right(restarts, event.get("ts", 0.0))
    return (attempt, *(args[f] for f in fields))


def to_chrome_trace(journal: Journal) -> dict:
    """Convert to the Chrome ``trace.json`` object format.

    ``pid`` is the rank (driver/unattributed threads land on pid 0),
    ``tid`` is a dense index per thread name with ``thread_name``
    metadata, timestamps are microseconds.

    Each ``shuffle.send`` span additionally emits a Chrome flow start
    (``ph: s``), and the ``shuffle.recv.batch`` span that filed the same
    envelope a binding flow finish (``ph: f``, ``bp: e``) with the same
    id.  Nothing in a message links the two: both spans name the
    envelope by its attempt and stream coordinates (:data:`_SEND_KEY`,
    :data:`_RECV_KEY`) and each sent envelope gets one dense id here.
    Perfetto renders these as arrows from each send to its receive —
    cross-rank causal traces.  A span missing a coordinate gets no
    arrow.
    """
    restarts = sorted(
        e.get("ts", 0.0) for e in journal.events
        if e.get("ph") == "i" and e.get("name") == "job.restart"
    )
    flows: dict[tuple, int] = {}
    for event in journal.spans:
        if event.get("name") == "shuffle.send":
            key = _coordinates(event, _SEND_KEY, restarts)
            if key is not None:
                flows.setdefault(key, len(flows) + 1)

    trace_events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    pids_named: set[int] = set()

    def lane(rank: int, tid_name: str) -> tuple[int, int]:
        pid = rank if rank >= 0 else 0
        key = (pid, tid_name)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len([k for k in tids if k[0] == pid])
            trace_events.append(
                {
                    "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": tid_name},
                }
            )
            if pid not in pids_named:
                pids_named.add(pid)
                label = f"rank {pid}" if rank >= 0 else "driver"
                trace_events.append(
                    {
                        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                        "args": {"name": label},
                    }
                )
        return pid, tid

    for event in journal.events:
        ph = event.get("ph")
        pid, tid = lane(event.get("rank", -1), event.get("tid", "?"))
        out: dict[str, Any] = {
            "ph": ph,
            "pid": pid,
            "tid": tid,
            "name": event.get("name", "?"),
            "ts": round(event.get("ts", 0.0) * 1e6, 3),
        }
        if event.get("cat"):
            out["cat"] = event["cat"]
        if ph == "X":
            out["dur"] = round(event.get("dur", 0.0) * 1e6, 3)
            args = event.get("args")
            if args:
                out["args"] = args
            # a flow leaves at its send span's start and lands at its
            # recv span's end, so the arrow points forward in time
            # whether the recv span follows the send (process backend)
            # or nests inside it (thread backend: the sender files it)
            if out["name"] == "shuffle.send":
                flow = flows.get(_coordinates(event, _SEND_KEY, restarts))
                if flow:
                    trace_events.append(
                        {
                            "ph": "s", "pid": pid, "tid": tid, "ts": out["ts"],
                            "id": flow, "name": "shuffle.flow",
                            "cat": "shuffle",
                        }
                    )
            elif out["name"] == "shuffle.recv.batch":
                flow = flows.get(_coordinates(event, _RECV_KEY, restarts))
                if flow:
                    end_ts = round(
                        (event.get("ts", 0.0) + event.get("dur", 0.0)) * 1e6, 3
                    )
                    trace_events.append(
                        {
                            "ph": "f", "bp": "e", "pid": pid, "tid": tid,
                            "ts": end_ts, "id": flow,
                            "name": "shuffle.flow", "cat": "shuffle",
                        }
                    )
        elif ph == "i":
            out["s"] = "t"  # thread-scoped instant
            if event.get("args"):
                out["args"] = event["args"]
        elif ph == "C":
            out["args"] = event.get("args", {"value": 0})
        else:
            continue
        trace_events.append(out)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(journal.meta),
    }


def export_chrome(journal: Journal, path: str) -> str:
    """Write ``trace.json`` for chrome://tracing / Perfetto; returns path."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_chrome_trace(journal), f, default=repr)
    return path
