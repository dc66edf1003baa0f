"""Per-rank sampling profiler: the "why" layer under the telemetry plane.

The telemetry plane (:mod:`repro.obs.telemetry`) can say *which* rank is
slow — straggler score, shuffle skew, queue depth.  This module says
*why*: a process-wide daemon thread walks :func:`sys._current_frames`
at a configurable rate and aggregates collapsed call stacks per rank,
tagged with the **current phase** of the sampled thread's lane — the
``current`` of the :class:`~repro.core.metrics.PhaseClock` the thread
registered, so a sample and the rank's phase buckets cannot disagree
about which phase (compute / partition-sort / communicate / merge /
checkpoint / control) a moment belongs to.

Design notes:

* One :class:`StackSampler` per interpreter (module singleton
  :data:`PROFILER`), never one per engine.  On the thread backend all
  ranks share the interpreter, and ``sys._current_frames()`` is a
  whole-process snapshot — N engines each running their own sampler
  would pay the walk N times for the same data.  The sampler is
  refcounted: engines :meth:`~StackSampler.acquire` / ``release`` it,
  and the daemon thread runs only while someone holds it.
* The *registry* (thread idents -> rank and phase clock) is always
  maintained, even with sampling off, so a rank's live stacks
  (:meth:`StackSampler.dump_stacks`, which ride its pulse while the
  doctor is on) are there on an unprofiled job.
* Aggregates are collapsed-stack counts — the flamegraph interchange
  format — keyed ``(rank, epoch)`` so a respawned rank's incarnations
  stay distinct.  A finished rank hands its aggregate to the tracer as
  one :data:`PROFILE_CAT` record, so it reaches the driver the way the
  rank's trace events do; the trace session files it in the journal as
  a ``profile`` record, exported via ``repro flame`` as collapsed text
  or speedscope JSON.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Iterable

#: the sampling rate (Hz) a bare ``--profile`` writes to ``mpi.d.profile.hz``
DEFAULT_HZ = 50.0

#: stacks deeper than this are truncated at the root end
MAX_STACK_DEPTH = 64

#: phase of a thread registered without a clock, or whose clock stopped
DEFAULT_PHASE = "control"

#: tracer category of the record a finished rank's profile travels as
PROFILE_CAT = "profile"


def _frame_name(code: Any) -> str:
    """``sorter.merge``-style name: module basename + function name."""
    base = os.path.basename(code.co_filename)
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}.{code.co_name}"


def collapse_stack(frame: Any) -> str:
    """Collapse a live frame chain into ``root.fn;...;leaf.fn``."""
    names: list[str] = []
    while frame is not None and len(names) < MAX_STACK_DEPTH:
        names.append(_frame_name(frame.f_code))
        frame = frame.f_back
    names.reverse()
    return ";".join(names)


def describe_stack(frame: Any) -> list[str]:
    """Root-first frame descriptions with line numbers, for live dumps."""
    out: list[str] = []
    while frame is not None and len(out) < MAX_STACK_DEPTH:
        out.append(f"{_frame_name(frame.f_code)}:{frame.f_lineno}")
        frame = frame.f_back
    out.reverse()
    return out


def _phase_of(clock: Any) -> str:
    return getattr(clock, "current", None) or DEFAULT_PHASE


class StackSampler:
    """Registry of rank-owned threads plus an optional sampling thread.

    Thread-safety: registration and aggregate access take ``_lock``; a
    thread's phase is read off its clock's ``current`` attribute, which
    only the owning thread writes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: thread ident -> ((rank, epoch), the thread's phase clock or None)
        self._threads: dict[int, tuple[tuple[int, int], Any]] = {}
        #: (rank, epoch) -> {(phase, collapsed_stack): samples}
        self._counts: dict[tuple[int, int], dict[tuple[str, str], int]] = {}
        self._refs = 0
        self._hz = 0.0
        self._started_at = 0.0
        self._stop: threading.Event | None = None
        self._thread: threading.Thread | None = None
        #: cumulative seconds spent inside the sampling walk (all ticks)
        self.sample_cost_seconds = 0.0
        #: sampling ticks taken since construction / fork reset
        self.ticks = 0

    # -- registry (always on) ------------------------------------------------
    def register_thread(
        self, rank: int, epoch: int = 0, clock: Any = None,
        ident: int | None = None,
    ) -> None:
        """Attribute the calling (or given) thread's samples to ``rank``,
        each under the ``current`` phase of ``clock`` when it is taken."""
        ident = threading.get_ident() if ident is None else ident
        with self._lock:
            self._threads[ident] = ((int(rank), int(epoch)), clock)

    def unregister_thread(self, ident: int | None = None) -> None:
        ident = threading.get_ident() if ident is None else ident
        with self._lock:
            self._threads.pop(ident, None)

    # -- sampler lifecycle ---------------------------------------------------
    def acquire(self, hz: float = DEFAULT_HZ) -> None:
        """Refcounted start; the sampler runs at the max requested rate."""
        hz = float(hz)
        if hz <= 0:
            return
        with self._lock:
            self._refs += 1
            self._hz = max(self._hz, hz)
            if self._thread is None:
                self._stop = threading.Event()
                self._started_at = time.monotonic()
                self._thread = threading.Thread(
                    target=self._loop, args=(self._stop,),
                    name="datampi-profiler", daemon=True,
                )
                self._thread.start()

    def release(self) -> None:
        """Refcounted stop; the thread exits when the last holder leaves."""
        with self._lock:
            if self._refs == 0:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            stop, thread = self._stop, self._thread
            self._stop = self._thread = None
            self._hz = 0.0
        if stop is not None:
            stop.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)

    @property
    def hz(self) -> float:
        return self._hz

    def _loop(self, stop: threading.Event) -> None:
        while True:
            hz = self._hz or DEFAULT_HZ
            if stop.wait(1.0 / hz):
                return
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host
                pass

    def sample_once(self) -> int:
        """Take one sample of every registered thread; returns threads hit.

        Public so the overhead benchmark can measure the per-tick cost
        deterministically instead of racing a timer.
        """
        t0 = time.perf_counter()
        frames = sys._current_frames()
        hit = 0
        with self._lock:
            for ident, (key, clock) in self._threads.items():
                frame = frames.get(ident)
                if frame is None:
                    continue
                stack = collapse_stack(frame)
                phase = _phase_of(clock)
                bucket = self._counts.setdefault(key, {})
                bucket[(phase, stack)] = bucket.get((phase, stack), 0) + 1
                hit += 1
            self.ticks += 1
            self.sample_cost_seconds += time.perf_counter() - t0
        return hit

    # -- aggregate access ----------------------------------------------------
    def profile(self, rank: int, epoch: int = 0, hz: float | None = None) -> dict:
        """The profile document of ``(rank, epoch)`` so far — ``rank``,
        ``epoch``, ``hz``, ``samples`` and ``stacks`` (phase -> collapsed
        stack -> samples) — without forgetting it: a pulse, the report, the
        journal's ``profile`` record and ``repro flame`` all carry this."""
        key = (int(rank), int(epoch))
        with self._lock:
            counts = dict(self._counts.get(key) or {})
        stacks: dict[str, dict[str, int]] = {}
        for (phase, stack), n in counts.items():
            stacks.setdefault(phase, {})[stack] = n
        return {
            "rank": key[0],
            "epoch": key[1],
            "hz": float(hz if hz is not None else self._hz),
            "samples": sum(counts.values()),
            "stacks": stacks,
        }

    def collect(self, rank: int, epoch: int = 0, hz: float | None = None) -> dict:
        """:meth:`profile`, then forget ``(rank, epoch)``: a finished rank's."""
        profile = self.profile(rank, epoch, hz)
        with self._lock:
            self._counts.pop((profile["rank"], profile["epoch"]), None)
        return profile

    # -- live dumps ----------------------------------------------------------
    def dump_stacks(self, rank: int, epoch: int = 0) -> list[dict]:
        """The live stack of every thread registered to ``(rank, epoch)``:
        its name, its phase and its frames, root first."""
        key = (int(rank), int(epoch))
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        with self._lock:
            threads = [
                (ident, clock) for ident, (k, clock) in self._threads.items()
                if k == key
            ]
        return [
            {
                "name": names.get(ident, str(ident)),
                "phase": _phase_of(clock),
                "stack": describe_stack(frames[ident]) if ident in frames else [],
            }
            for ident, clock in threads
        ]

    # -- process lifecycle ---------------------------------------------------
    def reset_after_fork(self) -> None:
        """Drop state inherited from the parent (fork-start workers)."""
        self._lock = threading.Lock()
        self._threads.clear()
        self._counts.clear()
        self._refs = 0
        self._hz = 0.0
        self._stop = None
        self._thread = None  # the parent's sampler thread did not survive fork
        self.sample_cost_seconds = 0.0
        self.ticks = 0


#: the process-wide sampler every engine/worker shares
PROFILER = StackSampler()


# -- exporters ----------------------------------------------------------------
def _profile_prefix(profile: dict) -> str:
    rank = profile.get("rank", "?")
    epoch = int(profile.get("epoch", 0) or 0)
    return f"rank{rank}" + (f"e{epoch}" if epoch else "")


def hottest(profile: dict) -> tuple[dict[str, int], list[tuple[int, str, str]]]:
    """A profile document's samples per phase, and its ``(count, phase,
    stack)`` entries, hottest first."""
    by_phase: dict[str, int] = {}
    flat: list[tuple[int, str, str]] = []
    for phase, stacks in (profile.get("stacks") or {}).items():
        for stack, count in stacks.items():
            by_phase[phase] = by_phase.get(phase, 0) + count
            flat.append((count, phase, stack))
    return by_phase, sorted(flat, reverse=True)


def format_profile(profile: dict, top: int = 5) -> str:
    """One rank's profile for ``repro flame``: its share per phase and its
    ``top`` hottest stacks, by leaf frame."""
    rank = profile.get("rank", -1)
    epoch = profile.get("epoch", 0)
    samples = profile.get("samples", 0)
    hz = profile.get("hz", 0.0)
    label = f"rank {rank}" + (f" (epoch {epoch})" if epoch else "")
    lines = [f"{label}: {samples} samples @ {hz:g} Hz"]
    by_phase, flat = hottest(profile)
    total = sum(by_phase.values()) or 1
    phase_bits = "  ".join(
        f"{phase}={100.0 * n / total:.0f}%"
        for phase, n in sorted(by_phase.items(), key=lambda kv: -kv[1])
    )
    lines.append(f"  phases: {phase_bits}")
    for count, phase, stack in flat[:top]:
        leaf = stack.rsplit(";", 1)[-1]
        lines.append(f"  {100.0 * count / total:5.1f}%  [{phase}] {leaf}")
    return "\n".join(lines)


def to_collapsed(profiles: Iterable[dict]) -> str:
    """Flamegraph collapsed-stack text: ``rank0;phase;a.b;c.d count``."""
    lines: list[str] = []
    for profile in profiles:
        prefix = _profile_prefix(profile)
        for phase in sorted(profile.get("stacks", {})):
            stacks = profile["stacks"][phase]
            for stack in sorted(stacks):
                lines.append(f"{prefix};{phase};{stack} {stacks[stack]}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(profiles: Iterable[dict], name: str = "datampi") -> dict:
    """Speedscope file: one sampled profile per (rank, epoch)."""
    frames: list[dict] = []
    frame_index: dict[str, int] = {}

    def index_of(frame_name: str) -> int:
        if frame_name not in frame_index:
            frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return frame_index[frame_name]

    out_profiles = []
    for profile in profiles:
        samples: list[list[int]] = []
        weights: list[float] = []
        total = 0
        for phase in sorted(profile.get("stacks", {})):
            stacks = profile["stacks"][phase]
            for stack in sorted(stacks):
                chain = [index_of(phase)]
                chain.extend(index_of(f) for f in stack.split(";") if f)
                samples.append(chain)
                weights.append(float(stacks[stack]))
                total += stacks[stack]
        hz = float(profile.get("hz") or DEFAULT_HZ)
        out_profiles.append({
            "type": "sampled",
            "name": f"{name} {_profile_prefix(profile)}",
            "unit": "seconds",
            "startValue": 0,
            "endValue": total / hz if hz else total,
            "samples": samples,
            "weights": [w / hz if hz else w for w in weights],
        })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "shared": {"frames": frames},
        "profiles": out_profiles,
        "activeProfileIndex": 0,
        "exporter": "datampi-repro",
    }
