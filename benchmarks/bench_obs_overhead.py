"""Flight-recorder overhead benchmark.

Measures what instrumentation costs on the shuffle hot path in both
tracer states and writes ``BENCH_OBS.json`` at the repo root:

* **null-call cost** — ns per disabled ``span``/``instant``/``counter``/
  ``complete`` call (the price every guarded call site pays when tracing
  is off);
* **shuffle A/B** — end-to-end shuffle records/s with the tracer
  disabled vs enabled, and the enabled run's event volume;
* **disabled overhead estimate** — (events the enabled run recorded ×
  measured ns per disabled call) / disabled elapsed time: an upper bound
  on what the *guards alone* cost the disabled hot path, independent of
  run-to-run throughput noise.  The acceptance bar is < 3%;
* **telemetry shipping cost** — mean cost of building + ingesting one
  telemetry snapshot, swept across shipping intervals: steady-state
  overhead ≈ snapshot cost / interval.  The bar is < 3% of one core at
  the default ``mpi.d.telemetry.interval.seconds`` (0.25s);
* **profiler sampling cost** — mean cost of one ``sample_once()`` tick
  with rank threads registered, plus a measured shuffle Hz sweep
  (off/10/50/100 Hz).  Steady-state overhead ≈ tick cost × rate, and
  that deterministic estimate at the ``--profile`` rate (50 Hz)
  is gated < 3%; the measured sweep is recorded as informational
  because an end-to-end A/B is dominated by run-to-run noise.

Run standalone (preferred for stable numbers)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick] [--out PATH]

or under pytest (quick mode, shape assertions only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.buffers import SendPartitionList  # noqa: E402
from repro.core.metrics import PhaseClock, bind_clock  # noqa: E402
from repro.core.partition import PartitionWindow  # noqa: E402
from repro.core.shuffle import PlaneConfig, ShuffleService  # noqa: E402
from repro.mpi import run_world  # noqa: E402
from repro.obs.profiler import DEFAULT_HZ, PROFILER  # noqa: E402
from repro.obs.tracer import TRACER, Tracer  # noqa: E402
from repro.serde.comparators import default_compare  # noqa: E402
from repro.serde.serialization import WritableSerializer  # noqa: E402

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_OBS.json")


# -- disabled null-call cost ----------------------------------------------------
def bench_null_calls(quick: bool) -> dict:
    """ns per call of each tracer entry point while disabled."""
    n = 200_000 if quick else 1_000_000
    t = Tracer()
    assert not t.enabled
    out: dict[str, float] = {}

    def measure(label, fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        out[label] = round((time.perf_counter() - t0) / n * 1e9, 1)

    measure("span_ns", lambda: t.span("x"))
    measure("instant_ns", lambda: t.instant("x"))
    measure("counter_ns", lambda: t.counter("x", 1))
    measure("complete_ns", lambda: t.complete("x", 0.0, 0.0))
    # the guarded-site idiom: attribute load + bool check only
    measure("guard_ns", lambda: t.enabled and None)
    out["calls"] = n
    return out


# -- shuffle A/B ----------------------------------------------------------------
def _shuffle_config(num_partitions, num_processes, spill_dir):
    return PlaneConfig(
        num_partitions=num_partitions,
        window=PartitionWindow(num_partitions, num_processes),
        cmp=default_compare,
        serializer=WritableSerializer(),
        spill_dir=spill_dir,
        memory_budget=1 << 30,
        pipelined=False,
    )


def _run_shuffle(records_per_rank: int, profile_hz: float = 0.0) -> tuple[float, int]:
    """One end-to-end shuffle pass; returns (elapsed, blocks_sent)."""
    nprocs = 2
    flush_bytes = 512  # small blocks: per-envelope overhead dominates
    num_partitions = 2 * nprocs

    def main(comm):
        if profile_hz > 0:
            # as the engine does: the rank thread's lane is what the seals
            # switch and what the sampler reads the phase from
            clock = PhaseClock("compute")
            bind_clock(clock)
            PROFILER.register_thread(comm.rank, clock=clock)
        spill_dir = tempfile.mkdtemp(prefix="bench-obs-")
        service = ShuffleService(
            comm,
            lambda pid: _shuffle_config(num_partitions, comm.size, spill_dir),
        )
        plane = service.plane("fwd:0")
        spl = SendPartitionList(
            num_partitions, flush_bytes, cmp=default_compare,
            serializer=WritableSerializer(),
        )
        comm.barrier()
        t0 = time.perf_counter()
        for i in range(records_per_rank):
            block = spl.add(i % num_partitions, f"key-{i:08d}", i)
            if block is not None:
                service.send_block("fwd:0", block)
        for block in spl.flush_all():
            service.send_block("fwd:0", block)
        service.send_eos("fwd:0")
        plane.wait_complete(120)
        consumed = sum(
            1 for p in plane.rpls for _ in plane.merged_iter(p)
        )
        elapsed = time.perf_counter() - t0
        comm.barrier()
        stats = service.stats()
        service.shutdown()
        if profile_hz > 0:
            PROFILER.unregister_thread()
            bind_clock(None)
        return elapsed, stats["blocks_sent"], consumed

    if profile_hz > 0:
        PROFILER.acquire(profile_hz)
    try:
        results = run_world(nprocs, main)
    finally:
        if profile_hz > 0:
            PROFILER.release()
            for r in range(nprocs):
                PROFILER.collect(r)  # pop the bench profile, keep state clean
    consumed = sum(r[2] for r in results)
    assert consumed == records_per_rank * nprocs, consumed
    return max(r[0] for r in results), sum(r[1] for r in results)


def bench_shuffle_ab(quick: bool) -> dict:
    records_per_rank = 5000 if quick else 40000
    total = records_per_rank * 2

    # disabled first (the state the <3% bar protects)
    assert not TRACER.enabled
    elapsed_off, _ = _run_shuffle(records_per_rank)

    TRACER.enable(bench="obs-overhead")
    try:
        elapsed_on, blocks = _run_shuffle(records_per_rank)
        events = len(TRACER.drain())
    finally:
        TRACER.disable()
        TRACER.reset()

    return {
        "records": total,
        "blocks_sent": blocks,
        "disabled": {
            "elapsed_s": round(elapsed_off, 4),
            "records_per_s": round(total / elapsed_off),
        },
        "enabled": {
            "elapsed_s": round(elapsed_on, 4),
            "records_per_s": round(total / elapsed_on),
            "events_recorded": events,
        },
        "enabled_overhead_pct": round(
            (elapsed_on - elapsed_off) / elapsed_off * 100.0, 2
        ),
    }


# -- telemetry shipping cost ----------------------------------------------------
#: intervals (seconds) to sweep; the first is the configured default
TELEMETRY_SWEEP = (0.25, 0.1, 0.05)


def bench_telemetry(quick: bool) -> dict:
    """Cost of one telemetry record (the pulse's copy + hub ingest) and
    the steady-state overhead that implies at each shipping interval.

    The pulse thread does exactly this work once per interval, on top
    of the fold, so overhead ≈ record cost / interval — a deterministic
    estimate, immune to the run-to-run noise an end-to-end A/B would add
    for an off-hot-path background thread.
    """
    import dataclasses

    from repro.core.metrics import TaskMetrics, WorkerMetrics
    from repro.obs.telemetry import TelemetryHub

    n = 2_000 if quick else 20_000
    metrics = WorkerMetrics(
        rank=0, pid=os.getpid(), o_tasks_run=4, a_tasks_run=2,
        records_sent=123_456, blocks_sent=640, bytes_sent=1 << 22,
        envelopes_sent=80, records_received=100_000, blocks_received=640,
        phase_times={
            "compute": 1.25, "partition-sort": 0.4, "communicate": 0.8,
            "merge": 0.3, "checkpoint": 0.1, "control": 0.05,
        },
        tasks=[TaskMetrics(task_id=i, kind="O") for i in range(4)],
        queue={"pending": 3, "bytes_in": 4096, "posted": 1},
    )
    hub = TelemetryHub()

    t0 = time.perf_counter()
    for _ in range(n):
        hub.ingest(dataclasses.replace(metrics, tasks=[]))
    per_snapshot_s = (time.perf_counter() - t0) / n

    sweep = {
        str(interval): round(per_snapshot_s / interval * 100.0, 4)
        for interval in TELEMETRY_SWEEP
    }
    return {
        "snapshots": n,
        "snapshot_cost_us": round(per_snapshot_s * 1e6, 2),
        "overhead_pct_by_interval": sweep,
        "default_interval_s": TELEMETRY_SWEEP[0],
        "default_overhead_pct": sweep[str(TELEMETRY_SWEEP[0])],
    }


# -- profiler sampling cost -----------------------------------------------------
#: sampling rates (Hz) to sweep on the shuffle hot path; 0 = profiler off
PROFILER_SWEEP = (0, 10, 50, 100)


def bench_profiler(quick: bool) -> dict:
    """Cost of one profiler tick and the overhead that implies per rate.

    The sampler thread does exactly ``sample_once()`` work per tick, so
    steady-state overhead ≈ tick cost × Hz — deterministic, like the
    telemetry estimate.  A measured shuffle sweep across rates is
    recorded alongside it, but only as an informational cross-check:
    end-to-end A/B deltas on a sub-second shuffle are dominated by
    scheduler noise (the committed tracer A/B is itself negative).
    """
    n = 2_000 if quick else 20_000
    nranks = 4

    # register a few fake rank threads so each tick walks realistic state
    idents = [threading.get_ident() + 1 + i for i in range(nranks - 1)]
    PROFILER.register_thread(0, clock=PhaseClock("compute"))
    for rank, ident in enumerate(idents, start=1):
        PROFILER.register_thread(rank, clock=PhaseClock("merge"), ident=ident)
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            PROFILER.sample_once()
        per_tick_s = (time.perf_counter() - t0) / n
    finally:
        PROFILER.unregister_thread()
        for ident in idents:
            PROFILER.unregister_thread(ident=ident)
        for rank in range(nranks):
            PROFILER.collect(rank)  # discard the bench profile

    overhead = {
        str(hz): round(per_tick_s * hz * 100.0, 4)
        for hz in PROFILER_SWEEP if hz > 0
    }

    records_per_rank = 5000 if quick else 40000
    total = records_per_rank * 2
    measured = {}
    for hz in PROFILER_SWEEP:
        elapsed, _ = _run_shuffle(records_per_rank, profile_hz=float(hz))
        measured[str(hz)] = {
            "elapsed_s": round(elapsed, 4),
            "records_per_s": round(total / elapsed),
        }
    base = measured["0"]["elapsed_s"]
    for hz in PROFILER_SWEEP:
        if hz:
            measured[str(hz)]["overhead_pct_vs_off"] = round(
                (measured[str(hz)]["elapsed_s"] - base) / base * 100.0, 2
            )

    return {
        "ticks": n,
        "registered_threads": nranks,
        "tick_cost_us": round(per_tick_s * 1e6, 2),
        "overhead_pct_by_hz": overhead,
        "default_hz": DEFAULT_HZ,
        "default_overhead_pct": overhead[str(int(DEFAULT_HZ))],
        "measured_shuffle_by_hz": measured,
    }


def run_all(quick: bool) -> dict:
    null_calls = bench_null_calls(quick)
    shuffle = bench_shuffle_ab(quick)
    telemetry = bench_telemetry(quick)
    profiler = bench_profiler(quick)
    # guards-only cost of the disabled hot path: every event the enabled
    # run recorded corresponds to a call site the disabled run also hit
    worst_call_ns = max(
        null_calls[k] for k in
        ("span_ns", "instant_ns", "counter_ns", "complete_ns")
    )
    guarded_cost_s = shuffle["enabled"]["events_recorded"] * worst_call_ns / 1e9
    disabled_pct = guarded_cost_s / shuffle["disabled"]["elapsed_s"] * 100.0
    return {
        "meta": {
            "quick": quick,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "null_calls": null_calls,
        "shuffle": shuffle,
        "telemetry": telemetry,
        "profiler": profiler,
        "disabled_overhead_pct_estimate": round(disabled_pct, 3),
        "acceptance": {
            "bar_pct": 3.0,
            "passed": (
                disabled_pct < 3.0
                and telemetry["default_overhead_pct"] < 3.0
                and profiler["default_overhead_pct"] < 3.0
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)
    report = run_all(args.quick)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    return 0 if report["acceptance"]["passed"] else 1


# -- pytest entry (quick mode, shape assertions only) ---------------------------
def test_bench_obs_overhead_quick(emit):
    report = run_all(quick=True)
    emit("obs-overhead", json.dumps(report, indent=2))
    assert report["null_calls"]["span_ns"] < 2000  # sanity, not a perf bar
    assert report["shuffle"]["enabled"]["events_recorded"] > 0
    assert report["disabled_overhead_pct_estimate"] < 3.0
    assert report["telemetry"]["default_overhead_pct"] < 3.0
    assert report["profiler"]["default_overhead_pct"] < 3.0
    assert set(report["profiler"]["measured_shuffle_by_hz"]) == {
        str(hz) for hz in PROFILER_SWEEP
    }
    assert report["acceptance"]["passed"]


if __name__ == "__main__":
    sys.exit(main())
