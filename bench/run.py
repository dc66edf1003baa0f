"""The benchmark: workloads on the real engine, checked and timed.

Two ways to call it, both from the repository root:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this (fresh) process.  ``--trace 0``
    measures the end-to-end metrics with nothing switched on: one
    discarded warm-up job, then timed jobs for ``S`` seconds (at least
    three); every time reported is that of the fastest job (see
    ``_fastest``).  ``--trace 1`` is the separate traced run
    that yields the per-layer metrics: the layer replay of
    :mod:`replay`, the job with and without ``mpi.d.trace.enabled``, the
    engine's own phase buckets and counters, and the paper's baseline
    engine on the same input.  Every job's output is checked against a
    single-process reference.  Metrics are printed by name with their
    unit; the last line of standard output is one JSON object.

``python3 bench/run.py --seed N [--runs R] [--all] [--out FILE]``
    The suite: every workload of ``BENCHMARK.json`` (``--all``: every
    workload of ``workloads.py``), each run in its own subprocess, ``R``
    untraced runs on seeds ``N .. N+R-1`` and one traced run, all written
    to one results file that ``compare.py`` reads.

The timed region is the ``*_datampi`` / ``mpidrun`` call alone.  All
files the runs create live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

from measure import Spans, cores_kept_awake, cpu_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = ".bench_work"  # relative to ROOT: AF_UNIX socket paths must stay short
#: timed jobs and job pairs of the traced run a run makes at least (one
#: of each at ``--smoke`` sizes: ``args.repeats``)
MIN_REPEATS = 3
#: fresh-interpreter set-ups a run times
SETUPS = 5
#: a set-up child that takes longer than this is wedged
SETUP_TIMEOUT_S = 60

_clock = time.perf_counter


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly: a checkout that
    is no repository must not make git search the directories above it."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def environment(args: argparse.Namespace, ranks: int) -> dict:
    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "ranks": ranks,
        "cpu_limited": cores < ranks,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def _fastest(values: list[float], unit: str) -> dict:
    """A time metric of one run: the fastest of its samples.

    This box is a slice of a shared host.  For seconds to minutes at a
    stretch a neighbour takes part of a core and everything here runs
    1.3 to 1.8 times slower; nothing inside the VM shows it (no steal
    time is reported, CPU time stretches with wall time).  It only ever
    adds time, so the fastest of many jobs is the one least disturbed and
    repeats within a few percent, where the median of the same jobs moves
    by 20-40 % between identical runs (README, "Steadiness").  The record
    keeps the median, the quartiles and every sample next to it.
    """
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": min(values), "unit": unit, "n": len(values),
        "median": median, "q1": q1, "q3": q3, "samples": values,
    }


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


class Runner:
    """Runs one workload's jobs, counting every attempt and failure."""

    def __init__(self, workload, args: argparse.Namespace) -> None:
        self.workload = workload
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.state = workload.setup(args.seed, args.scale)

    def job(self, conf: dict | None = None) -> dict | None:
        """One timed, verified job; ``None`` (and a failure counted) when
        it raised, needed a restart, or produced the wrong output."""
        self.attempted += 1
        cpu0 = cpu_seconds()
        t0 = _clock()
        try:
            out = self.workload.run(self.state, conf)
        except Exception:  # noqa: BLE001 - any failure is counted and reported
            traceback.print_exc()
            self.failed += 1
            return None
        wall = _clock() - t0
        cpu = cpu_seconds() - cpu0
        metrics = out.result.metrics
        if metrics.restarts or metrics.respawns or not self.workload.verify(
                self.state, out):
            print(f"FAILED: {self.workload.name} job {self.attempted} "
                  f"(restarts={metrics.restarts}, respawns={metrics.respawns}, "
                  f"generator {out.late_ms:.1f} ms behind)", file=sys.stderr)
            self.failed += 1
            return None
        return {
            "wall": wall, "cpu": cpu, "metrics": metrics,
            "late_ms": out.max_late_ms,
            # kept only where they are reported: the lists are large
            "latencies": sorted(out.latencies) if self.workload.open_loop else [],
            "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }

    def jobs_until(self, deadline: float) -> list[dict]:
        """Good jobs until ``deadline``, at least ``MIN_REPEATS`` of them
        unless they keep failing."""
        minimum = self.args.repeats
        samples: list[dict] = []
        tries = 0
        while _clock() < deadline or (len(samples) < minimum and tries < 2 * minimum):
            tries += 1
            sample = self.job()
            if sample is not None:
                samples.append(sample)
        return samples


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Set-up, several times, each in a fresh interpreter: imports, input
    generation and the DFS load, as a user starting a job pays them."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUPS):
        t0 = _clock()
        child = subprocess.Popen(command, cwd=ROOT)
        # a watchdog, not ``wait(timeout)``: that polls, up to 50 ms late
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        code = child.wait()
        times.append(_clock() - t0)
        watchdog.cancel()
        if code:
            raise RuntimeError(f"set-up of {args.workload} ended with code {code}")
    return times


def end_to_end(runner: Runner) -> dict[str, dict]:
    """The untraced run: warm-up, timed jobs, then set-up."""
    args = runner.args
    runner.job()  # warm-up: first-use imports, allocator growth, page cache
    samples = runner.jobs_until(_clock() + args.seconds)
    if not samples:
        return {}
    walls = [s["wall"] for s in samples]
    # peak memory after a fixed number of jobs (how many fit in the run
    # depends on the machine's speed), and before the set-up children:
    # RUSAGE_CHILDREN keeps the largest child ever reaped, which must be
    # a rank process or nothing
    rss_kib = samples[min(len(samples), MIN_REPEATS) - 1]["rss_kib"]
    metrics = {
        "setup_s": _fastest(setup_seconds(args), "s"),
        "job_wall_s": _fastest(walls, "s"),
        "cpu_s": _fastest([s["cpu"] for s in samples], "s"),
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB", "n": 1},
    }
    if runner.workload.open_loop:
        # per event, due time to receipt: each job's percentile over its
        # events, and like every other time the least disturbed job's
        for name, share in (("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)):
            metrics[name] = _fastest(
                [_percentile(s["latencies"], share) * 1e3 for s in samples], "ms")
            metrics[name]["events_per_job"] = len(samples[0]["latencies"])
    else:
        # No per-event latency here (a closed loop's is the backlog its
        # own source builds), but the result line must carry every
        # end-to-end metric of BENCHMARK.json on every workload.  Both
        # names repeat the job time in ms and say so: compare.py leaves
        # rows marked ``same_as`` out.
        for name in ("latency_p50_ms", "latency_p99_ms"):
            metrics[name] = {**_fastest([w * 1e3 for w in walls], "ms"),
                             "same_as": "job_wall_s"}
    return metrics


def per_layer(runner: Runner) -> dict[str, dict]:
    """The traced run: layer replay, traced and untraced jobs, baseline."""
    import replay
    from repro.core.constants import MPI_D_Constants as K
    from workloads import RANKS

    args, workload, state = runner.args, runner.workload, runner.state
    deadline = _clock() + args.seconds
    if runner.job() is None:  # warm-up
        return {}
    spans = Spans(workload.name)
    values, replayed_pairs = replay.run(workload, state, spans)

    trace_conf = {K.TRACE_ENABLED: True,
                  K.TRACE_PATH: os.path.join(tempfile.gettempdir(), "job.trace.jsonl")}
    plain: list[dict] = []
    traced: list[dict] = []
    while True:  # alternate so both sides see the same machine state
        pair = runner.job(), runner.job(trace_conf)
        if None in pair:
            return {}
        plain.append(pair[0])
        traced.append(pair[1])
        if _clock() >= deadline and len(plain) >= args.repeats:
            break
    timed = "cpu" if workload.open_loop else "wall"  # the schedule fixes the wall
    wall = statistics.median(s["wall"] for s in plain)
    cpu = statistics.median(s["cpu"] for s in plain)
    values["obs.trace_overhead_pct"] = 100 * (statistics.median(
        t[timed] / p[timed] for p, t in zip(plain, traced)) - 1)
    values["workload.records_per_s"] = workload.records(state) / wall
    values["loadgen.max_late_ms"] = max(s["late_ms"] for s in plain)

    job = plain[-1]["metrics"]
    for phase in ("compute", "partition-sort", "communicate", "merge", "spill",
                  "checkpoint", "control"):
        values[f"engine.phase.{phase.replace('-', '_')}_s"] = job.phase_times.get(
            phase, 0.0)
    # spill overlaps the other buckets (it runs on the receiver thread)
    covered = sum(v for k, v in job.phase_times.items() if k != "spill")
    values["engine.phase_coverage"] = covered / (job.duration * RANKS)
    for counter in ("records_sent", "bytes_sent", "blocks_sent", "spilled_bytes",
                    "combined_away"):
        values[f"engine.{counter}"] = getattr(job, counter)

    # one replay pass stands for every emit of the job (Iteration mode
    # repeats the pass each round, on both planes)
    emitted = sum(task.records_emitted for task in job.tasks)
    scale = emitted / replayed_pairs
    explained = replay.empty_job_cpu(spans, workload.conf().get(K.LAUNCHER, "threads"))
    for layer in replay.PATH_LAYERS:
        values[f"replay.{layer}.self_s"] = spans.self_time(layer) * scale
        if layer in workload.path_layers:
            explained += values[f"replay.{layer}.self_s"]
    values["replay.explained_share"] = explained / cpu

    baseline_wall, baseline_records = workload.baseline(state)
    values["baseline.job_wall_s"] = baseline_wall
    values["baseline.speedup"] = (
        values["workload.records_per_s"] / (baseline_records / baseline_wall))

    spans.write(os.path.join(
        WORK, "runs", f"{workload.name}-s{args.seed}.spans.jsonl"))
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, one run, one JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    tempfile.tempdir = tempfile.mkdtemp(prefix="tmp-", dir=WORK)
    try:
        from workloads import RANKS, WORKLOADS

        workload = WORKLOADS[args.workload]
        if args.setup_only:
            workload.setup(args.seed, args.scale)
            return 0
        env = environment(args, RANKS)
        if env["cpu_limited"] and not args.oversubscribe:
            print(f"refusing to run {RANKS} ranks on {env['nproc']} core(s); "
                  "pass --oversubscribe to run anyway (results are marked "
                  "cpu_limited)", file=sys.stderr)
            return 2
        runner = Runner(workload, args)
        with cores_kept_awake() if args.keep_awake else contextlib.nullcontext([]) as loops:
            detail = per_layer(runner) if args.trace else end_to_end(runner)
            env["cores_kept_awake"] = sum(loop.poll() is None for loop in loops)
        wanted = _spec()["per_layer" if args.trace else "end_to_end"]
        complete = all(m["name"] in detail for m in wanted)
        record = {
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "correct": runner.failed == 0 and complete,
            "attempted": runner.attempted, "failed": runner.failed,
            "env": env, "metrics": detail,
        }
        with open(os.path.join(
                WORK, "runs", f"{workload.name}-s{args.seed}-t{args.trace}.json"),
                "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        for name, metric in detail.items():
            spread = (f"  (fastest of {metric['n']}, median {metric['median']:.6g}, "
                      f"q1={metric['q1']:.6g}, q3={metric['q3']:.6g})"
                      if "median" in metric else "")
            print(f"{workload.name} {name} = {metric['value']:.6g} "
                  f"{metric['unit']}{spread}")
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in detail.items()},
        }), flush=True)
        return 0 if record["correct"] else 1
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)


def run_suite(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; one results file."""
    names = [workload["name"] for workload in _spec()["workloads"]]
    if args.all:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from workloads import WORKLOADS

        names = list(WORKLOADS)
    plans = []
    for name in names:
        plans += [(name, args.seed + i, 0) for i in range(args.runs)]
        if not args.no_trace:
            plans.append((name, args.seed, 1))

    def run_plan(plan: tuple[str, int, int]) -> tuple[int, dict]:
        name, seed, trace = plan
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
        command += ["--smoke"] * args.smoke + ["--oversubscribe"] * args.oversubscribe
        path = os.path.join(ROOT, WORK, "runs", f"{name}-s{seed}-t{trace}.json")
        if os.path.exists(path):
            os.remove(path)  # a record found afterwards is this run's
        # its own process group, so that a wedged run's ranks go with it
        proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(run_timeout)
        except subprocess.TimeoutExpired:
            code = "timed out"
        finally:
            if proc.poll() is None:  # timed out, or the suite was interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code in (0, 1) and os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return code, json.load(f)
        # crashed, refused or killed before it wrote a record: the whole
        # run counts as one attempt that failed
        print(f"FAILED: {name} seed {seed} trace {trace}: {code}", file=sys.stderr)
        return code if isinstance(code, int) and code > 0 else 1, {
            "workload": name, "seed": seed, "trace": trace, "code": code,
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }

    # warm-up, timed jobs, set-ups and (traced run) the replay: a run that
    # needs several times its measuring time is wedged
    run_timeout = 90 + 6 * args.seconds
    # timed runs never share the machine; smoke runs only check the plumbing
    with concurrent.futures.ThreadPoolExecutor(2 if args.smoke else 1) as pool:
        results = list(pool.map(run_plan, plans))
    runs = [record for _, record in results]
    out = args.out or os.path.join(ROOT, WORK, f"results-s{args.seed}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"runs": runs}, f, indent=1)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"failed_share = {failed}/{attempted} jobs run; results in {out}")
    return max(code for code, _ in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload alone, in this process")
    parser.add_argument("--seed", type=int, default=11, help="input generator seed")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run with the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--oversubscribe", action="store_true",
                        help="run even with fewer cores than ranks")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: untraced runs per workload, on successive seeds")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced runs")
    parser.add_argument("--all", action="store_true",
                        help="suite: also the workloads BENCHMARK.json does not list")
    parser.add_argument("--out", help="suite: results file")
    parser.add_argument("--keep-awake", type=int, choices=(0, 1), default=1,
                        help="0 = no idle-priority loops (to repeat the on/off "
                        "comparison in results/)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.scale = 0.05 if args.smoke else 1.0
    args.repeats = 1 if args.smoke else MIN_REPEATS
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else _spec()["run_seconds"]
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
