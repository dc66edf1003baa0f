"""The ``mpidrun`` command-line launcher (paper §IV-B).

The paper launches DataMPI applications as::

    $ mpidrun -f hostfile -O n -A m -M mode -jar jarname classname params

This module provides that interface as a console script (and
``python -m repro.cli``): the ``-jar``/classname pair selects one of the
bundled demo applications, which run over synthetic inputs so the
command works out of the box::

    $ mpidrun -O 4 -A 2 -M common -jar demos.jar Sort 200
    $ mpidrun -O 4 -A 2 -M mapreduce -jar demos.jar WordCount 300
    $ mpidrun -O 2 -A 3 -M streaming -jar demos.jar TopK 2000 5

Observability and backend flags ride along on any launch:

    $ mpidrun --trace=/tmp/wc.jsonl -O 4 -A 2 -M mapreduce \\
          -jar demos.jar WordCount 300
    $ mpidrun --metrics-json=/tmp/wc-metrics.json ...
    $ mpidrun --launcher=processes -O 4 -A 2 -M mapreduce \\
          -jar demos.jar WordCount 300

``--launcher`` selects the rank backend (``threads`` or ``processes``,
see ``mpi.d.launcher``); the demos publish their results through
:class:`~repro.core.FileSink`, so both backends print identical output.

and ``trace`` inspects a recorded journal (also exposed as the ``repro``
console script, so ``repro trace <journal>`` works)::

    $ mpidrun trace /tmp/wc.jsonl --top 5
    $ mpidrun trace /tmp/wc.jsonl --out trace.json   # chrome://tracing

``--telemetry`` turns on the live telemetry plane: every rank's heartbeat
carries its metrics record to a driver-side hub exposed over RPC, and
``top`` polls it into a live per-rank table (or Prometheus text)::

    $ mpidrun --telemetry=/tmp/wc.endpoint --launcher=processes \\
          -O 4 -A 2 -M mapreduce -jar demos.jar WordCount 300 &
    $ mpidrun top /tmp/wc.endpoint            # live per-rank table
    $ mpidrun top /tmp/wc.endpoint --prom     # Prometheus exposition

``--profile[=HZ]`` turns on the per-rank sampling profiler (collapsed
stacks folded into the trace journal; inspect with ``flame``), and
``--doctor[=PATH]`` runs the driver-side diagnosis engine that watches
for stragglers and stalls and writes a ranked ``doctor.json``::

    $ mpidrun --trace=/tmp/wc.jsonl --profile=50 --doctor=/tmp/wc.doctor.json \\
          -O 4 -A 2 -M mapreduce -jar demos.jar WordCount 300
    $ mpidrun flame /tmp/wc.jsonl --out wc.collapsed --speedscope wc.speedscope.json
    $ mpidrun doctor /tmp/wc.doctor.json      # ranked findings + captures
    $ mpidrun doctor /tmp/wc.endpoint --capture   # live, with a stack capture
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable

from repro.common.errors import DataMPIError, JobFailedError
from repro.core import DataMPIJob, FileSink, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import JobResult
from repro.core.mpidrun import parse_mpidrun_command
from repro.obs.profiler import DEFAULT_HZ


def _run_sort(options: dict, params: list[str]) -> JobResult:
    n = int(params[0]) if params else 200
    sink = FileSink.temporary("sort")

    def o_fn(ctx):
        for i in range(ctx.rank, n, ctx.o_size):
            ctx.send(f"key-{i:06d}", "")

    def a_fn(ctx):
        got = [k for k, _ in ctx.recv_iter()]
        sink(ctx.rank, ctx.rank, got)

    try:
        result = _launch(options, o_fn, a_fn)
        outputs = sink.merged()
    finally:
        sink.cleanup()
    total = sum(len(v) for v in outputs.values())
    print(f"sorted {total} keys across {len(outputs)} partitions")
    for rank in sorted(outputs):
        keys = outputs[rank]
        head = keys[0] if keys else "-"
        tail = keys[-1] if keys else "-"
        print(f"  partition {rank}: {len(keys)} keys [{head} .. {tail}]")
    return result


def _run_wordcount(options: dict, params: list[str]) -> JobResult:
    from repro.workloads.wordcount import generate_text, wordcount_reference

    n_lines = int(params[0]) if params else 200
    lines = generate_text(n_lines)
    sink = FileSink.temporary("wordcount")

    def o_fn(ctx):
        for i in range(ctx.rank, len(lines), ctx.o_size):
            for word in lines[i].split():
                ctx.send(word, 1)

    def a_fn(ctx):
        from repro.core.sorter import group_by_key

        for word, ones in group_by_key(ctx.recv_iter()):
            sink(ctx.rank, word, sum(ones))

    try:
        result = _launch(options, o_fn, a_fn)
        counts = sink.merged()
    finally:
        sink.cleanup()
    assert counts == wordcount_reference(lines)
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
    print(f"counted {sum(counts.values())} words, {len(counts)} distinct")
    for word, count in top:
        print(f"  {word}: {count}")
    return result


def _run_topk(options: dict, params: list[str]) -> JobResult:
    from repro.workloads.topk import generate_stream, merge_topk, topk_reference
    import heapq

    n_events = int(params[0]) if params else 2000
    k = int(params[1]) if len(params) > 1 else 5
    words = generate_stream(n_events)
    sink = FileSink.temporary("topk")

    def o_fn(ctx):
        for i in range(ctx.rank, len(words), ctx.o_size):
            ctx.send(words[i], 1)

    def a_fn(ctx):
        local: dict[str, int] = {}
        for word, _ in ctx.recv_iter():
            local[word] = local.get(word, 0) + 1
        top = heapq.nsmallest(k, local.items(), key=lambda kv: (-kv[1], kv[0]))
        sink(ctx.rank, ctx.rank, top)

    try:
        result = _launch(options, o_fn, a_fn)
        partials = [pair for top in sink.merged().values() for pair in top]
    finally:
        sink.cleanup()
    top = merge_topk(partials, k)
    assert top == topk_reference(words, k)
    print(f"top-{k} of {n_events} streamed events:")
    for word, count in top:
        print(f"  {word}: {count}")
    return result


def _launch(options: dict, o_fn: Callable, a_fn: Callable) -> JobResult:
    job = DataMPIJob(
        name=options["classname"] or "job",
        o_fn=o_fn,
        a_fn=a_fn,
        o_tasks=options["o_tasks"],
        a_tasks=options["a_tasks"],
        mode=options["mode"],
        conf=options.get("conf") or None,
    )
    return mpidrun(job, raise_on_error=True)


#: classname -> runner; names mirror the paper's benchmark programs
APPLICATIONS: dict[str, Callable[[dict, list[str]], JobResult]] = {
    "Sort": _run_sort,
    "WordCount": _run_wordcount,
    "TopK": _run_topk,
}


def _check_launcher(backend: str) -> str:
    """Fail fast on a bad ``--launcher`` value, before the job launches."""
    from repro.common.errors import MPIError
    from repro.mpi.runtime import runtime_class

    try:
        runtime_class(backend)  # the name only: nothing is constructed
    except MPIError as exc:
        raise DataMPIError(str(exc)) from None
    return backend


#: the metrics-json path rides in the flag table like a conf key
_METRICS_JSON = "--metrics-json"

#: flag -> (conf a bare flag sets, key its =VALUE sets, VALUE parser, VALUE
#: in words).  Without the first, the VALUE is required and may be the next
#: argument
_OBS_FLAGS: dict[str, tuple[dict | None, str, Callable[[str], Any], str]] = {
    "--launcher": (None, K.LAUNCHER, _check_launcher, "a backend name"),
    "--telemetry": (
        {K.TELEMETRY_ENABLED: True}, K.TELEMETRY_ENDPOINT_FILE, str,
        "an endpoint file",
    ),
    "--trace": ({K.TRACE_ENABLED: True}, K.TRACE_PATH, str, "a journal path"),
    "--profile": (
        {K.PROFILE_HZ: DEFAULT_HZ}, K.PROFILE_HZ, float, "a sampling rate in Hz",
    ),
    "--doctor": ({K.DOCTOR_ENABLED: True}, K.DOCTOR_PATH, str, "a report path"),
    _METRICS_JSON: (None, _METRICS_JSON, str, "a path"),
}


def _extract_obs_flags(argv: list[str]) -> tuple[list[str], dict, str | None]:
    """Strip the :data:`_OBS_FLAGS` from ``argv``.

    Returns (remaining argv, conf overrides for the launch, metrics-json
    output path or None).  The flags live outside the paper's mpidrun
    grammar, so they are peeled off before :func:`parse_mpidrun_command`.
    """
    rest: list[str] = []
    conf: dict = {}
    args = iter(argv)
    for tok in args:
        flag, given, value = tok.partition("=")
        if flag not in _OBS_FLAGS:
            rest.append(tok)
            continue
        bare, key, parse, noun = _OBS_FLAGS[flag]
        if bare is None and not given:
            if (value := next(args, None)) is None:
                raise DataMPIError(f"{flag} requires {noun}")
            given = True
        conf.update(bare or {})
        if given:
            try:
                conf[key] = parse(value)
            except ValueError:
                raise DataMPIError(f"{flag} wants {noun}, got {tok!r}") from None
    return rest, conf, conf.pop(_METRICS_JSON, None)


def _write_metrics_json(result: JobResult, path: str) -> None:
    payload = {
        "name": result.name,
        "success": result.success,
        "trace_path": result.trace_path,
        **result.metrics.as_dict(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, default=repr)
    print(f"metrics written to {path}")


#: ``--check-coverage`` also fails above this: buckets that exceed the
#: wall charged some second twice, which is as wrong as leaving one out
_COVERAGE_CEILING_PCT = 105.0


#: the kinds of target ``repro``'s commands read, as messages name them
_KINDS = {
    "journal": "a trace journal",
    "report": "a doctor report",
    "endpoint": "a telemetry endpoint",
}


def _open(prog: str, target: str, *kinds: str) -> Any:
    """Decide what ``target`` is and open it if ``repro prog`` reads that
    kind, else return None after saying why not on stderr.  A JSON object
    with ``findings`` is a report (the object); one with ``address``, a
    ``host:port``, or an existing path that is not a regular file (an
    AF_UNIX socket) is an endpoint (an RPC client on it); any other file
    is a journal (read).  Nothing at a path: the kind ``prog`` reads."""
    import os

    def fail(message: str) -> None:
        print(f"repro {prog}: {message}", file=sys.stderr)

    doc: Any = {}
    if os.path.isfile(target):
        try:
            with open(target, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError):
            pass  # JSON lines, or unreadable: read_journal says which
        doc = doc if isinstance(doc, dict) else {}
        kind = "report" if "findings" in doc else (
            "endpoint" if "address" in doc else "journal")
    elif ":" in target and not target.startswith("/") or os.path.exists(target):
        kind = "endpoint"
    else:
        kind = "journal" if "journal" in kinds else "endpoint"
    if kind not in kinds:
        wanted = " or ".join(_KINDS[k] for k in kinds)
        return fail(f"{target} is {_KINDS[kind]}; repro {prog} reads {wanted}")
    if kind == "report":
        return doc
    if kind == "journal":
        from repro.obs.journal import read_journal

        try:
            return read_journal(target)
        except OSError as exc:
            return fail(f"cannot read {target}: {exc}")
    from repro.rpc import SocketRpcClient

    address = doc.get("address", target)
    if isinstance(address, list):
        address = (address[0], int(address[1]))
    elif address == target and not os.path.exists(target):
        host, _, port = target.rpartition(":")
        if not host or target.startswith("/"):
            return fail(f"no such endpoint file or socket: {target} "
                        "(is the job still running with --telemetry?)")
        if not port.isdigit():
            return fail(f"bad host:port endpoint {target!r}")
        address = (host, int(port))
    try:
        return SocketRpcClient(address, timeout=10.0)
    except OSError as exc:
        return fail(f"cannot connect to {address!r}: {exc}")


def trace_main(argv: list[str]) -> int:
    """``repro trace <journal>`` — inspect a flight-recorder journal."""
    import argparse

    from repro.obs.inspect import format_report, summarize_journal
    from repro.obs.journal import export_chrome

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect a flight-recorder journal (phase times, "
        "slowest tasks, failure timeline).",
    )
    parser.add_argument("journal", help="path to a *.trace.jsonl journal")
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="slowest task attempts to list (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="also export a Chrome/Perfetto trace.json to PATH",
    )
    parser.add_argument(
        "--check-coverage", type=float, default=None, metavar="PCT",
        help="exit non-zero when phase coverage of worker wall time is "
        f"below PCT (e.g. 95) or above {_COVERAGE_CEILING_PCT:.0f} (time "
        "counted twice)",
    )
    args = parser.parse_args(argv)
    journal = _open("trace", args.journal, "journal")
    if journal is None:
        return 2
    if not journal.events and not journal.summary:
        print(f"repro trace: {args.journal} holds no journal records",
              file=sys.stderr)
        return 2
    summary = summarize_journal(journal, n_tasks=args.top)
    if args.json:
        print(json.dumps(summary, indent=2, default=repr))
    else:
        print(format_report(summary))
    if args.out:
        export_chrome(journal, args.out)
        print(f"chrome trace exported to {args.out}")
    if args.check_coverage is not None:
        pct = summary["coverage"] * 100.0
        if not args.check_coverage <= pct <= _COVERAGE_CEILING_PCT:
            print(
                f"repro trace: coverage {pct:.1f}% outside "
                f"{args.check_coverage:.1f}–{_COVERAGE_CEILING_PCT:.0f}%",
                file=sys.stderr,
            )
            return 1
        print(f"coverage check passed: {pct:.1f}% >= {args.check_coverage:.1f}%")
    return 0


def top_main(argv: list[str]) -> int:
    """``repro top <endpoint>`` — poll a job's live telemetry plane."""
    import argparse
    import time

    from repro.common.errors import RPCError
    from repro.obs.telemetry import format_top_table

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live per-rank table for a running job launched with "
        "--telemetry (polls the driver's telemetry RPC endpoint).",
    )
    parser.add_argument(
        "endpoint",
        help="endpoint file written by --telemetry=FILE, host:port, or "
        "an AF_UNIX socket path",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between refreshes (default 1.0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default: until interrupted or the "
        "job's endpoint goes away)",
    )
    parser.add_argument(
        "--once", action="store_true", help="single refresh (same as "
        "--iterations=1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit per-rank rows and rollups as JSON instead of a table",
    )
    parser.add_argument(
        "--prom", action="store_true",
        help="emit the Prometheus text exposition instead of a table",
    )
    args = parser.parse_args(argv)
    iterations = 1 if args.once else args.iterations
    client = _open("top", args.endpoint, "endpoint")
    if client is None:
        return 2
    count = 0
    try:
        while True:
            try:
                if args.prom:
                    print(client.call("telemetry_scrape"), end="")
                else:
                    rows = client.call("telemetry_ranks")
                    rollups = client.call("telemetry_rollups")
                    if args.json:
                        print(json.dumps(
                            {"ranks": rows, "rollups": rollups}, default=repr
                        ))
                    else:
                        print(format_top_table(rows, rollups))
            except (OSError, RPCError) as exc:
                print(f"repro top: endpoint gone ({exc})", file=sys.stderr)
                return 0 if count else 2
            count += 1
            if iterations and count >= iterations:
                return 0
            time.sleep(args.interval)
            if not (args.json or args.prom):
                print()
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def flame_main(argv: list[str]) -> int:
    """``repro flame <journal>`` — flamegraph data from recorded profiles."""
    import argparse

    from repro.obs import profiler as profiler_mod

    parser = argparse.ArgumentParser(
        prog="repro flame",
        description="Summarize and export the sampling-profiler data a "
        "--trace --profile run folded into its journal (collapsed-stack "
        "text for flamegraph.pl / inferno, speedscope JSON for "
        "https://speedscope.app).",
    )
    parser.add_argument("journal", help="path to a *.trace.jsonl journal")
    parser.add_argument(
        "--rank", type=int, default=None, metavar="R",
        help="only this rank's profile",
    )
    parser.add_argument(
        "--phase", metavar="NAME",
        help="only samples from this phase bucket (e.g. merge, communicate)",
    )
    parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="hottest stacks to list per rank (default 5)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write collapsed-stack lines ('stack count') to PATH",
    )
    parser.add_argument(
        "--speedscope", metavar="PATH",
        help="write a speedscope JSON document to PATH",
    )
    args = parser.parse_args(argv)
    journal = _open("flame", args.journal, "journal")
    if journal is None:
        return 2
    profiles = journal.profiles
    if args.rank is not None:
        profiles = [p for p in profiles if p.get("rank") == args.rank]
    if args.phase:
        profiles = [
            {**p, "stacks": {args.phase: p["stacks"][args.phase]}}
            for p in profiles
            if (p.get("stacks") or {}).get(args.phase)
        ]
    if not profiles:
        print(
            f"repro flame: {args.journal} holds no matching profiles "
            "(was the job launched with --trace and --profile?)",
            file=sys.stderr,
        )
        return 2
    for profile in profiles:
        print(profiler_mod.format_profile(profile, args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(profiler_mod.to_collapsed(profiles))
        print(f"collapsed stacks written to {args.out}")
    if args.speedscope:
        doc = profiler_mod.to_speedscope(
            profiles, name=journal.meta.get("job", "datampi")
        )
        with open(args.speedscope, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        print(f"speedscope profile written to {args.speedscope}")
    return 0


def doctor_main(argv: list[str]) -> int:
    """``repro doctor <target>`` — straggler/stall diagnosis report."""
    import argparse

    from repro.common.errors import RPCError
    from repro.obs.doctor import render_report

    parser = argparse.ArgumentParser(
        prog="repro doctor",
        description="Show the diagnosis engine's report: a written "
        "doctor.json, or live from a running job launched with --doctor "
        "(give it the --telemetry endpoint).",
    )
    parser.add_argument(
        "target",
        help="a doctor.json file, or a live endpoint (endpoint file "
        "written by --telemetry=FILE, host:port, or AF_UNIX socket path)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the raw report JSON"
    )
    parser.add_argument(
        "--capture", action="store_true",
        help="live endpoints only: trigger an all-rank stack capture "
        "before fetching the report",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the report JSON to PATH"
    )
    args = parser.parse_args(argv)

    report = _open("doctor", args.target, "report", "endpoint")
    if report is None:
        return 2
    if not isinstance(report, dict):  # a live endpoint: ask its doctor
        client = report
        try:
            if args.capture:
                client.call("doctor_capture")
            report = client.call("doctor_report")
        except RPCError as exc:
            if "no such RPC method" in str(exc):
                print(
                    "repro doctor: this job has no diagnosis engine "
                    "(launch it with --doctor)",
                    file=sys.stderr,
                )
            else:
                print(f"repro doctor: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"repro doctor: endpoint gone ({exc})", file=sys.stderr)
            return 2
        finally:
            client.close()

    if args.json:
        print(json.dumps(report, indent=2, default=repr, sort_keys=True))
    else:
        print(render_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, default=repr, sort_keys=True)
            f.write("\n")
        print(f"doctor report written to {args.out}")
    return 0


_SUBCOMMANDS = {
    "trace": trace_main, "top": top_main, "flame": flame_main,
    "doctor": doctor_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("available classnames:", ", ".join(sorted(APPLICATIONS)))
        return 0
    if argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    try:
        argv, conf, metrics_json = _extract_obs_flags(argv)
        options = parse_mpidrun_command("mpidrun " + " ".join(argv))
    except DataMPIError as exc:
        print(f"mpidrun: {exc}", file=sys.stderr)
        return 2
    options["conf"] = conf
    classname = options["classname"]
    if classname not in APPLICATIONS:
        print(
            f"mpidrun: unknown classname {classname!r}; available: "
            f"{', '.join(sorted(APPLICATIONS))}",
            file=sys.stderr,
        )
        return 2
    try:
        result = APPLICATIONS[classname](options, options["params"])
    except JobFailedError as exc:
        # the demos launch with raise_on_error=True: report, don't crash
        print(f"mpidrun: {exc}", file=sys.stderr)
        for record in exc.failures:
            print(f"  {record.describe()}", file=sys.stderr)
        return 1
    print(
        f"\njob {result.name}: success={result.success} "
        f"records={result.metrics.records_sent} "
        f"A-locality={result.a_data_locality:.0%} "
        f"wall={result.metrics.duration:.2f}s"
    )
    if result.trace_path:
        print(f"trace journal: {result.trace_path}")
    if result.doctor_path:
        findings = len((result.doctor or {}).get("findings") or [])
        print(
            f"doctor report: {result.doctor_path} "
            f"({findings} finding(s); inspect with `repro doctor`)"
        )
    if metrics_json:
        _write_metrics_json(result, metrics_json)
    return 0 if result.success else 1


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
