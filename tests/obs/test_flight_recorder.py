"""End-to-end flight recorder tests: traced jobs, the journal they leave,
the inspector's report, and the ``repro trace`` CLI."""

import dataclasses
import json

import pytest

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.obs.inspect import (
    COVERAGE_PHASES,
    coverage,
    failure_timeline,
    format_report,
    phase_table,
    summarize_journal,
    top_tasks,
)
from repro.obs.journal import JournalWriter, read_journal
from repro.obs.tracer import TRACER


def _job(name="traced", conf=None):
    def o_fn(ctx):
        for i in range(200):
            ctx.send(f"k{i % 20:03d}", 1)

    def a_fn(ctx):
        for _ in ctx.recv_iter():
            pass

    return DataMPIJob(
        name, o_fn, a_fn, o_tasks=2, a_tasks=2, mode=Mode.MAPREDUCE,
        conf=conf,
    )


@pytest.fixture()
def traced_result(tmp_path):
    path = str(tmp_path / "job.trace.jsonl")
    conf = {K.TRACE_ENABLED: True, K.TRACE_PATH: path}
    result = mpidrun(_job(conf=conf), nprocs=2, raise_on_error=True)
    assert TRACER.enabled is False  # always returned to the cheap state
    return result, path


class TestTracedRun:
    def test_result_carries_trace_path(self, traced_result):
        result, path = traced_result
        assert result.success
        assert result.trace_path == path

    def test_journal_has_all_record_types(self, traced_result):
        _, path = traced_result
        j = read_journal(path)
        assert j.meta["job"] == "traced"
        assert j.meta["nprocs"] == 2
        assert j.spans, "expected span events"
        assert j.summary["success"] is True
        assert "process.cpu.seconds" in {e["name"] for e in j.counters}

    def test_task_spans_cover_every_attempt(self, traced_result):
        result, path = traced_result
        j = read_journal(path)
        task_spans = [e for e in j.spans if e.get("cat") == "task"]
        assert len(task_spans) == len(result.metrics.tasks) == 4

    def test_phase_coverage_meets_the_bar(self, traced_result):
        _, path = traced_result
        j = read_journal(path)
        assert coverage(j) >= 0.95
        phases = phase_table(j)
        assert set(phases) & set(COVERAGE_PHASES)

    def test_worker_summary_per_rank(self, traced_result):
        _, path = traced_result
        workers = read_journal(path).summary["workers"]
        assert [w["rank"] for w in workers] == [0, 1]
        for w in workers:
            assert w["wall_seconds"] > 0
            assert w["phase_times"]

    def test_untraced_run_leaves_tracer_cold_and_no_path(self):
        result = mpidrun(_job("cold"), nprocs=2, raise_on_error=True)
        assert result.success
        assert result.trace_path == ""
        assert TRACER.enabled is False
        # phase accounting is always on, tracing or not
        assert result.metrics.phase_times
        assert len(result.metrics.tasks) == 4


class TestUtilizationSeries:
    def test_every_rank_samples_its_own_process_on_its_lane(
        self, tmp_path, launcher
    ):
        path = str(tmp_path / "util.trace.jsonl")
        conf = {K.LAUNCHER: launcher, K.TRACE_PATH: path}
        result = mpidrun(_job("util", conf), nprocs=2, raise_on_error=True)
        journal = read_journal(path)
        for name in ("process.cpu.seconds", "process.rss.bytes"):
            lanes = [e["rank"] for e in journal.counters if e["name"] == name]
            # one sample at start and one at the final fold, at least
            assert all(lanes.count(rank) >= 2 for rank in (0, 1)), lanes
            assert set(lanes) == {0, 1}  # none on the driver's lane (-1)
        assert "process.cpu.seconds" in summarize_journal(journal)["series"]
        workers = journal.summary["workers"]
        assert [w["rank"] for w in workers] == [0, 1]
        assert all(w["process_rss_bytes"] > 0 for w in workers)
        assert result.success


class TestTaskMetricsTable:
    def test_per_task_rows(self):
        result = mpidrun(_job("table"), nprocs=2, raise_on_error=True)
        rows = result.metrics.tasks
        assert len(rows) == 4
        kinds = sorted(t.kind for t in rows)
        assert kinds == ["A", "A", "O", "O"]
        for t in rows:
            assert t.worker in (0, 1)
            assert t.duration > 0
        o_emitted = sum(
            t.records_emitted for t in rows if t.kind == "O"
        )
        assert o_emitted == 400
        d = rows[0].as_dict()
        assert {"task_id", "kind", "worker", "duration"} <= set(d)


class TestInspector:
    def test_summary_and_report(self, traced_result):
        _, path = traced_result
        s = summarize_journal(read_journal(path), n_tasks=3)
        assert s["job"] == "traced"
        assert s["wall_seconds"] > 0
        assert len(s["top_tasks"]) == 3
        assert s["top_tasks"][0]["duration"] >= s["top_tasks"][-1]["duration"]
        report = format_report(s)
        assert "phase times" in report
        assert "coverage" in report

    def test_a_journal_without_a_summary_has_no_phase_table(self, tmp_path):
        """The phase buckets are the ranks' clocks, and only the summary
        carries them: a ``plane.wait`` span (``cat="phase"``) is not a
        phase, and the report of a journal cut before its summary shows
        no table rather than one made of it."""
        path = str(tmp_path / "cut.trace.jsonl")
        with JournalWriter(path) as w:
            w.write_meta(job="x")
            w.write_events([
                {"ph": "X", "ts": 0.0, "dur": 0.5, "name": "plane.wait",
                 "cat": "phase", "rank": 1, "tid": "w"},
                {"ph": "X", "ts": 0.5, "dur": 0.25, "name": "O-task-0",
                 "cat": "task", "rank": 1, "tid": "w", "args": {"kind": "O"}},
            ])
        s = summarize_journal(read_journal(path))
        assert s["phase_times"] == {}
        assert s["coverage"] == 0.0
        assert s["wall_seconds"] == 0.75  # the events still give the rest
        assert s["top_tasks"][0]["duration"] == 0.25
        assert "phase times" not in format_report(s)

    def test_failure_timeline_from_traced_crash(self, tmp_path):
        path = str(tmp_path / "crash.trace.jsonl")

        def bad_o(ctx):
            raise RuntimeError("injected")

        job = DataMPIJob(
            "crash", bad_o, lambda ctx: list(ctx.recv_iter()),
            o_tasks=1, a_tasks=1, mode=Mode.MAPREDUCE,
            conf={K.TRACE_ENABLED: True, K.TRACE_PATH: path},
        )
        result = mpidrun(job, nprocs=1)
        assert not result.success
        j = read_journal(path)
        timeline = failure_timeline(j)
        assert timeline, "expected failure instants/records"
        assert any(f["cat"] == "failure" for f in timeline)
        assert j.summary["success"] is False

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    def test_a_failure_is_on_the_timeline_once(self, tmp_path, launcher):
        """An injected crash, then one restart: the crash is the one
        ``failure.task`` instant of its attempt, and the summary's copy
        of the same record adds no undated second entry."""
        path = str(tmp_path / "restart.trace.jsonl")
        job = dataclasses.replace(_job("timeline", conf={
            K.LAUNCHER: launcher, K.TRACE_PATH: path,
            K.FT_ENABLED: True, K.FT_DIR: str(tmp_path / "ft"),
            K.JOB_MAX_RESTARTS: 1, K.RESTART_BACKOFF_SECONDS: 0.0,
            K.INJECT_CRASH_TASK: 1, K.INJECT_CRASH_AFTER_RECORDS: 50,
        }), o_tasks=4)
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        assert result.restarts == 1
        timeline = failure_timeline(read_journal(path))
        assert [f["kind"] for f in timeline].count("failure.task") == 1
        assert all(f["ts"] >= 0 for f in timeline)


class TestTraceCli:
    def test_report_and_chrome_export(self, traced_result, tmp_path, capsys):
        from repro.cli import trace_main

        _, path = traced_result
        out = str(tmp_path / "trace.json")
        rc = trace_main([path, "--top", "2", "--out", out,
                         "--check-coverage", "95"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "phase times" in printed
        assert "coverage check passed" in printed
        with open(out, encoding="utf-8") as f:
            chrome = json.load(f)
        assert chrome["traceEvents"]

    def test_json_output(self, traced_result, capsys):
        from repro.cli import trace_main

        _, path = traced_result
        assert trace_main([path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["job"] == "traced"
        assert summary["coverage"] >= 0.95

    def test_coverage_gate_fails(self, tmp_path, capsys):
        from repro.cli import trace_main

        path = str(tmp_path / "low.trace.jsonl")
        with JournalWriter(path) as w:
            w.write_meta(job="low")
            w.write_event({"ph": "i", "ts": 0.0, "name": "e", "tid": "t", "rank": 0})
            w.write_summary({"workers": [{"rank": 0, "wall_seconds": 10.0,
                                          "phase_times": {"compute": 1.0}}]})
        assert trace_main([path, "--check-coverage", "95"]) == 1

    def test_coverage_gate_fails_on_an_over_count(self, tmp_path, capsys):
        # buckets twice the wall (two threads charging one rank): no clamp
        # turns that into "100% covered"
        from repro.cli import trace_main

        path = str(tmp_path / "twice.trace.jsonl")
        with JournalWriter(path) as w:
            w.write_meta(job="twice")
            w.write_event({"ph": "i", "ts": 0.0, "name": "e", "tid": "t", "rank": 0})
            w.write_summary({"workers": [
                {"rank": rank, "wall_seconds": 10.0,
                 "phase_times": {"compute": 8.0, "merge": 10.0,
                                 "communicate": 2.0, "spill": 5.0}}
                for rank in (0, 1)
            ]})
        assert coverage(read_journal(path)) == pytest.approx(2.0)
        assert trace_main([path, "--check-coverage", "95"]) == 1
        assert "coverage 200.0% outside 95.0–105%" in capsys.readouterr().err

    def test_missing_journal(self, tmp_path, capsys):
        from repro.cli import trace_main

        assert trace_main([str(tmp_path / "nope.jsonl")]) == 2

    def test_launcher_flags(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "wc.trace.jsonl")
        metrics = str(tmp_path / "wc.metrics.json")
        rc = main([
            f"--trace={journal}", "--metrics-json", metrics,
            "-O", "2", "-A", "2", "-M", "mapreduce",
            "-jar", "demos.jar", "WordCount", "50",
        ])
        assert rc == 0
        assert read_journal(journal).spans
        with open(metrics, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["success"] is True
        assert payload["trace_path"] == journal
        assert payload["tasks"]
        assert payload["phase_times"]
