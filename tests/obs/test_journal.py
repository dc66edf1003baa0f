"""Journal round-trip, torn-tail tolerance, and the Chrome exporter."""

import json

from repro.obs.journal import (
    Journal,
    JournalWriter,
    export_chrome,
    read_journal,
    to_chrome_trace,
    write_journal,
)


def _sample_events():
    return [
        {"ph": "X", "ts": 0.0, "dur": 0.5, "name": "O-task-0", "cat": "task",
         "tid": "MainThread", "rank": 0, "args": {"task": 0}},
        {"ph": "i", "ts": 0.1, "name": "fault.drop", "cat": "fault",
         "tid": "recv", "rank": 1, "args": {"origin": 0}},
        {"ph": "C", "ts": 0.2, "name": "bytes", "tid": "MainThread",
         "rank": 0, "args": {"value": 42}},
    ]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        write_journal(
            path,
            meta={"job": "t", "nprocs": 2},
            events=_sample_events(),
            summary={"wall_seconds": 1.5, "phase_times": {"compute": 1.0}},
        )
        j = read_journal(path)
        assert j.meta["job"] == "t"
        assert j.meta["version"] == 1
        assert len(j.events) == 3
        assert len(j.spans) == 1
        assert len(j.instants) == 1
        assert j.counters[0]["args"] == {"value": 42}
        assert j.summary["wall_seconds"] == 1.5

    def test_writer_is_a_context_manager(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalWriter(path) as w:
            w.write_meta(job="x")
            w.write_event({"ph": "i", "ts": 0.0, "name": "e"})
        assert len(read_journal(path).events) == 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        write_journal(path, meta={"job": "t"}, events=_sample_events())
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"type": "event", "ph": "i", "na')  # crash mid-line
        j = read_journal(path)
        assert len(j.events) == 3  # torn line skipped, prefix intact

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('\n{"type": "meta", "version": 1, "job": "x"}\n\n')
        assert read_journal(path).meta["job"] == "x"


class TestChromeExport:
    def test_structure_and_units(self):
        j = Journal(meta={"job": "t"}, events=_sample_events())
        trace = to_chrome_trace(j)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 0.5 * 1e6  # microseconds
        assert span["pid"] == 0
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["pid"] == 1  # rank lanes
        # metadata names every process and thread lane
        names = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in names)
        assert any(e["name"] == "thread_name" for e in names)
        # a counter sample renders on its rank's lane
        counter = next(e for e in events if e["ph"] == "C")
        assert (counter["name"], counter["pid"]) == ("bytes", 0)
        assert counter["args"] == {"value": 42}

    def test_driver_rank_lands_on_pid_zero(self):
        j = Journal(events=[{"ph": "i", "ts": 0.0, "name": "d", "tid": "Main",
                             "rank": -1}])
        events = to_chrome_trace(j)["traceEvents"]
        labels = [e for e in events if e.get("name") == "process_name"]
        assert labels[0]["args"]["name"] == "driver"

    def test_export_writes_valid_json(self, tmp_path):
        src = str(tmp_path / "j.jsonl")
        dst = str(tmp_path / "trace.json")
        write_journal(src, meta={"job": "t"}, events=_sample_events())
        export_chrome(read_journal(src), dst)
        with open(dst, encoding="utf-8") as f:
            data = json.load(f)
        assert isinstance(data["traceEvents"], list)
        assert data["otherData"]["job"] == "t"
