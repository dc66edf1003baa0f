"""Journal round-trip, torn-tail tolerance, and the Chrome exporter."""

import json

from repro.obs.journal import (
    Journal,
    JournalWriter,
    export_chrome,
    read_journal,
    to_chrome_trace,
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
        with JournalWriter(path) as w:
            w.write_meta(job="t", nprocs=2)
            w.write_events(_sample_events())
            w.write_summary({"wall_seconds": 1.5, "phase_times": {"compute": 1.0}})
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
        with JournalWriter(path) as w:
            w.write_meta(job="t")
            w.write_events(_sample_events())
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
        with JournalWriter(src) as w:
            w.write_meta(job="t")
            w.write_events(_sample_events())
        export_chrome(read_journal(src), dst)
        with open(dst, encoding="utf-8") as f:
            data = json.load(f)
        assert isinstance(data["traceEvents"], list)
        assert data["otherData"]["job"] == "t"


def _send(ts, rank, dest, seq, epoch=0, plane="fwd:0", **extra):
    return {"ph": "X", "ts": ts, "dur": 0.1, "name": "shuffle.send",
            "cat": "shuffle", "tid": "MainThread", "rank": rank,
            "args": {"plane": plane, "origin": rank, "epoch": epoch,
                     "dest": dest, "seq": seq, "blocks": 1, "bytes": 64,
                     "eos": False, **extra}}


def _recv(ts, rank, origin, seq, epoch=0, plane="fwd:0"):
    return {"ph": "X", "ts": ts, "dur": 0.1, "name": "shuffle.recv.batch",
            "cat": "shuffle", "tid": "wire", "rank": rank,
            "args": {"plane": plane, "origin": origin, "epoch": epoch,
                     "rank": rank, "seq": seq, "blocks": 1}}


def _flows(events):
    trace = to_chrome_trace(Journal(events=events))["traceEvents"]
    return ([e for e in trace if e["ph"] == "s"],
            [e for e in trace if e["ph"] == "f"])


class TestFlowArrows:
    """Shuffle arrows are paired from the spans' stream coordinates."""

    def test_a_send_and_the_receive_of_its_envelope_share_one_id(self):
        # the receive is recorded first, as a nested span is on threads
        starts, finishes = _flows([
            _recv(1.0, rank=1, origin=0, seq=0), _send(0.5, rank=0, dest=1, seq=0),
            _send(2.0, rank=0, dest=1, seq=1), _recv(2.5, rank=1, origin=0, seq=1),
            _send(3.0, rank=0, dest=2, seq=0),  # another receiver's stream
            _recv(3.5, rank=2, origin=0, seq=0),
        ])
        assert len(starts) == len(finishes) == 3
        start_at = {e["id"]: e for e in starts}
        assert len(start_at) == 3  # one id per envelope
        for finish in finishes:
            start = start_at[finish["id"]]
            assert (start["pid"], finish["pid"]) in {(0, 1), (0, 2)}
            assert start["ts"] < finish["ts"]  # send start -> recv end
            assert finish["bp"] == "e"
        # the receiver names the stream: rank 2's receive binds to the
        # send to dest 2, not to the same-seq send to dest 1
        finish = next(e for e in finishes if e["pid"] == 2)
        assert (start_at[finish["id"]]["ts"], finish["ts"]) == (3.0e6, 3.6e6)

    def test_two_epochs_of_one_stream_get_two_ids(self):
        # a reborn origin restarts the stream at seq 0 under a new epoch
        starts, finishes = _flows([
            _send(0.0, rank=0, dest=1, seq=0, epoch=0),
            _recv(0.5, rank=1, origin=0, seq=0, epoch=0),
            _send(1.0, rank=0, dest=1, seq=0, epoch=1),
            _recv(1.5, rank=1, origin=0, seq=0, epoch=1),
        ])
        assert len({e["id"] for e in starts}) == 2
        assert sorted(e["id"] for e in finishes) == sorted(e["id"] for e in starts)
        start_ts = {e["id"]: e["ts"] for e in starts}
        assert [start_ts[e["id"]] for e in finishes] == [0.0, 1.0e6]

    def test_two_attempts_of_one_stream_get_two_ids(self):
        # a whole-job restart reruns the stream from seq 0 at epoch 0;
        # the job.restart instant between the attempts tells them apart
        restart = {"ph": "i", "ts": 1.0, "name": "job.restart",
                   "cat": "failure", "tid": "MainThread", "rank": -1,
                   "args": {"attempt": 2, "backoff_seconds": 0.0}}
        starts, finishes = _flows([
            _send(0.0, rank=0, dest=1, seq=0),
            _recv(0.5, rank=1, origin=0, seq=0),
            restart,
            _send(1.5, rank=0, dest=1, seq=0),
            _recv(2.0, rank=1, origin=0, seq=0),
        ])
        assert len({e["id"] for e in starts}) == 2
        start_ts = {e["id"]: e["ts"] for e in starts}
        assert [start_ts[e["id"]] for e in finishes] == [0.0, 1.5e6]

    def test_a_receive_without_its_send_gets_no_arrow(self):
        # the first life's send spans died with it
        starts, finishes = _flows([_recv(0.5, rank=1, origin=0, seq=0)])
        assert (starts, finishes) == ([], [])

    def test_an_eos_only_send_starts_a_flow_nothing_finishes(self):
        # the receiver records no span for an envelope without blocks
        starts, finishes = _flows([_send(0.0, rank=0, dest=1, seq=3, eos=True)])
        assert len(starts) == 1 and finishes == []

    def test_an_older_journal_exports_without_arrows(self):
        # spans written while the flow id rode the envelope: the send
        # names no origin and the receive no epoch
        old_send = {"ph": "X", "ts": 0.0, "dur": 0.1, "name": "shuffle.send",
                    "tid": "MainThread", "rank": 0,
                    "args": {"plane": "fwd:0", "dest": 1, "seq": 0,
                             "blocks": 1, "bytes": 64, "eos": False,
                             "flow_out": 12345}}
        old_recv = {"ph": "X", "ts": 0.5, "dur": 0.1,
                    "name": "shuffle.recv.batch", "tid": "wire", "rank": 1,
                    "args": {"plane": "fwd:0", "rank": 1, "origin": 0,
                             "blocks": 1, "seq": 0, "flow_in": 12345,
                             "flow_parent": 678}}
        events = to_chrome_trace(Journal(events=[old_send, old_recv]))["traceEvents"]
        assert [e["name"] for e in events if e["ph"] == "X"] == [
            "shuffle.send", "shuffle.recv.batch"]
        assert not [e for e in events if e["ph"] in ("s", "f")]
