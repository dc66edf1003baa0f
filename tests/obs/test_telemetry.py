"""The live telemetry plane: pulse records, hub rollups, scraping, flows.

Covers the tentpole invariants:

* per-rank records ship while the job runs and a concurrent client
  can scrape Prometheus text / per-rank tables over RPC mid-run;
* the hub keys series by ``(rank, epoch)`` so a respawned rank's
  reborn incarnation never clobbers its predecessor's history;
* shuffle send/recv spans carry their stream coordinates, which the
  Chrome exporter pairs into cross-rank flow arrows;
* ``repro top`` renders the hub over the endpoint file.
"""

import json
import os
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import DataMPIJob, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K, SHUFFLE_TAG
from repro.core import metrics as metrics_mod
from repro.core.metrics import WorkerMetrics, _process_rss_bytes
from repro.mpi import FaultInjector
from repro.obs.journal import Journal, read_journal, to_chrome_trace
from repro.obs.inspect import format_report, summarize_journal
from repro.obs.telemetry import TelemetryHub
from repro.obs.tracer import Tracer

from tests.core.helpers import FileCollector, expected_wordcount, wordcount_pieces


# -- the RSS gauge fix ------------------------------------------------------------


class TestProcessRss:
    def test_reports_current_rss_not_the_high_water_mark(self):
        rss = _process_rss_bytes()
        assert rss > 0
        if os.path.exists("/proc/self/statm"):
            with open("/proc/self/statm", "rb") as f:
                pages = int(f.read().split()[1])
            statm = pages * os.sysconf("SC_PAGE_SIZE")
            # the gauge must track /proc (current), allowing for the
            # allocation churn between the two reads
            assert abs(rss - statm) / statm < 0.5

    @pytest.mark.parametrize("platform,maxrss", [
        ("darwin", 300 << 20),  # bytes
        ("linux", 300 << 10),  # KiB
    ])
    def test_the_fallback_reads_ru_maxrss_in_the_platform_unit(
        self, monkeypatch, platform, maxrss
    ):
        def unreadable(*_args, **_kwargs):
            raise OSError("no /proc here")

        usage = SimpleNamespace(ru_maxrss=maxrss)
        monkeypatch.setattr(metrics_mod, "open", unreadable, raising=False)
        monkeypatch.setattr(metrics_mod, "_resource", SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda _who: usage,
        ))
        monkeypatch.setattr(sys, "platform", platform)
        assert _process_rss_bytes() == float(300 << 20)


# -- the record a pulse sends -----------------------------------------------------


class TestPulseRecord:
    @pytest.fixture
    def captured(self, tmp_path, launcher, captured_hub):
        conf = {
            K.LAUNCHER: launcher,
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_INTERVAL_SECONDS: 0.05,
        }
        out = FileCollector(tmp_path / "out")
        mpidrun(
            _wordcount_job("tele-record", conf, TEXTS, out), nprocs=2,
            timeout=120.0, raise_on_error=True,
        )
        return captured_hub

    def test_a_pulse_sends_the_record_but_no_task_table(self, captured):
        for rank in (0, 1):
            *pulses, report = [r for r in captured["records"] if r.rank == rank]
            assert pulses, "the first pulse goes at once"
            assert report.tasks  # the report is the last record filed
            assert captured["hub"].latest()[rank] is report
            for record in pulses:
                assert isinstance(record, WorkerMetrics)
                assert record.tasks == []
                assert (record.rank, record.epoch) == (rank, 0)
                assert record.pid > 0 and record.ts > 0
                # os.times() ticks at 10 ms: a small forked rank reads 0.0
                assert record.process_cpu_seconds >= 0
                assert record.process_rss_bytes > 0
                assert {"pending", "bytes_in"} <= set(record.queue)
                assert record.profile is None  # unprofiled
                assert record.stacks == []  # the doctor is off
            assert report.stacks == []

    def test_each_process_rank_reports_its_own_pid(self, captured, launcher):
        pids = [captured["hub"].latest()[rank].pid for rank in (0, 1)]
        if launcher == "threads":
            assert pids == [os.getpid()] * 2
        else:
            assert len(set(pids)) == 2 and os.getpid() not in pids


def _record(rank, epoch=0, wall=1.0, bytes_sent=0, **over):
    fields = dict(
        rank=rank, epoch=epoch, bytes_sent=bytes_sent, ts=time.time(),
        phase_times={"compute": wall}, wall_seconds=wall,
    )
    return WorkerMetrics(**{**fields, **over})


# -- the hub ----------------------------------------------------------------------


class TestTelemetryHub:
    def test_series_keyed_by_rank_and_epoch(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, epoch=0))
        hub.ingest(_record(0, epoch=0))
        hub.ingest(_record(0, epoch=1))  # reborn incarnation
        assert set(hub._series) == {(0, 0), (0, 1)}
        # the predecessor's series survives the respawn, with its count
        text = hub.prometheus_text()
        assert 'datampi_telemetry_snapshots_total{rank="0",epoch="0"} 2' in text
        assert 'datampi_telemetry_snapshots_total{rank="0",epoch="1"} 1' in text

    def test_latest_prefers_the_highest_epoch(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, epoch=0))
        hub.ingest(_record(0, epoch=1))
        latest = hub.latest()
        assert latest[0].epoch == 1

    def test_ring_is_bounded(self):
        """The hub holds one record a series, whatever a rank sends: its
        newest."""
        hub = TelemetryHub()
        records = [_record(1, records_sent=n) for n in range(32)]
        for record in records:
            hub.ingest(record)
        assert sorted(hub._series) == [(1, 0)]
        assert hub.latest()[1] is records[-1]
        assert hub.snapshots_ingested == 32

    def test_malformed_snapshots_are_dropped_not_fatal(self):
        hub = TelemetryHub()
        hub.ingest(None)
        hub.ingest(b"garbage")
        hub.ingest({"no_rank": True})
        assert sorted(hub._series) == []
        assert hub.snapshots_ingested == 0

    def test_rollups_quantiles_and_scores(self):
        hub = TelemetryHub()
        hub.expect(4)
        for rank, busy in enumerate([1.0, 1.0, 1.0, 3.0]):
            # every rank ends at the same wall: the fast ones wait
            phases = {"compute": busy, "communicate": 3.0 - busy}
            hub.ingest(_record(
                rank, bytes_sent=100 * (rank + 1), phase_times=phases,
                wall_seconds=3.0,
            ))
        hub.mark_done(0)
        rollups = hub.rollups()
        assert rollups["ranks_expected"] == 4
        assert rollups["ranks_reporting"] == 4
        assert rollups["ranks_done"] == 1
        compute = rollups["phases"]["compute"]
        assert compute["p50"] == pytest.approx(1.0)
        assert compute["max"] == pytest.approx(3.0)
        # slowest rank worked 3x the median busy time -> straggler score 3
        # (by wall it would read 1.0: waiting mirrors the straggler)
        assert rollups["straggler_score"] == pytest.approx(3.0)
        # 400 bytes vs median 250 -> skew 1.6
        assert rollups["shuffle_skew"] == pytest.approx(1.6)

    def test_wall_excludes_the_overlapping_spill_bucket(self):
        # spill accrues on the receiver thread while the disjoint buckets
        # run: adding it would report more wall than the rank ran
        hub = TelemetryHub()
        hub.ingest(_record(0, phase_times={"compute": 1.0, "spill": 5.0}))
        hub.ingest(_record(1))
        assert [row["wall_seconds"] for row in hub.per_rank()] == [1.0, 1.0]
        assert hub.rollups()["straggler_score"] == pytest.approx(1.0)

    def test_a_row_is_the_journals_worker_row_plus_the_live_fields(self):
        from repro.core.metrics import COUNTER_NAMES

        hub = TelemetryHub()
        records = [
            _record(
                rank, wall=2.5, pid=100 + rank, process_cpu_seconds=1.5,
                process_rss_bytes=3 * 2**20, queue={"pending": 2, "bytes_in": 9},
                **{name: 7 + i for i, name in enumerate(COUNTER_NAMES)},
            )
            for rank in (0, 1)
        ]
        for record in records:
            assert all(record.counters().values())
            hub.ingest(record)
        hub.mark_done(1)
        rows = hub.per_rank()
        assert len(rows) == 2
        for row, record, status in zip(rows, records, ("running", "done")):
            assert row == {
                **record.as_dict(), "queue": {"pending": 2, "bytes_in": 9},
                "age_s": row["age_s"], "status": status,
            }

    def test_prometheus_text_exposition(self):
        hub = TelemetryHub()
        hub.expect(2)
        hub.ingest(_record(0, wall=0.5, bytes_sent=128))
        hub.ingest(_record(1, epoch=1, wall=0.7))
        text = hub.prometheus_text()
        assert text.endswith("\n")
        for family in (
            "datampi_phase_seconds",
            "datampi_phase_quantile_seconds",
            "datampi_shuffle_bytes_sent_total",
            "datampi_queue_pending",
            "datampi_process_rss_bytes",
            "datampi_telemetry_snapshots_total",
            "datampi_straggler_score",
            "datampi_shuffle_skew",
            "datampi_recovery_total",
            "datampi_ranks_reporting",
        ):
            assert f"# TYPE {family}" in text, family
        assert 'datampi_shuffle_bytes_sent_total{rank="0"} 128' in text
        assert 'rank="1",epoch="1"' in text  # reborn label visible

    def test_rpc_target_exposes_the_scrape_methods(self):
        hub = TelemetryHub()
        hub.ingest(_record(0))
        target = hub.rpc_target()
        assert "# HELP" in target["telemetry_scrape"]()
        assert target["telemetry_ranks"]()[0]["rank"] == 0
        assert target["telemetry_rollups"]()["ranks_reporting"] == 1


# -- live shipping ----------------------------------------------------------------


def _wordcount_job(name, conf, texts, out, o_tasks=4, a_tasks=2):
    provider, mapper, reducer = wordcount_pieces(texts)
    return mapreduce_job(
        name, provider, mapper, reducer, out, o_tasks=o_tasks,
        a_tasks=a_tasks, conf=conf,
    )


TEXTS = [f"tele w{i % 7} w{(i * 3) % 5} live" for i in range(40)]


class TestLiveTelemetry:
    def test_every_rank_ships_snapshots(self, tmp_path, launcher, captured_hub):
        out = FileCollector(tmp_path / "out")
        conf = {
            K.LAUNCHER: launcher,
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_INTERVAL_SECONDS: 0.05,
        }
        result = mpidrun(
            _wordcount_job("tele-wc", conf, TEXTS, out), nprocs=2,
            timeout=120.0, raise_on_error=True,
        )
        assert result.success
        assert out.merged() == expected_wordcount(TEXTS)
        hub = captured_hub["hub"]
        latest = hub.latest()
        assert set(latest) == {0, 1}
        rollups = hub.rollups()
        assert rollups["ranks_reporting"] == 2
        assert rollups["ranks_done"] == 2
        assert "# HELP" in hub.prometheus_text()

    def test_a_severed_rank_reports_nothing(self, tmp_path, launcher, captured_hub):
        """Snapshots ride the heartbeat: what silences a rank's beat —
        here every envelope to and from worker 1 — silences its
        telemetry too, and the supervisor still names it."""
        injector = FaultInjector()
        injector.sever(2)  # worker 1: globals are driver=0, workers=1..n
        conf = {
            K.LAUNCHER: launcher,
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_INTERVAL_SECONDS: 0.05,
            K.HEARTBEAT_DEADLINE_SECONDS: 1.5,
            K.PLANE_TIMEOUT_SECONDS: 30.0,
        }
        result = mpidrun(
            _wordcount_job("tele-sever", conf, TEXTS, FileCollector(tmp_path / "out")),
            nprocs=2, timeout=120.0, fault_injector=injector,
        )
        assert not result.success
        assert result.failures[0].kind == "heartbeat"
        assert result.failures[0].worker == 1
        hub = captured_hub["hub"]
        assert {rank for rank, _epoch in sorted(hub._series)} == {0}
        # the healthy rank kept reporting
        assert {r.rank for r in captured_hub["records"]} == {0}

    def test_concurrent_scrape_mid_run_on_process_backend(self, tmp_path):
        from repro.rpc import SocketRpcClient

        endpoint_file = str(tmp_path / "job.endpoint")
        scrapes = []

        def scraper():
            deadline = time.monotonic() + 60
            while not os.path.exists(endpoint_file):
                if time.monotonic() > deadline:
                    return
                time.sleep(0.02)
            with open(endpoint_file, encoding="utf-8") as f:
                doc = json.load(f)
            address = doc["address"]
            if isinstance(address, list):
                address = tuple(address)
            client = SocketRpcClient(address, timeout=15.0)
            try:
                while True:
                    try:
                        scrapes.append(
                            (client.call("telemetry_scrape"),
                             client.call("telemetry_rollups"))
                        )
                    except Exception:
                        return  # job finished, endpoint gone
                    time.sleep(0.05)
            finally:
                client.close()

        def slow_o(ctx):
            for i in range(ctx.rank, 80, ctx.o_size):
                ctx.send(f"w{i % 9}", 1)
                time.sleep(0.005)  # keep the job alive long enough to scrape

        def a_fn(ctx):
            list(ctx.recv_iter())

        thread = threading.Thread(target=scraper)
        thread.start()
        job = DataMPIJob(
            name="scrape-wc", o_fn=slow_o, a_fn=a_fn, o_tasks=4, a_tasks=2,
            conf={
                K.LAUNCHER: "processes",
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
                K.TELEMETRY_ENDPOINT_FILE: endpoint_file,
            },
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        thread.join(timeout=60)
        assert result.success
        assert scrapes, "no scrape landed while the job ran"
        text, rollups = scrapes[-1]
        assert "# TYPE datampi_phase_seconds gauge" in text
        assert rollups["ranks_reporting"] >= 1
        # the endpoint file is torn down with the job
        assert not os.path.exists(endpoint_file)

    def test_respawned_rank_does_not_clobber_predecessor(
        self, tmp_path, captured_hub
    ):
        injector = FaultInjector()
        rule = injector.kill_rank(tag=SHUFFLE_TAG, skip_first=3, max_matches=1)
        out = FileCollector(tmp_path / "out")
        conf = {
            K.SHUFFLE_BATCH_BYTES: 64,
            K.LAUNCHER: "processes",
            K.RANK_MAX_RESPAWNS: 2,
            K.PLANE_TIMEOUT_SECONDS: 60.0,
            K.HEARTBEAT_DEADLINE_SECONDS: 120.0,
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_INTERVAL_SECONDS: 0.02,
        }
        result = mpidrun(
            _wordcount_job("tele-respawn", conf, TEXTS, out), nprocs=2,
            timeout=120.0, fault_injector=injector, raise_on_error=True,
        )
        assert result.success
        assert rule.applied == 1
        assert result.metrics.respawns >= 1
        assert out.merged() == expected_wordcount(TEXTS)
        hub = captured_hub["hub"]
        keys = sorted(hub._series)
        epochs = {}
        for rank, epoch in keys:
            epochs.setdefault(rank, set()).add(epoch)
        reborn = [rank for rank, eps in epochs.items() if len(eps) > 1]
        assert reborn, f"no rank reported from two incarnations: {keys}"
        rank = reborn[0]
        # both lives kept their own series; latest() follows the new one
        assert {(r.rank, r.epoch) for r in captured_hub["records"]} >= {
            (rank, 0), (rank, 1),
        }
        assert hub.latest()[rank].epoch == 1
        assert hub.rollups()["recovery"]["respawns"] >= 1


# -- trace shards and causal flows ------------------------------------------------


class TestTraceShardsAndFlows:
    def test_absorb_keeps_both_incarnations_events(self):
        # a respawned rank's incarnations each hand their events over as
        # they exit; the drain returns both lives once, time-sorted, and
        # the driver's own events among them
        tracer = Tracer()
        tracer.enable()
        first = [{"ph": "i", "name": "life-0", "ts": t, "rank": 1, "tid": "w"}
                 for t in (1.0, 3.0)]
        reborn = [{"ph": "i", "name": "life-1", "ts": t, "rank": 1, "tid": "w"}
                  for t in (2.0, 4.0)]
        tracer.absorb(first)
        tracer.absorb(reborn)
        tracer.instant("driver")
        events = tracer.drain()
        assert [e["name"] for e in events] == [
            "driver", "life-0", "life-1", "life-0", "life-1",
        ]
        # a rank forked now (a respawn) is traced, and hands back its
        # own events only, not the ones the driver already holds
        tracer.reset_after_fork()
        assert tracer.enabled
        assert tracer.drain() == []
        tracer.absorb(first)
        tracer.enable()  # a new session starts empty
        assert tracer.drain() == []

    def test_chrome_trace_links_sender_and_receiver_spans(
        self, tmp_path, launcher
    ):
        path = str(tmp_path / "flow.trace.jsonl")

        def o_fn(ctx):
            for i in range(ctx.rank, 60, ctx.o_size):
                ctx.send(f"k{i % 7}", 1)

        def a_fn(ctx):
            list(ctx.recv_iter())

        job = DataMPIJob(
            name="flow", o_fn=o_fn, a_fn=a_fn, o_tasks=2, a_tasks=2,
            conf={K.LAUNCHER: launcher, K.TRACE_ENABLED: True,
                  K.TRACE_PATH: path},
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        journal = read_journal(result.trace_path)
        trace = to_chrome_trace(journal)
        starts = [e for e in trace["traceEvents"] if e.get("ph") == "s"]
        finishes = [e for e in trace["traceEvents"] if e.get("ph") == "f"]
        assert starts and finishes
        linked = {e["id"] for e in starts} & {e["id"] for e in finishes}
        assert linked, "no send/recv flow pair shares an id"
        start_at = {e["id"]: e for e in starts}
        for event in finishes:
            assert event["bp"] == "e"  # bind to the enclosing recv span
            if event["id"] in start_at:  # the arrow points forward in time
                assert start_at[event["id"]]["ts"] <= event["ts"]
        if launcher == "processes":
            # the wire reader files on the receiving rank's lane: at least
            # one arrow crosses ranks (different chrome pids)
            assert any(
                start_at[e["id"]]["pid"] != e["pid"] for e in finishes
                if e["id"] in start_at
            )
            return
        # threads: the sender files the envelope, so each receive span
        # nests inside its send span, on the sender's lane, and names the
        # receiving rank
        def stream(args, receiver):
            return (args["plane"], args["origin"], args["epoch"],
                    args[receiver], args["seq"])

        sends = {stream(e["args"], "dest"): e for e in journal.spans
                 if e["name"] == "shuffle.send"}
        recvs = [e for e in journal.spans if e["name"] == "shuffle.recv.batch"]
        assert recvs
        for recv in recvs:
            send = sends[stream(recv["args"], "rank")]
            assert (recv["tid"], recv["rank"]) == (send["tid"], send["rank"])
            assert send["ts"] <= recv["ts"]
            assert recv["ts"] + recv["dur"] <= send["ts"] + send["dur"]
            assert recv["args"]["rank"] == send["args"]["dest"]

    def test_a_restarted_job_links_each_attempt_apart(self, tmp_path, launcher):
        # a whole-job restart reruns every stream from seq 0 at epoch 0:
        # only the attempt tells the two lives of one stream apart
        texts = [f"w{i % 11} x{i % 5} restart" for i in range(120)]
        provider, mapper, reducer = wordcount_pieces(texts)
        out = FileCollector(tmp_path / "out")
        job = mapreduce_job(
            "restart-flow", provider, mapper, reducer, out,
            o_tasks=4, a_tasks=3,
            conf={
                K.LAUNCHER: launcher,
                K.TRACE_PATH: str(tmp_path / "restart.trace.jsonl"),
                K.FT_ENABLED: True,
                K.FT_DIR: str(tmp_path / "ft"),
                K.JOB_MAX_RESTARTS: 1,
                K.RESTART_BACKOFF_SECONDS: 0.0,
                K.INJECT_CRASH_TASK: 1,
                K.INJECT_CRASH_AFTER_RECORDS: 60,
                K.SHUFFLE_BATCH_BYTES: 256,
                K.SPL_PARTITION_BYTES: 256,
            },
        )
        result = mpidrun(job, nprocs=3, timeout=120.0, raise_on_error=True)
        assert result.restarts == 1
        assert out.merged() == expected_wordcount(texts)
        events = to_chrome_trace(read_journal(result.trace_path))["traceEvents"]
        starts = Counter(e["id"] for e in events if e["ph"] == "s")
        finishes = Counter(e["id"] for e in events if e["ph"] == "f")
        assert starts and finishes
        assert max(starts.values()) == 1
        assert max(finishes.values()) == 1


# -- recovery counters in repro trace ---------------------------------------------


class TestTraceRecoverySummary:
    def _journal(self, recovery):
        return Journal(
            meta={"job": "wc"},
            events=[
                {"ph": "i", "name": "recovery.respawn", "cat": "recovery",
                 "ts": 1.0, "rank": -1, "args": {"gid": 1}},
            ],
            summary={"wall_seconds": 2.0, "nprocs": 2, "restarts": 0,
                     **recovery},
        )

    def test_summary_carries_the_recovery_counters(self):
        journal = self._journal(
            {"respawns": 1, "redelivered_frames": 3,
             "stale_frames_dropped": 2, "replays_dropped": 1}
        )
        summary = summarize_journal(journal)
        assert summary["recovery"]["respawns"] == 1
        assert summary["recovery"]["redelivered_frames"] == 3
        # respawn instants now ride the failure timeline
        assert any(f["cat"] == "recovery" for f in summary["failures"])
        report = format_report(summary)
        assert "rank recovery:" in report
        assert "respawns=1" in report
        assert "recovery.respawn" in report

    def test_clean_runs_stay_quiet(self):
        journal = self._journal({})
        journal.events = []
        summary = summarize_journal(journal)
        assert summary["recovery"]["respawns"] == 0
        assert "rank recovery:" not in format_report(summary)


# -- repro top --------------------------------------------------------------------


class TestReproTop:
    @pytest.fixture
    def served_hub(self, tmp_path):
        from repro.rpc.server import SocketRpcServer

        hub = TelemetryHub()
        hub.expect(2)
        hub.ingest(_record(0, wall=0.5, bytes_sent=100))
        hub.ingest(_record(1, wall=0.6, bytes_sent=200))
        hub.mark_done(1)
        server = SocketRpcServer(hub.rpc_target(), num_handlers=2,
                                 name="test-telemetry")
        server.start()
        endpoint = tmp_path / "job.endpoint"
        address = server.address
        endpoint.write_text(json.dumps({
            "address": list(address) if isinstance(address, tuple) else address,
            "job": "wc", "pid": os.getpid(),
        }))
        yield str(endpoint)
        server.stop()

    def test_top_once_renders_the_per_rank_table(self, served_hub, capsys):
        from repro.cli import main

        assert main(["top", served_hub, "--once"]) == 0
        out = capsys.readouterr().out
        assert "ranks 2/2 reporting" in out
        assert "done=1" in out
        for line in out.splitlines():
            if line.strip().startswith("0 "):
                break
        assert " 0 " in out and " 1 " in out  # both rank rows

    def test_top_prom_emits_the_exposition(self, served_hub, capsys):
        from repro.cli import main

        assert main(["top", served_hub, "--prom", "--once"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE datampi_phase_seconds gauge" in out

    def test_top_json_is_machine_readable(self, served_hub, capsys):
        from repro.cli import main

        assert main(["top", served_hub, "--once", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {row["rank"] for row in doc["ranks"]} == {0, 1}
        assert doc["rollups"]["ranks_reporting"] == 2

    def test_top_fails_cleanly_without_an_endpoint(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", str(tmp_path / "missing.endpoint"), "--once"]) == 2

    def test_a_target_of_the_wrong_kind_is_named(self, served_hub, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.journal import JournalWriter

        journal = str(tmp_path / "wc.trace.jsonl")
        with JournalWriter(journal) as writer:
            writer.write_meta(job="wc", nprocs=1, mode="common")
        assert main(["top", journal, "--once"]) == 2
        err = capsys.readouterr().err
        assert f"{journal} is a trace journal; repro top reads a telemetry endpoint" in err
        assert main(["trace", served_hub]) == 2
        err = capsys.readouterr().err
        assert f"{served_hub} is a telemetry endpoint; repro trace reads a trace journal" in err
        assert main(["doctor", journal]) == 2
        assert "reads a doctor report or a telemetry endpoint" in capsys.readouterr().err


# -- launch flag ------------------------------------------------------------------


class TestTelemetryFlag:
    def test_telemetry_flag_sets_the_conf(self):
        from repro.cli import _extract_obs_flags

        rest, conf, _ = _extract_obs_flags(
            ["--telemetry=/tmp/ep.json", "-O", "2"])
        assert rest == ["-O", "2"]
        assert conf[K.TELEMETRY_ENABLED] is True
        assert conf[K.TELEMETRY_ENDPOINT_FILE] == "/tmp/ep.json"

    def test_bare_telemetry_flag_enables_without_endpoint(self):
        from repro.cli import _extract_obs_flags

        _, conf, _ = _extract_obs_flags(["--telemetry"])
        assert conf[K.TELEMETRY_ENABLED] is True
        assert K.TELEMETRY_ENDPOINT_FILE not in conf


# -- exposition edge cases --------------------------------------------------------

_EXPOSITION_LINE = __import__("re").compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$"
)


class TestPrometheusEdgeCases:
    """Exposition format 0.0.4: escaping, empty hubs, NaN/inf guards."""

    def test_label_values_are_escaped(self):
        hub = TelemetryHub(job='we"ird\\job\nname')
        text = hub.prometheus_text()
        assert 'datampi_job_info{job="we\\"ird\\\\job\\nname"} 1' in text
        assert "\n\n" not in text.strip()  # the raw newline did not leak

    def test_phase_label_escaping(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, phase_times={'ph"ase\\x\n': 1.0}))
        text = hub.prometheus_text()
        line = next(
            l for l in text.splitlines() if l.startswith("datampi_phase_seconds")
        )
        assert 'phase="ph\\"ase\\\\x\\n"' in line

    def test_empty_hub_still_emits_a_parsable_exposition(self):
        text = TelemetryHub().prometheus_text()
        assert "# HELP datampi_job_info" in text
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert _EXPOSITION_LINE.match(line), f"malformed line: {line!r}"

    def test_nan_and_inf_render_as_prometheus_spellings(self):
        hub = TelemetryHub()
        hub.ingest(_record(
            0, phase_times={"compute": float("nan")},
            process_cpu_seconds=float("inf"), process_rss_bytes=float("-inf"),
        ))
        text = hub.prometheus_text()
        phase_line = next(
            l for l in text.splitlines()
            if l.startswith("datampi_phase_seconds")
        )
        assert phase_line.endswith(" NaN")
        cpu_line = next(
            l for l in text.splitlines()
            if l.startswith("datampi_process_cpu_seconds_total")
        )
        assert cpu_line.endswith(" +Inf")
        rss_line = next(
            l for l in text.splitlines()
            if l.startswith("datampi_process_rss_bytes")
        )
        assert rss_line.endswith(" -Inf")
        # every non-comment line still parses
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert _EXPOSITION_LINE.match(line), f"malformed line: {line!r}"

    def test_weird_rank_table_values_do_not_break_top(self):
        from repro.obs.telemetry import format_top_table

        hub = TelemetryHub()
        hub.ingest(_record(
            3, process_cpu_seconds=float("nan"), process_rss_bytes=float("inf"),
        ))
        rendered = format_top_table(hub.per_rank(), hub.rollups())
        assert "   3 " in rendered
