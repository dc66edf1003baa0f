"""The repro doctor: stall signatures, automatic captures, the CLI.

Acceptance invariants (both rank backends):

* a deliberately skewed WordCount — every record routed to one hot
  partition — produces a doctor.json whose TOP finding names the
  straggler rank and attributes >= 50% of its samples to the merge
  phase;
* an injected stall (a severed worker) trips the no-progress signature
  and automatically captures all-rank stacks containing the wedged
  shuffle-wait frame — while a healthy task that computes for several
  stall windows does not;
* the telemetry endpoint file disappears on every mpidrun exit path,
  including a raising job (the stale-endpoint regression).
"""

import importlib
import json
import os
import time

import pytest

from repro.core import DataMPIJob, Mode, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import WorkerMetrics
from repro.core.modes import default_of
from repro.mpi import FaultInjector
from repro.obs.doctor import Doctor, render_report
from repro.obs.telemetry import TelemetryHub

from tests.core.helpers import (
    FileCollector,
    busy_for,
    expected_wordcount,
    wordcount_pieces,
)

_mpidrun_mod = importlib.import_module("repro.core.mpidrun")


def _record(rank, epoch=0, wall=1.0, bytes_sent=0, pending=0, **over):
    fields = dict(
        rank=rank, epoch=epoch, bytes_sent=bytes_sent, ts=time.time(),
        phase_times={"compute": wall}, wall_seconds=wall,
        queue={"pending": pending, "bytes_in": 0},
    )
    return WorkerMetrics(**{**fields, **over})


# -- signatures, one by one -------------------------------------------------------


class TestStallSignature:
    def make(self, stall_seconds=5.0):
        hub = TelemetryHub()
        now = [0.0]
        doctor = Doctor(hub, stall_seconds, clock=lambda: now[0])
        return hub, doctor, now

    def test_frozen_phase_clock_with_live_snapshots_is_a_stall(self):
        hub, doctor, now = self.make(stall_seconds=5.0)
        hub.ingest(_record(0, wall=1.0))
        assert doctor.evaluate() == []  # first sighting just records progress
        now[0] = 10.0
        hub.ingest(_record(0, wall=1.0))  # fresh record, same wall
        (finding,) = doctor.evaluate()
        assert finding["kind"] == "stall"
        assert finding["rank"] == 0
        assert "no progress for 10.0s" in finding["summary"]

    def test_progress_clears_the_stall(self):
        hub, doctor, now = self.make(stall_seconds=5.0)
        hub.ingest(_record(0, wall=1.0))
        doctor.evaluate()
        now[0] = 10.0
        hub.ingest(_record(0, wall=1.0))
        assert doctor.evaluate()
        hub.ingest(_record(0, wall=2.0))  # the wait returned
        assert doctor.evaluate() == []

    def test_waiting_time_is_not_progress(self):
        # the phase clock is live: a wedged rank's communicate bucket (and
        # so its wall) keeps growing, which must not clear the stall
        hub, doctor, now = self.make(stall_seconds=5.0)
        for waited in (0.0, 10.0):
            now[0] = waited
            hub.ingest(_record(
                0, phase_times={"compute": 1.0, "communicate": waited},
                wall_seconds=1.0 + waited,
            ))
            findings = doctor.evaluate()
        assert [f["kind"] for f in findings] == ["stall"]
        assert "at wall 11.00s" in findings[0]["summary"]

    def test_moving_counters_are_progress(self):
        # busy time flat (a rank waiting in communicate) but records keep
        # arriving: its peers are feeding it, nothing is wedged
        hub, doctor, now = self.make(stall_seconds=5.0)
        for n in range(3):
            now[0] = 10.0 * n
            hub.ingest(_record(0, wall=1.0, records_received=100 * n))
            assert doctor.evaluate() == []

    def test_aged_out_rank_is_silent_not_stalled(self):
        hub, doctor, now = self.make(stall_seconds=5.0)
        # last heard half a minute ago
        hub.ingest(_record(0, wall=1.0, ts=time.time() - 30))
        doctor.evaluate()
        now[0] = 10.0
        (finding,) = doctor.evaluate()
        assert finding["kind"] == "silent"
        assert "stopped reporting" in finding["summary"]

    def test_done_ranks_never_stall(self):
        hub, doctor, now = self.make(stall_seconds=5.0)
        hub.ingest(_record(0, wall=1.0))
        doctor.evaluate()
        hub.mark_done(0)
        now[0] = 60.0
        assert doctor.evaluate() == []


class TestStragglerSignature:
    def test_profile_attribution_names_the_hot_frame(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, wall=1.0, bytes_sent=100))
        hub.ingest(_record(1, wall=1.0, bytes_sent=100))
        hub.ingest(_record(2, wall=8.0, bytes_sent=800, profile={
            "rank": 2, "epoch": 0, "hz": 50.0, "samples": 100,
            "stacks": {
                "merge": {"engine.run;sorter.merge": 60,
                          "engine.run;sorter.spill": 22},
                "communicate": {"engine.run;plane.wait": 18},
            },
        }))
        doctor = Doctor(hub)
        findings = doctor.evaluate()
        assert findings[0]["kind"] == "straggler"  # outranks the skew hint
        assert findings[0]["rank"] == 2
        assert "82% of samples in sorter.merge under merge" in findings[0]["summary"]
        assert "straggler score 8.0x" in findings[0]["summary"]
        assert "shuffle skew 8.0x" in findings[0]["summary"]
        details = findings[0]["details"]
        assert details["source"] == "profile"
        assert details["phase"] == "merge" and details["phase_pct"] == 82.0
        # the skew hint rides along lower in the ranking
        assert {f["kind"] for f in findings} >= {"straggler", "shuffle-skew"}

    def test_phase_clock_fallback_without_a_profile(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, wall=1.0))
        hub.ingest(_record(1, wall=1.0))
        hub.ingest(_record(2, wall=9.0))  # no profile summary attached
        doctor = Doctor(hub)
        findings = [f for f in doctor.evaluate() if f["kind"] == "straggler"]
        assert findings[0]["details"]["source"] == "phases"
        assert findings[0]["details"]["phase"] == "compute"
        assert "% of wall time in compute" in findings[0]["summary"]

    def test_below_threshold_is_quiet(self):
        hub = TelemetryHub()
        hub.ingest(_record(0, wall=1.0))
        hub.ingest(_record(1, wall=1.5))
        doctor = Doctor(hub)
        assert [f for f in doctor.evaluate() if f["kind"] == "straggler"] == []


class TestQueueAndChurnSignatures:
    def test_redelivery_churn_fires_on_deltas_only(self):
        class _ScriptedHub:
            runtime = None

            def __init__(self):
                self.recovery = {"respawns": 1, "redelivered_frames": 40}

            def per_rank(self):
                return []

            def rollups(self):
                return {"recovery": dict(self.recovery)}

            def latest(self):
                return {}

        hub = _ScriptedHub()
        doctor = Doctor(hub)
        (finding,) = doctor.evaluate()
        assert finding["kind"] == "redelivery-churn"
        assert "respawns +1" in finding["summary"]
        assert doctor.evaluate() == []  # counters flat -> churn over


# -- the record stream is the doctor's clock ---------------------------------------


def _watched(stall_seconds=5.0):
    """A hub whose every filed record runs the doctor, as mpidrun wires
    them, on a clock the test moves."""
    hub = TelemetryHub(job="wc")
    now = [0.0]
    doctor = Doctor(hub, stall_seconds, job="wc", clock=lambda: now[0])
    hub.watcher = doctor.evaluate
    return hub, doctor, now


_WEDGED = [{"name": "engine-0", "phase": "communicate",
            "stack": ["shuffle.wait_complete:178"]}]


class TestRecordDrivenEvaluation:
    def test_each_filed_record_runs_one_evaluation(self):
        hub, doctor, _ = _watched()
        hub.ingest(_record(0))
        assert doctor.evaluations == 1
        hub.ingest(_record(1))
        hub.ingest("not a record")  # filed nothing, evaluates nothing
        assert doctor.evaluations == 2

    def test_a_stall_episode_fires_one_capture(self):
        hub, doctor, now = _watched(stall_seconds=5.0)
        for t in range(30):  # wedged well past the window, record after record
            now[0] = float(t)
            hub.ingest(_record(0, wall=1.0, stacks=_WEDGED))
        captures = doctor.report()["captures"]
        assert [c["reason"] for c in captures] == ["stall detected"]
        assert captures[0]["dumps"][0]["threads"] == _WEDGED
        hub.ingest(_record(0, wall=2.0, stacks=_WEDGED))  # the wait returned
        assert doctor.report()["findings"] == []
        for t in range(30, 40):  # and wedged again
            now[0] = float(t)
            hub.ingest(_record(0, wall=2.0, stacks=_WEDGED))
        captures = doctor.report()["captures"]
        assert [c["reason"] for c in captures] == ["stall detected"] * 2
        assert doctor.evaluations == 41

    def test_a_rank_entering_a_stall_beside_a_stuck_one_is_captured(self):
        hub, doctor, now = _watched(stall_seconds=5.0)
        for t in range(10):
            now[0] = float(t)
            hub.ingest(_record(0, wall=1.0, stacks=_WEDGED))
            hub.ingest(_record(1, wall=1.0 + t))  # rank 1 still works
        assert len(doctor.report()["captures"]) == 1
        for t in range(10, 20):
            now[0] = float(t)
            hub.ingest(_record(0, wall=1.0, stacks=_WEDGED))
            hub.ingest(_record(1, wall=10.0))  # now rank 1 stands still too
        assert {f["rank"] for f in doctor.report()["findings"]} == {0, 1}
        assert len(doctor.report()["captures"]) == 2

    def test_a_failing_watcher_costs_its_evaluation_not_the_ingest(self):
        hub = TelemetryHub()

        def explode():
            raise RuntimeError("diagnosis bug")

        hub.watcher = explode
        hub.ingest(_record(0))
        hub.ingest(_record(1))
        assert sorted(hub.latest()) == [0, 1]
        assert hub.snapshots_ingested == 2


# -- captures ---------------------------------------------------------------------


class TestCapture:
    def test_capture_ingests_local_dumps(self):
        """A capture reads each running rank's stacks and mailbox off the
        newest record its pulse filed: nothing is asked, nothing waited
        for."""
        hub = TelemetryHub()
        hub.ingest(_record(3, pid=os.getpid(), pending=2, stacks=[
            {"name": "engine-3", "phase": "communicate",
             "stack": ["shuffle.wait_complete:178"]},
        ]))
        doctor = Doctor(hub)
        record = doctor.capture("unit test")
        assert record["reason"] == "unit test"
        (dump,) = record["dumps"]
        assert (dump["rank"], dump["epoch"], dump["pid"]) == (3, 0, os.getpid())
        assert dump["queue"] == {"pending": 2, "bytes_in": 0}
        report = doctor.report()
        assert report["captures"][-1]["dumps"][0]["rank"] == 3
        rendered = render_report(report)
        assert "shuffle.wait_complete:178" in rendered

    def test_capture_holds_the_running_ranks_dumps_only(self):
        """Two running ranks' pulses carry stacks; the third rank is done,
        its last record its report, which carries none."""
        hub = TelemetryHub()
        for rank in (0, 1):
            hub.ingest(_record(rank, stacks=[
                {"name": f"w{rank}", "phase": "compute", "stack": ["a.b:1"]},
            ]))
        hub.ingest(_record(2, stacks=[
            {"name": "w2", "phase": "compute", "stack": ["a.b:1"]},
        ]))
        hub.ingest(_record(2, tasks=[{"task_id": 0}]))  # its report
        hub.mark_done(2)
        record = Doctor(hub).capture("unit test")
        assert [d["rank"] for d in record["dumps"]] == [0, 1]
        assert [d["threads"][0]["name"] for d in record["dumps"]] == ["w0", "w1"]

    def test_report_write_is_valid_json(self, tmp_path):
        doctor = Doctor(TelemetryHub(), job="wc")
        doctor.evaluate()
        path = doctor.write_report(str(tmp_path / "doctor.json"))
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["job"] == "wc"
        assert doc["evaluations"] == 1
        assert doc["thresholds"]["stall_seconds"] == default_of(K.DOCTOR_STALL_SECONDS)
        assert "no findings: all ranks healthy" in render_report(doc)


# -- acceptance: skewed WordCount names the straggler -----------------------------


def _hot_partitioner(key, value, num_partitions):
    return 0  # every record lands on one partition: deliberate skew


def _hot_reducer(word, counts, emit):
    deadline = time.perf_counter() + 0.004
    while time.perf_counter() < deadline:
        pass  # the hot frame the profiler must attribute
    emit(word, sum(counts))


SKEW_TEXTS = [f"w{i:03d} x{i:03d}" for i in range(150)]  # 300 distinct keys

_STALL_SECONDS = 0.4


def _long_healthy_o(ctx):
    busy_for(3 * _STALL_SECONDS)
    ctx.send("done", ctx.rank)


class TestDoctorEndToEnd:
    def test_skewed_wordcount_names_the_straggler(
        self, tmp_path, launcher, captured_hub
    ):
        doctor_path = str(tmp_path / "doctor.json")
        provider, mapper, _ = wordcount_pieces(SKEW_TEXTS)
        out = FileCollector(tmp_path / "out")
        job = mapreduce_job(
            "skew-wc", provider, mapper, _hot_reducer, out,
            o_tasks=3, a_tasks=3, partitioner=_hot_partitioner,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
                K.DOCTOR_ENABLED: True,
                K.DOCTOR_PATH: doctor_path,
                K.PROFILE_HZ: 200.0,
            },
        )
        result = mpidrun(job, nprocs=3, timeout=120.0, raise_on_error=True)
        assert result.success
        assert out.merged() == expected_wordcount(SKEW_TEXTS)

        # the hot partition made exactly one rank do all the merging
        # (walls are near-equal: the other ranks wait in communicate)
        rows = captured_hub["hub"].per_rank()
        expected_rank = max(
            rows, key=lambda r: r["phase_times"].get("merge", 0.0)
        )["rank"]

        with open(doctor_path, encoding="utf-8") as f:
            report = json.load(f)
        top = report["findings"][0]
        assert top["kind"] == "straggler"
        assert top["rank"] == expected_rank
        assert top["details"]["source"] == "profile"
        assert top["details"]["phase"] == "merge"
        assert top["details"]["phase_pct"] >= 50.0
        # the same report rides the JobResult
        assert result.doctor["findings"][0]["kind"] == "straggler"
        assert result.doctor_path == doctor_path

    def test_injected_stall_triggers_stack_capture(
        self, tmp_path, launcher
    ):
        doctor_path = str(tmp_path / "stall.doctor.json")
        injector = FaultInjector()
        injector.sever(2)  # worker 1: globals are driver=0, workers=1..n
        provider, mapper, reducer = wordcount_pieces(
            [f"s{i % 5} t{i % 3}" for i in range(40)]
        )
        job = mapreduce_job(
            "stall-wc", provider, mapper, reducer,
            FileCollector(tmp_path / "out"), o_tasks=2, a_tasks=2,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
                K.DOCTOR_ENABLED: True,
                K.DOCTOR_PATH: doctor_path,
                K.DOCTOR_STALL_SECONDS: 1.0,
                # three stall windows: the doctor fires well before this
                K.PLANE_TIMEOUT_SECONDS: 3.0,
                # keep the heartbeat detector out of the way: the doctor
                # must see the wedge, not a declared-dead worker
                K.HEARTBEAT_DEADLINE_SECONDS: 120.0,
            },
        )
        result = mpidrun(
            job, nprocs=2, timeout=120.0, fault_injector=injector,
            raise_on_error=False,
        )
        assert not result.success

        with open(doctor_path, encoding="utf-8") as f:
            report = json.load(f)
        assert {f["kind"] for f in report["findings"]} & {"stall", "silent"}
        captures = report["captures"]
        assert captures, "the stall never triggered an automatic capture"
        assert captures[0]["reason"] == "stall detected"
        # the capture holds the wedged rank's live stack: parked inside
        # the shuffle wait, in the communicate phase
        wedged = [
            thread
            for capture in captures
            for dump in capture["dumps"]
            for thread in dump.get("threads", [])
            if any("wait_complete" in frame for frame in thread["stack"])
        ]
        assert wedged, "no capture contains the wedged shuffle-wait frame"
        assert any(t["phase"] == "communicate" for t in wedged)

    def test_long_healthy_tasks_are_not_a_stall(self, tmp_path, launcher):
        """O tasks that compute for three stall windows before they emit
        are progress (their ``compute`` bucket moves while they run), not
        a wedge: no stall finding — which would have fired a capture the
        moment an evaluation saw it — and none in the final report."""
        job = DataMPIJob(
            name="long-wc", o_fn=_long_healthy_o, a_fn=_noop_a,
            o_tasks=2, a_tasks=2, mode=Mode.MAPREDUCE,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
                K.DOCTOR_ENABLED: True,
                K.DOCTOR_PATH: str(tmp_path / "long.doctor.json"),
                K.DOCTOR_STALL_SECONDS: _STALL_SECONDS,
            },
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        report = result.doctor
        assert report["evaluations"] >= 3  # it watched more than a window
        assert report["captures"] == []
        assert not {f["kind"] for f in report["findings"]} & {"stall", "silent"}


# -- the endpoint file dies with the job (all exit paths) -------------------------


def _raise_o(ctx):
    raise RuntimeError("boom")


def _noop_a(ctx):
    list(ctx.recv_iter())


class TestEndpointCleanup:
    def test_raising_job_leaves_no_endpoint_file(self, tmp_path, launcher):
        endpoint = str(tmp_path / "job.endpoint")
        job = DataMPIJob(
            name="boom", o_fn=_raise_o, a_fn=_noop_a, o_tasks=2, a_tasks=2,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_ENDPOINT_FILE: endpoint,
            },
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=False)
        assert not result.success
        assert not os.path.exists(endpoint)

    def test_raise_on_error_path_also_cleans_up(self, tmp_path, launcher):
        from repro.common.errors import JobFailedError

        endpoint = str(tmp_path / "job.endpoint")
        job = DataMPIJob(
            name="boom", o_fn=_raise_o, a_fn=_noop_a, o_tasks=2, a_tasks=2,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_ENDPOINT_FILE: endpoint,
            },
        )
        with pytest.raises(JobFailedError) as raised:
            mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        assert raised.value.failures
        assert not os.path.exists(endpoint)

    def test_close_unlinks_even_when_server_stop_raises(self, tmp_path):
        from repro.core.modes import profile_for

        endpoint = str(tmp_path / "job.endpoint")
        job = DataMPIJob(
            name="wc", o_fn=_noop_a, a_fn=_noop_a, o_tasks=1, a_tasks=1,
        )
        conf = profile_for(job.mode, {
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_ENDPOINT_FILE: endpoint,
        })
        session = _mpidrun_mod._TelemetrySession(job, conf)
        assert os.path.exists(endpoint)

        def exploding_stop():
            raise RuntimeError("stop failed")

        session.server.stop, orig_stop = exploding_stop, session.server.stop
        try:
            session.close()  # must swallow the stop failure...
        finally:
            orig_stop()
        assert not os.path.exists(endpoint)  # ...and still unlink


# -- repro doctor (the CLI) -------------------------------------------------------


@pytest.fixture
def serve(tmp_path):
    """Serve a hub, and a doctor if given, on a live endpoint; returns
    the endpoint file's path."""
    from repro.rpc.server import SocketRpcServer

    servers = []

    def start(hub, doctor=None):
        target = {**hub.rpc_target(), **(doctor.rpc_target() if doctor else {})}
        server = SocketRpcServer(target, num_handlers=2, name="test-doctor")
        server.start()
        servers.append(server)
        endpoint = tmp_path / f"job{len(servers)}.endpoint"
        address = server.address
        endpoint.write_text(json.dumps({
            "address": list(address) if isinstance(address, tuple) else address,
            "job": hub.job, "pid": os.getpid(),
        }))
        return str(endpoint)

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def served_doctor(serve):
    """A live endpoint whose RPC target includes the doctor handlers."""
    hub = TelemetryHub(job="wc")
    hub.ingest(_record(0, wall=1.0))
    hub.ingest(_record(1, wall=1.0))
    hub.ingest(_record(2, wall=9.0))
    doctor = Doctor(hub, job="wc")
    doctor.evaluate()
    return serve(hub, doctor), doctor


class TestDoctorCli:
    def test_doctor_renders_a_live_report(self, served_doctor, capsys):
        from repro.cli import main

        endpoint, _ = served_doctor
        assert main(["doctor", endpoint]) == 0
        out = capsys.readouterr().out
        assert "doctor report — job wc" in out
        assert "[straggler]" in out

    def test_doctor_capture_flag_triggers_a_capture(self, served_doctor, capsys):
        from repro.cli import main

        endpoint, doctor = served_doctor
        assert main(["doctor", endpoint, "--capture", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["captures"] and doc["captures"][-1]["reason"] == "rpc request"

    def test_doctor_reads_a_written_report(self, tmp_path, capsys):
        from repro.cli import main

        doctor = Doctor(TelemetryHub(), job="wc")
        doctor.evaluate()
        path = doctor.write_report(str(tmp_path / "doctor.json"))
        assert main(["doctor", path]) == 0
        assert "doctor report — job wc" in capsys.readouterr().out
        out_path = str(tmp_path / "copy.json")
        assert main(["doctor", path, "--out", out_path]) == 0
        with open(out_path, encoding="utf-8") as f:
            assert json.load(f)["job"] == "wc"

    def test_doctor_fails_cleanly_without_a_target(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["doctor", str(tmp_path / "missing.endpoint")]) == 2
        assert "no such endpoint file or socket" in capsys.readouterr().err

    def test_doctor_explains_a_doctorless_job(self, serve, capsys):
        from repro.cli import main

        assert main(["doctor", serve(TelemetryHub(job="wc"))]) == 2
        assert "no diagnosis engine" in capsys.readouterr().err

    def test_a_live_report_names_a_rank_silent_since_its_last_record(
        self, serve, capsys
    ):
        from repro.cli import main

        hub, doctor, now = _watched(stall_seconds=5.0)
        hub.ingest(_record(0, wall=1.0, ts=time.time() - 30))  # its last word
        assert doctor.report()["findings"] == []
        now[0] = 10.0  # and nothing filed since: only the report evaluates
        assert main(["doctor", serve(hub, doctor), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(f["kind"], f["rank"]) for f in doc["findings"]] == [("silent", 0)]
        assert doc["evaluations"] == 2


class TestDoctorFlag:
    def test_doctor_flag_sets_the_conf(self):
        from repro.cli import _extract_obs_flags

        rest, conf, _ = _extract_obs_flags(["--doctor=/tmp/d.json", "-O", "2"])
        assert rest == ["-O", "2"]
        assert conf[K.DOCTOR_ENABLED] is True
        assert conf[K.DOCTOR_PATH] == "/tmp/d.json"

    def test_bare_doctor_flag_enables_with_default_path(self):
        from repro.cli import _extract_obs_flags

        _, conf, _ = _extract_obs_flags(["--doctor"])
        assert conf[K.DOCTOR_ENABLED] is True
        assert K.DOCTOR_PATH not in conf
