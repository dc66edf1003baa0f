"""One metrics record per rank: every report is a view of WorkerMetrics.

* a counter declared once in ``Counters`` reaches the merged
  ``JobMetrics``, ``--metrics-json``, the journal summary, the telemetry
  hub and the Prometheus exposition;
* the last record the hub holds for a rank *is* that rank's reported
  record, task table included;
* a rank's disjoint phase buckets add up to its wall — also in Streaming
  mode, where each A task runs on a lane of its own;
* the phases the profiler's samples carry are the rank's bucket names,
  ``partition-sort`` included;
* a record a pulse sends while a task runs already holds the task's time.
"""

import importlib
from dataclasses import fields

import pytest

from repro.core import DataMPIJob, Mode, mapreduce_job, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import (
    COUNTER_NAMES,
    COVERAGE_PHASES,
    JobResult,
    WorkerMetrics,
)
from repro.core.modes import profile_for
from repro.core.scheduler import merge_reports
from repro.obs.journal import read_journal
from repro.obs.telemetry import TelemetryHub

from tests.core.helpers import (
    FileCollector,
    busy_for,
    expected_wordcount,
    wordcount_pieces,
)

_mpidrun_mod = importlib.import_module("repro.core.mpidrun")


def _compared_in_python(a, b):
    """A comparator the seal cannot hand to native ``<``, a character at
    a time: the seals then sort for a tenth of a second a rank, which a
    500 Hz profiler cannot miss."""
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return len(a) - len(b)


def _explained(phases):
    """Seconds in the disjoint buckets (the ``spill`` overlay left out)."""
    return sum(phases.get(p, 0.0) for p in COVERAGE_PHASES)


def _worker(rank, base):
    """A record whose every counter holds a distinct value."""
    values = {name: base + i for i, name in enumerate(COUNTER_NAMES)}
    return WorkerMetrics(rank=rank, **values)


class TestEveryCounterReachesEveryView:
    @pytest.fixture(scope="class")
    def views(self, tmp_path_factory):
        reports = {0: _worker(0, 100), 1: _worker(1, 1000)}
        job = merge_reports(reports)
        path = str(tmp_path_factory.mktemp("spine") / "spine.trace.jsonl")
        noop = DataMPIJob("spine", lambda ctx: None, lambda ctx: None, 1, 1)
        session = _mpidrun_mod._TraceSession(
            noop, profile_for(noop.mode, {K.TRACE_PATH: path}), nprocs=2
        )
        session.close(JobResult("spine", True, metrics=job), reports)
        hub = TelemetryHub()
        for wm in reports.values():
            hub.ingest(wm)
        return reports, job, read_journal(path).summary, hub

    def test_the_counters_are_the_fields_declared_once(self):
        ints = [f.name for f in fields(WorkerMetrics) if f.type == "int"]
        assert ints == [*COUNTER_NAMES, "rank", "epoch", "pid"]
        assert len(set(COUNTER_NAMES)) == len(COUNTER_NAMES) >= 13

    @pytest.mark.parametrize("index,name", list(enumerate(COUNTER_NAMES)))
    def test_counter_is_summed_in_every_report(self, views, index, name):
        reports, job, summary, hub = views
        per_rank = [100 + index, 1000 + index]
        assert getattr(job, name) == sum(per_rank)
        assert job.as_dict()[name] == sum(per_rank)
        assert summary[name] == sum(per_rank)
        assert [w[name] for w in summary["workers"]] == per_rank
        latest = hub.latest()
        assert [getattr(latest[r], name) for r in (0, 1)] == per_rank
        text = hub.prometheus_text()
        for rank, value in enumerate(per_rank):
            assert (
                f'datampi_rank_counter_total{{rank="{rank}",'
                f'counter="{name}"}} {value}'
            ) in text


#: big enough that a rank runs ~0.3 s: one lost GIL hand-off between two
#: buckets (5 ms) must stay well inside the 5 % the wall test allows
TEXTS = [f"spine w{i % 11} w{(i * 7) % 13} view" for i in range(8000)]


@pytest.fixture
def finished_job(tmp_path, launcher, captured_hub):
    """(result, journal worker rows, hub) of a traced, telemetered WordCount."""
    path = str(tmp_path / "job.trace.jsonl")
    provider, mapper, reducer = wordcount_pieces(TEXTS)
    out = FileCollector(tmp_path / "out")
    job = mapreduce_job(
        "spine-wc", provider, mapper, reducer, out, o_tasks=4, a_tasks=2,
        conf={
            K.LAUNCHER: launcher,
            K.TRACE_PATH: path,
            K.TELEMETRY_ENABLED: True,
            K.TELEMETRY_INTERVAL_SECONDS: 0.05,
        },
    )
    result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
    assert out.merged() == expected_wordcount(TEXTS)
    return result, read_journal(path).summary["workers"], captured_hub["hub"]


class TestReportsAgree:
    def test_parting_snapshot_is_the_reported_record(self, finished_job):
        result, workers, hub = finished_job
        latest = hub.latest()
        assert sorted(latest) == [w["rank"] for w in workers] == [0, 1]
        for w in workers:
            record = latest[w["rank"]]
            assert record.as_dict() == w
            assert record.tasks == [
                t for t in result.metrics.tasks if t.worker == w["rank"]
            ]
        # ... and the job's totals are the sum of what the hub holds
        for name in COUNTER_NAMES:
            assert getattr(result.metrics, name) == sum(
                getattr(record, name) for record in latest.values()
            )
        assert result.metrics.records_sent > 0
        assert result.metrics.envelopes_sent > 0

    def test_disjoint_buckets_add_up_to_the_wall(self, finished_job):
        _result, workers, _hub = finished_job
        for w in workers:
            assert _explained(w["phase_times"]) == pytest.approx(
                w["wall_seconds"], rel=0.05
            )


def _stream_o(ctx):
    for i in range(ctx.rank, 600, ctx.o_size):
        ctx.send(f"k{i % 17}", i)
        if i % 100 < ctx.o_size:
            busy_for(0.02)


def _stream_a(ctx):
    for _key, _value in ctx.recv_iter():
        pass
    busy_for(0.05)


def _long_o(ctx):
    busy_for(1.2)
    ctx.send("done", ctx.rank)


def _drain(ctx):
    list(ctx.recv_iter())


class TestInstrumentsAgree:
    def test_streaming_buckets_add_up_to_the_wall(self, tmp_path, launcher):
        """More A tasks than ranks, each on its own thread lane: their time
        is their TaskMetrics row and no longer a second wall in the
        rank's buckets."""
        path = str(tmp_path / "stream.trace.jsonl")
        job = DataMPIJob(
            "spine-stream", _stream_o, _stream_a, o_tasks=2, a_tasks=5,
            mode=Mode.STREAMING,
            conf={K.LAUNCHER: launcher, K.TRACE_PATH: path},
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        workers = read_journal(path).summary["workers"]
        assert [w["rank"] for w in workers] == [0, 1]
        for w in workers:
            assert w["wall_seconds"] > 0.1
            assert _explained(w["phase_times"]) == pytest.approx(
                w["wall_seconds"], rel=0.01
            )
        a_rows = [t for t in result.metrics.tasks if t.kind == "A"]
        assert sorted(t.task_id for t in a_rows) == [0, 1, 2, 3, 4]
        assert all(t.duration > 0.05 for t in a_rows)
        assert sum(t.records_received for t in a_rows) == 600

    def test_a_streaming_trace_accounts_for_every_block(self, tmp_path, launcher):
        """Every seal names its cause, and every sealed block left in a
        ``shuffle.send`` envelope, a rank's own included."""
        path = str(tmp_path / "blocks.trace.jsonl")
        job = DataMPIJob(
            "spine-blocks", _stream_o, _stream_a, o_tasks=2, a_tasks=5,
            mode=Mode.STREAMING,
            conf={K.LAUNCHER: launcher, K.TRACE_PATH: path},
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        journal = read_journal(path)
        causes = [e["args"]["cause"] for e in journal.spans if e["name"] == "spl.seal"]
        # the O tasks pause 20 ms every 100 records: the linger runs out
        assert set(causes) <= {"full", "age", "end"} and "age" in causes
        sends = [e for e in journal.spans if e["name"] == "shuffle.send"]
        # a rank's own streams are enveloped like its peers'
        assert {(e["rank"], e["args"]["dest"]) for e in sends} == {
            (rank, dest) for rank in range(2) for dest in range(2)
        }
        enveloped = sum(e["args"]["blocks"] for e in sends)
        assert enveloped == len(causes) == result.metrics.blocks_sent

    def test_profiler_samples_carry_the_bucket_names(self, tmp_path, launcher):
        """One clock feeds both: a sample's phase is a bucket of its rank,
        and the seals' ``partition-sort`` shows up in the samples."""
        path = str(tmp_path / "prof.trace.jsonl")
        texts = [
            " ".join(f"w{(i * 31 + j * 7) % 4001:04d}" for j in range(12))
            for i in range(6000)
        ]
        provider, mapper, reducer = wordcount_pieces(texts)
        out = FileCollector(tmp_path / "out")
        job = mapreduce_job(
            "spine-prof", provider, mapper, reducer, out, o_tasks=2, a_tasks=2,
            comparator=_compared_in_python,
            conf={
                K.LAUNCHER: launcher,
                K.TRACE_PATH: path,
                K.PROFILE_HZ: 500.0,
                K.SPL_PARTITION_BYTES: 8 * 1024,
            },
        )
        mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        journal = read_journal(path)
        seals = [e for e in journal.spans if e.get("name") == "spl.seal"]
        assert len(seals) >= 20
        buckets = {w["rank"]: set(w["phase_times"]) for w in journal.summary["workers"]}
        sampled = set()
        assert {p["rank"] for p in journal.profiles} == {0, 1}
        for profile in journal.profiles:
            assert set(profile["stacks"]) <= buckets[profile["rank"]]
            sampled |= set(profile["stacks"])
        assert "partition-sort" in sampled

    def test_a_mid_task_snapshot_holds_the_running_time(
        self, launcher, captured_hub
    ):
        job = DataMPIJob(
            "spine-live", _long_o, _drain, o_tasks=2, a_tasks=2,
            mode=Mode.MAPREDUCE,
            conf={
                K.LAUNCHER: launcher,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
            },
        )
        mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        for rank in (0, 1):
            mid_task = [
                record for record in captured_hub["records"]
                if record.rank == rank and record.o_tasks_run == 0
            ]
            assert max(_explained(r.phase_times) for r in mid_task) >= 0.9
