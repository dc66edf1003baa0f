"""The sampling profiler: registry, sampler, exporters, flame CLI.

Tentpole invariants:

* samples taken while a registered thread burns inside a function are
  attributed to that thread's rank under the phase its registered
  ``PhaseClock`` is in at that moment — the clock the rank's buckets
  are read from, so the two cannot disagree;
* the registry works with sampling off (live stack dumps for the DUMP
  frame / doctor captures, including transport queue stats);
* a profiled job folds one ``profile`` record per rank into its
  journal on BOTH backends — carried there by the tracer, so nothing
  but the journal is left behind — and ``repro flame`` renders/exports
  them.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.core import DataMPIJob, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import PhaseClock
from repro.core.modes import default_of
from repro.obs.journal import JournalWriter, read_journal
from repro.obs.profiler import (
    DEFAULT_HZ,
    DEFAULT_PHASE,
    StackSampler,
    collapse_stack,
    describe_stack,
    format_profile,
    to_collapsed,
    to_speedscope,
)

from tests.core.helpers import busy_for


def _burn_until(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i for i in range(50))


@pytest.fixture
def burning_thread():
    """A live thread spinning inside ``_burn_until``; yields its ident."""
    stop = threading.Event()
    thread = threading.Thread(target=_burn_until, args=(stop,), daemon=True)
    thread.start()
    yield thread.ident
    stop.set()
    thread.join(timeout=5)


# -- stack helpers ----------------------------------------------------------------


class TestStackShapes:
    def test_collapse_is_root_first_and_module_dot_function(self):
        collapsed = collapse_stack(sys._getframe())
        names = collapsed.split(";")
        # leaf-most frame is this very test function
        assert names[-1].endswith("test_profiler.test_collapse_is_root_first_and_module_dot_function")
        assert all("." in name for name in names)

    def test_describe_carries_line_numbers(self):
        described = describe_stack(sys._getframe())
        assert described[-1].startswith("test_profiler.test_describe_carries_line_numbers:")
        assert int(described[-1].rsplit(":", 1)[1]) > 0


# -- the sampler ------------------------------------------------------------------


class TestStackSampler:
    def test_samples_attribute_to_rank_and_phase(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(7, clock=PhaseClock("merge"), ident=burning_thread)
        for _ in range(20):
            sampler.sample_once()
        profile = sampler.collect(7, hz=100.0)
        assert profile["rank"] == 7
        assert profile["hz"] == 100.0
        assert profile["samples"] == 20
        assert set(profile["stacks"]) == {"merge"}
        assert any(
            "_burn_until" in stack for stack in profile["stacks"]["merge"]
        )

    def test_clock_switch_rebuckets_subsequent_samples(self, burning_thread):
        sampler = StackSampler()
        clock = PhaseClock("compute")
        sampler.register_thread(3, clock=clock, ident=burning_thread)
        sampler.sample_once()
        clock.switch("communicate")
        sampler.sample_once()
        clock.switch(None)  # a stopped clock samples as the default phase
        sampler.sample_once()
        profile = sampler.collect(3)
        assert set(profile["stacks"]) == {"compute", "communicate", DEFAULT_PHASE}

    def test_collect_pops_the_aggregate(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(1, ident=burning_thread)
        sampler.sample_once()
        assert sampler.collect(1)["samples"] == 1
        assert sampler.collect(1)["samples"] == 0  # popped

    def test_profile_is_non_destructive(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(4, clock=PhaseClock("compute"), ident=burning_thread)
        for _ in range(5):
            sampler.sample_once()
        profile = sampler.profile(4, hz=50.0)
        assert profile["samples"] == 5 and set(profile["stacks"]) == {"compute"}
        assert any("_burn_until" in stack for stack in profile["stacks"]["compute"])
        assert sampler.profile(4, hz=50.0) == profile  # nothing forgotten
        assert sampler.collect(4, hz=50.0) == profile
        assert sampler.profile(4)["samples"] == 0  # collect forgot it

    def test_unregistered_threads_are_invisible(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(2, ident=burning_thread)
        sampler.unregister_thread(ident=burning_thread)
        sampler.sample_once()
        assert sampler.collect(2)["samples"] == 0

    def test_acquire_release_refcount(self):
        sampler = StackSampler()
        assert sampler._thread is None
        sampler.acquire(10.0)
        sampler.acquire(50.0)
        assert sampler._thread is not None
        assert sampler.hz == 50.0  # max requested rate wins
        sampler.release()
        assert sampler._thread is not None  # one holder left
        sampler.release()
        assert sampler._thread is None
        sampler.release()  # over-release is a no-op

    def test_background_loop_actually_samples(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(9, clock=PhaseClock("compute"), ident=burning_thread)
        sampler.acquire(200.0)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sampler.profile(9)["samples"]:
                    break
                time.sleep(0.01)
        finally:
            sampler.release()
        profile = sampler.collect(9)
        assert profile["samples"] > 0
        assert sampler.ticks > 0
        assert sampler.sample_cost_seconds > 0.0

    def test_dump_stacks_reports_the_ranks_live_threads(self, burning_thread):
        sampler = StackSampler()
        sampler.register_thread(
            5, epoch=1, clock=PhaseClock("merge"), ident=burning_thread
        )
        sampler.register_thread(6, epoch=1)  # another rank's thread
        (thread,) = sampler.dump_stacks(5, 1)
        assert set(thread) == {"name", "phase", "stack"}
        assert thread["name"].startswith("Thread-")
        assert thread["phase"] == "merge"
        assert any("_burn_until" in frame for frame in thread["stack"])
        # the rank's earlier incarnation has no threads
        assert sampler.dump_stacks(5, 0) == []

    def test_dump_works_with_sampling_off(self, burning_thread):
        # the registry is always on: doctor captures must work unprofiled
        sampler = StackSampler()
        sampler.register_thread(0, ident=burning_thread)
        assert sampler._thread is None
        assert sampler.dump_stacks(0)[0]["stack"]


# -- exporters --------------------------------------------------------------------


PROFILES = [
    {"rank": 0, "epoch": 0, "hz": 50.0, "samples": 3,
     "stacks": {"compute": {"engine.run;app.o_fn": 2},
                "communicate": {"engine.run;plane.wait_complete": 1}}},
    {"rank": 1, "epoch": 2, "hz": 50.0, "samples": 1,
     "stacks": {"merge": {"engine.run;sorter.merge": 1}}},
]


class TestExporters:
    def test_collapsed_lines_carry_rank_phase_and_count(self):
        text = to_collapsed(PROFILES)
        lines = text.strip().splitlines()
        assert "rank0;communicate;engine.run;plane.wait_complete 1" in lines
        assert "rank0;compute;engine.run;app.o_fn 2" in lines
        # a respawned incarnation keeps its epoch in the prefix
        assert "rank1e2;merge;engine.run;sorter.merge 1" in lines

    def test_speedscope_document_shape(self):
        doc = to_speedscope(PROFILES, name="wc")
        assert doc["$schema"].endswith("file-format-schema.json")
        assert len(doc["profiles"]) == 2
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert len(prof["samples"]) == len(prof["weights"])
        # weights are seconds: count / hz
        assert sum(prof["weights"]) == pytest.approx(3 / 50.0)
        nframes = len(doc["shared"]["frames"])
        for sample in prof["samples"]:
            assert all(0 <= idx < nframes for idx in sample)

    def test_flame_and_the_doctor_name_the_same_hottest_phase(self):
        from repro.core.metrics import WorkerMetrics
        from repro.obs.doctor import _phase_attribution

        # the hottest stack (communicate's) is not in the hottest phase
        crossed = {"rank": 2, "epoch": 0, "hz": 50.0, "samples": 10,
                   "stacks": {"merge": {"engine.run;sorter.a": 3,
                                        "engine.run;sorter.b": 3},
                              "communicate": {"engine.run;plane.wait": 4}}}
        for profile in [*PROFILES, crossed]:
            phases_line = format_profile(profile).splitlines()[1]
            flame_phase = phases_line.split()[1].split("=")[0]
            attribution = _phase_attribution(WorkerMetrics(profile=profile))
            assert attribution["source"] == "profile"
            assert attribution["phase"] == flame_phase
        assert attribution["phase"] == "merge"
        assert attribution["top_stack"] in {"sorter.a", "sorter.b"}
        assert attribution["phase_pct"] == 60.0


# -- a profiled job end-to-end ----------------------------------------------------


class TestProfiledJob:
    def test_profiles_land_in_the_journal(self, tmp_path, launcher):
        journal_path = str(tmp_path / "prof.trace.jsonl")

        def o_fn(ctx):
            busy_for(0.3)
            for i in range(ctx.rank, 60, ctx.o_size):
                ctx.send(f"w{i % 7}", 1)

        def a_fn(ctx):
            list(ctx.recv_iter())
            busy_for(0.3)

        job = DataMPIJob(
            name="prof-wc", o_fn=o_fn, a_fn=a_fn, o_tasks=2, a_tasks=2,
            conf={
                K.LAUNCHER: launcher,
                K.TRACE_ENABLED: True,
                K.TRACE_PATH: journal_path,
                K.PROFILE_HZ: 200.0,
            },
        )
        result = mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True)
        assert result.success
        journal = read_journal(journal_path)
        ranks = {p["rank"] for p in journal.profiles}
        assert ranks == {0, 1}
        assert all(p["samples"] > 0 for p in journal.profiles)
        assert all(p["hz"] == 200.0 for p in journal.profiles)
        # the deliberate busy work is attributed to engine phases
        all_phases = set()
        for profile in journal.profiles:
            all_phases.update(profile["stacks"])
        assert all_phases & {"compute", "merge"}
        # the profiles rode the trace events: they are records of their
        # own in the journal, not events on its timeline ...
        assert not [e for e in journal.events if e.get("cat") == "profile"]
        # ... and nothing but the journal is left behind
        assert os.listdir(tmp_path) == ["prof.trace.jsonl"]

    def test_a_pulse_carries_the_journals_profile_document(
        self, tmp_path, captured_hub
    ):
        journal_path = str(tmp_path / "pulse.trace.jsonl")

        def o_fn(ctx):
            busy_for(0.3)
            for i in range(ctx.rank, 60, ctx.o_size):
                ctx.send(f"w{i % 7}", 1)

        def a_fn(ctx):
            list(ctx.recv_iter())

        job = DataMPIJob(
            name="prof-pulse", o_fn=o_fn, a_fn=a_fn, o_tasks=2, a_tasks=2,
            conf={
                K.LAUNCHER: "threads",
                K.TRACE_ENABLED: True,
                K.TRACE_PATH: journal_path,
                K.PROFILE_HZ: 200.0,
                K.TELEMETRY_ENABLED: True,
                K.TELEMETRY_INTERVAL_SECONDS: 0.05,
            },
        )
        assert mpidrun(job, nprocs=2, timeout=120.0, raise_on_error=True).success
        shapes = {frozenset(p) for p in read_journal(journal_path).profiles}
        assert shapes == {frozenset({"rank", "epoch", "hz", "samples", "stacks"})}
        # a pulse's record carries no task table; the report's does
        pulses = [r.profile for r in captured_hub["records"] if not r.tasks]
        assert pulses and all(p is not None for p in pulses)
        assert {frozenset(p) for p in pulses} == shapes


# -- repro flame ------------------------------------------------------------------


@pytest.fixture
def profiled_journal(tmp_path):
    path = str(tmp_path / "flame.trace.jsonl")
    with JournalWriter(path) as writer:
        writer.write_meta(job="wc", nprocs=2, mode="mapreduce")
        for profile in PROFILES:
            writer.write_profile(profile)
        writer.write_summary({"workers": []})
    return path


class TestFlameCli:
    def test_flame_summarizes_and_exports(self, profiled_journal, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "wc.collapsed")
        scope = str(tmp_path / "wc.speedscope.json")
        code = main(["flame", profiled_journal, "--out", out,
                     "--speedscope", scope])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rank 0: 3 samples @ 50 Hz" in printed
        assert "rank 1 (epoch 2)" in printed
        with open(out, encoding="utf-8") as f:
            lines = f.read().strip().splitlines()
        assert "rank0;compute;engine.run;app.o_fn 2" in lines
        with open(scope, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["name"] == "wc"
        assert len(doc["profiles"]) == 2

    def test_flame_rank_and_phase_filters(self, profiled_journal, capsys):
        from repro.cli import main

        assert main(["flame", profiled_journal, "--rank", "0"]) == 0
        printed = capsys.readouterr().out
        assert "rank 0" in printed and "rank 1" not in printed
        assert main(["flame", profiled_journal, "--phase", "merge"]) == 0
        printed = capsys.readouterr().out
        assert "sorter.merge" in printed and "app.o_fn" not in printed

    def test_flame_fails_cleanly_without_profiles(self, tmp_path, capsys):
        from repro.cli import main

        empty = str(tmp_path / "empty.trace.jsonl")
        with JournalWriter(empty) as writer:
            writer.write_meta(job="wc", nprocs=1, mode="common")
        assert main(["flame", empty]) == 2
        assert "no matching profiles" in capsys.readouterr().err
        assert main(["flame", str(tmp_path / "missing.jsonl")]) == 2


# -- launch flag ------------------------------------------------------------------


class TestProfileFlag:
    def test_profile_flag_sets_the_conf(self):
        from repro.cli import _extract_obs_flags

        rest, conf, _ = _extract_obs_flags(["--profile=25", "-O", "2"])
        assert rest == ["-O", "2"]
        assert conf == {K.PROFILE_HZ: 25.0}  # the rate is the switch

    def test_bare_profile_flag_uses_the_default_rate(self):
        from repro.cli import _extract_obs_flags

        _, conf, _ = _extract_obs_flags(["--profile"])
        assert conf == {K.PROFILE_HZ: DEFAULT_HZ} and DEFAULT_HZ == 50.0
        assert default_of(K.PROFILE_HZ) == 0.0  # unconfigured: off

    def test_bad_profile_rate_is_rejected(self):
        from repro.cli import _extract_obs_flags
        from repro.common.errors import DataMPIError

        with pytest.raises(DataMPIError):
            _extract_obs_flags(["--profile=fast"])
