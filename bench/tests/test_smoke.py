"""Smoke suite for the benchmark harness.

Run by explicit path (tier-1 collects ``tests/`` only)::

    python3 -m pytest bench/tests -q

It drives the real command at ``--smoke`` sizes: the point is the
harness's contract — names, units, bounds, the result line, repeatable
counts, nested spans, the verdicts of ``compare.py`` — not the numbers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
COMPARE = os.path.join(ROOT, "bench", "compare.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
#: workloads of ``workloads.py`` that BENCHMARK.json does not list (``--all``)
EXTRA = ["terasort_spill", "pagerank_threads", "topk_stream_max"]


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _traced(workload: str, seed: int) -> dict:
    proc = _run(RUN, "--smoke", "--workload", workload, "--seed", str(seed),
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    t0 = time.perf_counter()
    proc = _run(RUN, "--smoke", "--all", "--seed", "7", "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as f:
        return {"path": str(out), "elapsed": elapsed, "runs": json.load(f)["runs"]}


def test_smoke_suite_is_quick_and_correct(suite):
    assert suite["elapsed"] < 20.0
    runs = suite["runs"]
    # untraced + traced each
    assert sorted({run["workload"] for run in runs}) == sorted(
        [w["name"] for w in SPEC["workloads"]] + EXTRA)
    assert len(runs) == 2 * (len(SPEC["workloads"]) + len(EXTRA))
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        env = run["env"]
        assert {"nproc", "python", "git_commit", "ranks", "seed",
                "cpu_limited"} <= env.keys()
        assert env["smoke"] is True and env["seed"] == 7


def test_every_run_emits_exactly_the_declared_metrics(suite):
    declared = {
        0: {m["name"]: m for m in SPEC["end_to_end"]},
        1: {m["name"]: m for m in SPEC["per_layer"]},
    }
    for run in suite["runs"]:
        want = declared[run["trace"]]
        assert run["metrics"].keys() == want.keys(), run["workload"]
        for name, metric in run["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == want[name]["unit"]
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_have_units_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names and len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert [w["name"] for w in SPEC["workloads"]] == [
        "terasort_threads", "terasort_processes", "wordcount_threads",
        "topk_stream_20k",
    ]


def test_end_to_end_values_are_never_zero(suite):
    for run in suite["runs"]:
        if run["trace"] == 0:
            for name, metric in run["metrics"].items():
                assert metric["value"] > 0, (run["workload"], name)


def test_result_line_has_exactly_the_contract_keys():
    proc = _run(RUN, "--smoke", "--workload", "wordcount_threads", "--seed", "3",
                "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in result["metrics"].values():
        assert metric.keys() == {"value", "unit"}


def test_engine_counts_repeat_for_a_fixed_seed():
    # Iteration mode pins tasks to ranks: every count repeats
    first, second = (_traced("pagerank_threads", 5) for _ in range(2))
    counts = [n for n, m in first.items()
              if n.startswith("engine.") and m["unit"] in ("count", "B")]
    assert len(counts) == 5
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    # without a combiner, what is sent does not depend on the schedule
    first, second = (_traced("terasort_threads", 5) for _ in range(2))
    for name in ("engine.records_sent", "engine.bytes_sent"):
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_spans_nest_and_self_times_are_not_negative(suite):
    path = os.path.join(ROOT, ".bench_work", "runs", "terasort_spill-s7.spans.jsonl")
    with open(path, encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    by_id = {span["id"]: span for span in spans}
    assert sum(span["parent"] is None for span in spans) == 1  # one root
    for span in spans:
        assert span["workload"] == "terasort_spill" and span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    for span in spans:
        children = sum(c["end"] - c["start"] for c in spans if c["parent"] == span["id"])
        assert span["end"] - span["start"] - children >= -1e-9, span["name"]
    names = {span["name"] for span in spans}
    assert {"core.buffers.spl_seal", "core.sorter.runstore_spill",
            "workload.a_fn"} <= names


def test_compare_verdicts(suite, tmp_path):
    same = _run(COMPARE, suite["path"], suite["path"])
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "COUNT DIFFERS" not in same.stdout

    with open(suite["path"], encoding="utf-8") as f:
        slower = json.load(f)
    for run in slower["runs"]:
        if run["workload"] == "pagerank_threads" and run["trace"] == 0:
            run["metrics"]["peak_rss_mb"]["value"] *= 2  # one sample: no spread
    doctored = tmp_path / "slower.json"
    doctored.write_text(json.dumps(slower))
    worse = _run(COMPARE, suite["path"], str(doctored))
    assert worse.returncode == 1
    row = next(line for line in worse.stdout.splitlines()
               if line.startswith("peak_rss_mb") and "pagerank_threads" in line)
    assert row.endswith("worse") and "x2.000" in row


def test_latency_is_per_event_on_the_open_loop_only(suite):
    for run in suite["runs"]:
        if run["trace"] == 0:
            repeats = "same_as" in run["metrics"]["latency_p99_ms"]
            assert repeats == (run["workload"] != "topk_stream_20k")
    rows = _run(COMPARE, suite["path"]).stdout.splitlines()
    assert [row.split()[1] for row in rows if row.startswith("latency_")] == [
        "topk_stream_20k"] * 2


def test_a_run_that_leaves_no_record_counts_as_failed(tmp_path):
    # on one core every run refuses to start (exit 2) and writes nothing
    out = tmp_path / "results.json"
    one_core = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "9", "--no-trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {one_core}),
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "refusing to run" in proc.stderr
    runs = json.loads(out.read_text())["runs"]
    lost = len(SPEC["workloads"])
    assert len(runs) == lost and f"failed_share = {lost}/{lost}" in proc.stdout
    for run in runs:
        assert run["code"] == 2 and not run["correct"]
        assert (run["attempted"], run["failed"], run["metrics"]) == (1, 1, {})


def test_refuses_outside_a_full_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(str(tmp_path / "bench" / "run.py"), "--workload", "terasort_threads",
                "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
