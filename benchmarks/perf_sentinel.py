"""Perf-regression sentinel.

Re-runs the observability-overhead benchmark in quick mode and gates its
*scale-free* metrics — overhead percentages, numbers that survive a move
between machines — against the acceptance bar recorded in the committed
baseline (``BENCH_OBS.json``).  Absolute throughputs and latencies are
noise on shared CI runners, so they are reported but never gated; the
datapath's own throughput is the business of ``bench/run.py``.

Gated metrics:

* ``disabled_overhead_pct_estimate`` — tracer guards on the disabled
  hot path;
* ``telemetry.default_overhead_pct`` — snapshot shipping at the default
  interval;
* ``profiler.default_overhead_pct`` — stack sampling at the default Hz.

The percentages are gated against the committed acceptance bar (3%), not
against their tiny baseline values: 0.005% → 0.05% is a 10x "regression"
that still costs nothing.

Run::

    PYTHONPATH=src python benchmarks/perf_sentinel.py [--fresh-dir DIR]

``--fresh-dir`` keeps the freshly generated JSON file (for CI artifact
upload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
for p in (_SRC, os.path.dirname(os.path.abspath(__file__))):
    if p not in sys.path:
        sys.path.insert(0, p)

BASELINE_OBS = os.path.join(REPO_ROOT, "BENCH_OBS.json")


def _dig(tree: dict, path: str, default=None):
    node = tree
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def compare(baseline_obs: dict, fresh_obs: dict) -> list[dict]:
    """Return one row per gated metric; row["ok"] is the verdict."""
    bar = _dig(baseline_obs, "acceptance.bar_pct", 3.0)
    rows: list[dict] = []
    for path in ("disabled_overhead_pct_estimate",
                 "telemetry.default_overhead_pct",
                 "profiler.default_overhead_pct"):
        fresh = _dig(fresh_obs, path)
        rows.append({
            "metric": path,
            "baseline": _dig(baseline_obs, path), "fresh": fresh,
            "bar_pct": bar,
            "ok": fresh is not None and fresh < bar,
        })
    return rows


def render(rows: list[dict]) -> str:
    return "\n".join(
        f"  [{'ok  ' if row['ok'] else 'FAIL'}] {row['metric']}: "
        f"fresh={row['fresh']} (baseline={row['baseline']}, "
        f"want < {row['bar_pct']}%)"
        for row in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh-dir", default=None,
                        help="directory for the fresh bench JSON file")
    args = parser.parse_args(argv)

    fresh_dir = args.fresh_dir or os.path.join(REPO_ROOT, "benchmarks",
                                               "results")
    os.makedirs(fresh_dir, exist_ok=True)
    fresh_obs_path = os.path.join(fresh_dir, "fresh_obs.json")

    import bench_obs_overhead
    print("sentinel: running bench_obs_overhead (quick)...", flush=True)
    fresh_obs = bench_obs_overhead.run_all(quick=True)
    with open(fresh_obs_path, "w") as f:
        json.dump(fresh_obs, f, indent=2)
        f.write("\n")

    with open(BASELINE_OBS) as f:
        rows = compare(json.load(f), fresh_obs)
    print("perf sentinel:")
    print(render(rows))
    failed = [row for row in rows if not row["ok"]]
    if failed:
        print(f"\n{len(failed)} metric(s) over the acceptance bar")
        return 1
    print("\nall gated metrics under the acceptance bar")
    return 0


# -- pytest entry (pure comparison logic, no bench runs) ------------------------
def test_sentinel_compare_flags_regressions():
    base_obs = {
        "acceptance": {"bar_pct": 3.0},
        "disabled_overhead_pct_estimate": 0.05,
        "telemetry": {"default_overhead_pct": 0.005},
        "profiler": {"default_overhead_pct": 0.03},
    }
    good_obs = {
        "disabled_overhead_pct_estimate": 0.2,  # 4x baseline, under bar
        "telemetry": {"default_overhead_pct": 0.01},
        "profiler": {"default_overhead_pct": 0.06},
    }
    rows = compare(base_obs, good_obs)
    assert all(row["ok"] for row in rows), render(rows)

    bad_obs = dict(good_obs, profiler={"default_overhead_pct": 4.2})
    failed = {row["metric"] for row in compare(base_obs, bad_obs) if not row["ok"]}
    assert failed == {"profiler.default_overhead_pct"}


def test_sentinel_handles_missing_metrics():
    rows = compare({}, {})
    assert rows and not any(row["ok"] for row in rows)
    render(rows)  # must not raise on None values


if __name__ == "__main__":
    sys.exit(main())
