"""Compare two results files of ``run.py``, or check one for steadiness.

``python3 bench/compare.py A.json B.json``
    One row per (end-to-end metric, workload): both medians, the ratio
    B/A with its base, and a verdict that uses nothing but the bounds in
    ``BENCHMARK.json``: ``worse`` / ``better`` when B's median moved past
    the bound in that direction, ``unresolved`` when either side's
    spread is wider than the bound (the medians cannot be told apart),
    otherwise ``unchanged``.  ``latency_*`` has a row on
    ``topk_stream_20k`` only: elsewhere the runs mark it as a repeat of
    ``job_wall_s``.  ``engine.*`` counts that differ between traced runs
    on the same seed are listed.  Exit code 1 on any ``worse``.

``python3 bench/compare.py A.json``
    The spread of every end-to-end metric over A's runs against its
    bound, and next to it what the spread would be had each run reported
    the median of its jobs instead of the fastest.  Exit code 1 when a
    spread (``setup_s`` excepted) exceeds its bound.

A run's value of a time metric is that of its fastest job; the median
here is taken over the runs of a workload (``run.py --runs``) and the
spread is the distance between their quartiles as a share of the median.
With fewer than four runs the quartiles recorded inside each run (over
its timed jobs) stand in.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Runs of a results file, grouped by (workload, trace)."""
    with open(path, encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    grouped: dict[tuple[str, int], list[dict]] = {}
    for run in runs:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def summarize(runs: list[dict], metric: str,
              key: str = "value") -> tuple[float, float, int] | None:
    """(median, spread as a share of it, runs) of one metric; ``None`` for
    a metric the runs lack or only repeat under a second name.  ``key``
    picks what a run reports: its ``value`` or the ``median`` of its jobs."""
    found = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    found = [m for m in found if "same_as" not in m and key in m]
    if not found:
        return None
    values = [m[key] for m in found]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
    else:
        spread = max((m.get("q3", 0) - m.get("q1", 0)) / m[key] for m in found)
    return median, spread, len(values)


def verdict(a: tuple, b: tuple, better: str, bound: float) -> str:
    if max(a[1], b[1]) > bound:
        return "unresolved"
    change = b[0] / a[0] - 1
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sides = [load(path) for path in argv]
    status = 0
    # the workloads of BENCHMARK.json first, then those run with --all
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += sorted({w for side in sides for w, _ in side} - set(workloads))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize(side.get((workload, 0), []), name) for side in sides]
            if None in stats:
                continue
            a = stats[0]
            row = f"{name:<16} {workload:<20} {a[0]:>11.5g} {metric['unit']:<3}"
            if len(sides) == 1:
                over = a[1] > bound and name != "setup_s"
                status |= over
                medians = summarize(sides[0][workload, 0], name, "median")
                print(f"{row} n={a[2]:<3} spread {a[1]:7.2%}  bound {bound:4.0%}"
                      f"  {'TOO WIDE' if over else 'ok'}"
                      + (f"  (of the runs' medians: {medians[1]:.2%})" if medians else ""))
                continue
            b = stats[1]
            word = verdict(a, b, metric["better"], bound)
            status |= word == "worse"
            print(f"{row} -> {b[0]:>11.5g}  x{b[0] / a[0]:.3f} of {a[0]:.5g}  "
                  f"spread {a[1]:.1%}/{b[1]:.1%}  bound {bound:.0%}  {word}")
        if len(sides) == 2:
            compare_counts(workload, *sides)
    return int(status)


def compare_counts(workload: str, a: dict, b: dict) -> None:
    """Print the ``engine.*`` counts that differ between traced runs on the
    same seed (which counts must repeat: see README, "Which counts repeat")."""
    by_seed = {run["seed"]: run for run in b.get((workload, 1), [])}
    for run in a.get((workload, 1), []):
        other = by_seed.get(run["seed"])
        if other is None:
            continue
        for name, metric in run["metrics"].items():
            if name.startswith("engine.") and metric["unit"] in ("count", "B"):
                theirs = other["metrics"][name]["value"]
                if metric["value"] != theirs:
                    print(f"{name:<16} {workload:<20} seed {run['seed']}: "
                          f"{metric['value']} != {theirs}  COUNT DIFFERS")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
