#!/usr/bin/env python
"""Key-value library-level checkpointing: crash a job, restart, recover.

Demonstrates §IV-E: with FT enabled, emitted pairs are persisted in
checkpoint rounds; a crashed job restarts, *reloads* the persisted pairs
from disk (no recomputation for them) and skips the corresponding
emits — producing output identical to a run that never failed.

Run:  python examples/fault_tolerance.py
"""

import shutil
import tempfile
import threading

from repro.core import mapreduce_job, mpidrun
from repro.core.checkpoint import CheckpointManager
from repro.core.constants import MPI_D_Constants as K
from repro.serde.serialization import WritableSerializer

N = 500


def build_job(out: dict, ft_dir: str, crash_after: int):
    lock = threading.Lock()

    def provider(rank, size):
        for i in range(rank, N, size):
            yield (i, i)

    def mapper(_k, v, emit):
        emit(f"bucket-{v % 9}", v)

    def reducer(key, values, emit):
        emit(key, sum(values))

    def collector(_rank, key, value):
        with lock:
            out[key] = value

    conf = {
        K.FT_ENABLED: True,
        K.FT_DIR: ft_dir,
        K.JOB_ID: "demo-ft",
        K.FT_INTERVAL_RECORDS: 25,  # one checkpoint round per 25 pairs
        K.INJECT_CRASH_AFTER_RECORDS: crash_after,
        K.INJECT_CRASH_TASK: 1,
    }
    return mapreduce_job(
        "ft-demo", provider, mapper, reducer, collector,
        o_tasks=4, a_tasks=2, conf=conf,
    )


def main() -> None:
    ft_dir = tempfile.mkdtemp(prefix="datampi-ft-demo-")
    ref_dir = tempfile.mkdtemp(prefix="datampi-ft-ref-")
    try:
        demo(ft_dir, ref_dir)
    finally:
        shutil.rmtree(ft_dir, ignore_errors=True)
        shutil.rmtree(ref_dir, ignore_errors=True)


def demo(ft_dir: str, ref_dir: str) -> None:
    print(f"checkpoint directory: {ft_dir}\n")

    # --- run 1: inject a crash in O task 1 after 60 emitted records -------
    crashed_out: dict = {}
    result = mpidrun(build_job(crashed_out, ft_dir, crash_after=60), nprocs=2)
    print(f"run 1: success={result.success}")
    print(f"       error: {result.error[:70]}")

    manager = CheckpointManager(ft_dir, "demo-ft", WritableSerializer(), 25)
    for task in range(4):
        reader = manager.reader(task)
        print(f"       O task {task}: {reader.max_round()} rounds,"
              f" {reader.record_count()} records persisted")

    # --- run 2: same job id, crash disabled -> recovery ---------------------
    recovered_out: dict = {}
    job = build_job(recovered_out, ft_dir, crash_after=-1)
    result = mpidrun(job, nprocs=2, raise_on_error=True)
    print(f"\nrun 2: success={result.success}")
    print(f"       reloaded from checkpoints: {result.metrics.reloaded_records}"
          " records (skipped re-sending)")

    # --- reference: a run that never failed -------------------------------------
    reference: dict = {}
    mpidrun(build_job(reference, ref_dir, crash_after=-1), nprocs=2,
            raise_on_error=True)
    assert recovered_out == reference
    print("\nrecovered output identical to an uninterrupted run:")
    for key in sorted(recovered_out):
        print(f"  {key} -> {recovered_out[key]}")


if __name__ == "__main__":
    main()
