"""JobTracker/TaskTracker execution engine.

The :class:`MiniHadoopCluster` binds one TaskTracker (with map/reduce
slots and a shuffle server) to every HDFS DataNode.  ``run_job``:

1. computes input splits (one per block),
2. schedules map tasks **data-local first** onto free map slots,
3. waits for all maps (the reducers' copy phase cannot finish earlier —
   the two-phase proxy shuffle the paper critiques),
4. schedules reduce tasks round-robin (no data locality is *possible*:
   "the outputs of maps are distributed over the whole cluster"),
5. returns the engine's ``JobResult``: every task's ``WorkerMetrics``
   (a map an O task, a reduce an A task, each on its own phase lane)
   summed with ``merge_into``, as DataMPI's driver sums its ranks'.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import deque
from typing import Any

from repro.common.errors import JobFailedError
from repro.core.metrics import JobMetrics, JobResult, WorkerMetrics
from repro.hadoop.io_formats import compute_splits_for_dir
from repro.hadoop.job import HadoopJob
from repro.hadoop.shuffle_http import ShuffleDirectory, ShuffleServer
from repro.hadoop.tasks import run_map_task, run_reduce_task
from repro.hdfs.cluster import MiniDFSCluster


class TaskTracker:
    """Slots + shuffle server of one node."""

    def __init__(self, node_id: int, map_slots: int, reduce_slots: int) -> None:
        self.node_id = node_id
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.shuffle_server = ShuffleServer(node_id)


class MiniHadoopCluster:
    """One TaskTracker per DataNode of the provided mini-HDFS."""

    def __init__(
        self,
        dfs_cluster: MiniDFSCluster,
        map_slots_per_node: int = 2,
        reduce_slots_per_node: int = 2,
    ) -> None:
        self.dfs_cluster = dfs_cluster
        self.trackers = [
            TaskTracker(n, map_slots_per_node, reduce_slots_per_node)
            for n in range(dfs_cluster.num_nodes)
        ]

    # -- scheduling helpers ------------------------------------------------------
    def _assign_maps(self, splits: list) -> list[tuple[int, int]]:
        """(map_id, node) assignments, preferring replica-local nodes.

        Greedy JobTracker heuristic: walk nodes' free slots, give each a
        local split when one exists, else the oldest remaining split.
        """
        pending = deque(range(len(splits)))
        slots: list[int] = []
        for tracker in self.trackers:
            slots.extend([tracker.node_id] * tracker.map_slots)
        assignments: list[tuple[int, int]] = []
        slot_cycle = deque(slots)
        while pending:
            node = slot_cycle[0]
            slot_cycle.rotate(-1)
            local = next(
                (m for m in pending if node in splits[m].hosts), None
            )
            chosen = local if local is not None else pending[0]
            pending.remove(chosen)
            assignments.append((chosen, node))
        return assignments

    def _run_wave(self, work: list[tuple[Any, ...]], slots: int) -> None:
        """Run callables on at most ``slots`` concurrent threads."""
        errors: list[BaseException] = []
        semaphore = threading.Semaphore(slots)

        def runner(fn, args):
            try:
                fn(*args)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                semaphore.release()

        threads = []
        for fn, *args in work:
            semaphore.acquire()
            if errors:
                semaphore.release()
                break
            t = threading.Thread(target=runner, args=(fn, args), daemon=True)
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
        if errors:
            raise JobFailedError(str(errors[0])) from errors[0]

    # -- the job driver ------------------------------------------------------------
    def run_job(self, job: HadoopJob) -> JobResult:
        job.validate()
        start = time.perf_counter()
        records: list[WorkerMetrics] = []

        def result(success: bool, error: str = "") -> JobResult:
            metrics = JobMetrics(duration=time.perf_counter() - start)
            for record in records:
                record.merge_into(metrics)
            return JobResult(job.name, success, metrics, error)

        splits = compute_splits_for_dir(self.dfs_cluster.client(None), job.input_path)
        if not splits:
            return result(False, f"no input under {job.input_path}")
        directory = ShuffleDirectory([t.shuffle_server for t in self.trackers])

        # ---- map phase ------------------------------------------------------
        assignments = self._assign_maps(splits)

        def map_wrapper(map_id: int, node: int) -> None:
            records.append(run_map_task(
                job, map_id, splits[map_id], self.dfs_cluster.client(node),
                self.trackers[node].shuffle_server, local_dir,
            ))
            directory.announce_completion(map_id, node)

        total_map_slots = sum(t.map_slots for t in self.trackers)
        # map output on local disk: one directory per job, gone at its end
        local_dir = tempfile.mkdtemp(prefix=f"minihadoop-{job.name}-")
        try:
            self._run_wave(
                [(map_wrapper, m, node) for m, node in assignments],
                total_map_slots,
            )

            # ---- reduce phase ------------------------------------------------
            def reduce_wrapper(reduce_id: int, node: int) -> None:
                records.append(run_reduce_task(
                    job, reduce_id, len(splits), directory,
                    self.dfs_cluster.client(node), local_dir,
                ))

            total_reduce_slots = sum(t.reduce_slots for t in self.trackers)
            reduce_work = [
                (reduce_wrapper, r, r % len(self.trackers))
                for r in range(job.num_reduces)
            ]
            self._run_wave(reduce_work, total_reduce_slots)
        except JobFailedError as exc:
            return result(False, str(exc))
        finally:
            shutil.rmtree(local_dir, ignore_errors=True)
        return result(True)

    def read_output(self, job: HadoopJob) -> list[tuple[str, str]]:
        """Parse every part file of a text-output job."""
        dfs = self.dfs_cluster.client(None)
        pairs: list[tuple[str, str]] = []
        for path in dfs.listdir(job.output_path):
            pairs.extend(job.output_format.parse(dfs.read_file(path)))
        return pairs
