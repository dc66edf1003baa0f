"""Simulated Hadoop 1.x MapReduce execution (the baseline's pipeline).

Mechanisms modelled, all straight from §IV-B/§IV-C:

* JVM-per-task startup, job submission overhead;
* map: local HDFS block read → map+sort CPU → **map output written to
  local disk** (competing with input reads on the single HDD);
* the **two-phase proxy shuffle**: reducers launch after a slow-start
  fraction of maps, then *pull* each completed map's segment over HTTP
  (per-stream throughput cap) from the map-side disk/page cache;
* reduce: merge passes to disk, reduce CPU, HDFS output write;
* memory: JVM heaps + page cache holding served map output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import math

from repro.common.units import MiB
from repro.simulate.cluster import SimCluster
from repro.simulate.engine import Event, Simulator
from repro.simulate.profiler import ResourceProfiler
from repro.simulate.profiles import (
    HADOOP_CONSTANTS,
    HDFS_OPEN_COST,
    SHUFFLE_FETCH_COST,
    WorkloadProfile,
)
from repro.simulate.report import SimJobReport

#: JVM heap per task slot + daemons (memory model baseline), bytes
_JVM_SLOT_BYTES = 1.2e9
_DAEMON_BYTES = 2.5e9
#: map-side sort buffer (io.sort.mb): output beyond it spills in multiple
#: passes and pays an extra on-disk merge -- the Figure 8(a) large-block
#: penalty
_IO_SORT_BYTES = 256 * MiB


@dataclass
class HadoopSimParams:
    """One simulated Hadoop job."""

    profile: WorkloadProfile
    data_bytes: float
    block_size: float
    num_reduces: int
    #: fraction of maps complete before reducers launch.  Hadoop 1.x sites
    #: commonly raise mapred.reduce.slowstart well above the 0.05 default
    #: so reducers do not squat on slots; it also concentrates the copy
    #: window, which is what the Fig 11(c) network profile shows.
    slowstart: float = 0.25
    name: str = "job"
    constants: "object" = field(default=HADOOP_CONSTANTS)


def simulate_hadoop_job(
    cluster: SimCluster, params: HadoopSimParams, profile_resources: bool = True
) -> SimJobReport:
    """Run one Hadoop job to completion in virtual time."""
    sim = cluster.sim
    report = SimJobReport(params.name, "Hadoop")
    job = _HadoopJobSim(cluster, params, report)
    done = sim.process(job.run())
    if profile_resources:
        ResourceProfiler(cluster, report, until=done)
    sim.run()
    assert done.triggered
    return report


class _HadoopJobSim:
    def __init__(
        self, cluster: SimCluster, params: HadoopSimParams, report: SimJobReport
    ) -> None:
        self.cluster = cluster
        self.params = params
        self.report = report
        self.sim: Simulator = cluster.sim
        self.consts = params.constants
        self.num_maps = max(1, math.ceil(params.data_bytes / params.block_size))
        self.map_output_total = (
            params.data_bytes * params.profile.map_output_ratio
        )
        #: completion event per map (for shuffle pulls) and its node
        self.map_done_events: list[Event] = []
        self.map_nodes: list[int] = []
        self.maps_completed = 0
        self.reduces_completed = 0
        #: per-reducer stage fraction (0, 1/3 copy, 2/3 merge, 1 done)
        self._reduce_stage: dict[int, float] = {}
        from repro.common.stats import TimeSeries

        self.report.progress["map"] = TimeSeries("map %")
        self.report.progress["reduce"] = TimeSeries("reduce %")
        # page-cache pressure: when per-node map output exceeds the RAM
        # left after JVM heaps, served shuffle segments re-read the disk
        ram_free = max(
            1.0, cluster.spec.node.ram_bytes - self._mem_baseline()
        )
        mapout_per_node = self.map_output_total / cluster.num_nodes
        self.miss_fraction = min(
            0.95,
            max(self.consts.shuffle_disk_miss, 1.0 - ram_free / mapout_per_node),
        )
        # reducer merge pressure: shuffled bytes per reducer far beyond the
        # reducer heap force extra on-disk merge passes
        shuffled_per_reduce = self.map_output_total / max(1, params.num_reduces)
        heap_comfort = 3e9
        pressure = max(1.0, shuffled_per_reduce / heap_comfort)
        self.merge_pressure = pressure
        #: page-cache proxy for the memory profile, per node
        self._cache_by_node: dict[int, float] = {}

    # -- helpers -------------------------------------------------------------------
    def _node(self, idx: int):
        return self.cluster.nodes[idx % self.cluster.num_nodes]

    def _mem_baseline(self) -> float:
        slots = self.cluster.spec.map_slots + self.cluster.spec.reduce_slots
        return _DAEMON_BYTES + slots * _JVM_SLOT_BYTES

    def run(self) -> Generator:
        sim = self.sim
        for node in self.cluster.nodes:
            node.mem.allocate(self._mem_baseline())
        yield sim.timeout(self.consts.job_overhead / 2)
        map_phase_start = sim.now
        self.report.phases["map"] = (map_phase_start, map_phase_start)

        # ---- map phase: per-node queues, slot-limited (data-local reads) -----
        per_node_maps: dict[int, list[int]] = {}
        for map_id in range(self.num_maps):
            node_idx = map_id % self.cluster.num_nodes
            per_node_maps.setdefault(node_idx, []).append(map_id)
            self.map_done_events.append(sim.event())
            self.map_nodes.append(node_idx)
        map_workers = []
        for node_idx, queue in per_node_maps.items():
            for slot in range(self.cluster.spec.map_slots):
                tasks = queue[slot :: self.cluster.spec.map_slots]
                if tasks:
                    map_workers.append(sim.process(self._map_worker(node_idx, tasks)))

        # ---- reducers launch at slow-start, pull as maps complete ----------------
        reduce_done: list[Event] = []
        per_node_reduces: dict[int, list[int]] = {}
        for reduce_id in range(self.params.num_reduces):
            node_idx = reduce_id % self.cluster.num_nodes
            per_node_reduces.setdefault(node_idx, []).append(reduce_id)
        reduce_phase_started = sim.event()
        for node_idx, queue in per_node_reduces.items():
            for slot in range(self.cluster.spec.reduce_slots):
                tasks = queue[slot :: self.cluster.spec.reduce_slots]
                if tasks:
                    worker = sim.process(
                        self._reduce_worker(node_idx, tasks, reduce_phase_started)
                    )
                    reduce_done.append(worker)

        yield sim.all_of(map_workers)
        map_phase_end = sim.now
        self.report.phases["map"] = (map_phase_start, map_phase_end)
        yield sim.all_of(reduce_done)
        yield sim.timeout(self.consts.job_overhead / 2)
        self.report.duration = sim.now
        # reduce phase spans slow-start launch to last reduce end
        if reduce_phase_started.triggered:
            self.report.phases["reduce"] = (reduce_phase_started.value, sim.now)
        for node in self.cluster.nodes:
            node.mem.release(self._mem_baseline())
            node.mem.release(self._cache_by_node.get(node.node_id, 0.0))

    # -- map side ---------------------------------------------------------------------
    def _map_worker(self, node_idx: int, map_ids: list[int]) -> Generator:
        node = self._node(node_idx)
        profile = self.params.profile
        for map_id in map_ids:
            block = min(
                self.params.block_size,
                self.params.data_bytes - map_id * self.params.block_size,
            )
            yield self.sim.timeout(self.consts.task_startup + HDFS_OPEN_COST)
            cpu_s = (
                (block / MiB)
                * profile.cpu_map_s_per_mb
                * profile.hadoop_cpu_factor
                * self.consts.cpu_factor_map
            )
            # the record reader prefetches: input read overlaps map compute
            yield self.sim.all_of(
                [node.disk.read(block), node.cpu.compute(cpu_s)]
            )
            out = block * profile.map_output_ratio
            to_disk = out * self.consts.map_output_to_disk
            if to_disk > 0:
                yield node.disk.write(to_disk)
                spills = math.ceil(to_disk / _IO_SORT_BYTES)
                if spills > 1:
                    # multi-spill maps re-read and re-write their whole
                    # output in the final merge (io.sort.mb exceeded)
                    yield node.disk.read(to_disk)
                    yield node.disk.write(to_disk)
                # served map output mostly lives in the page cache (§V-D)
                cache = to_disk * (1 - self.miss_fraction)
                node.mem.allocate(cache)
                self._cache_by_node[node.node_id] = (
                    self._cache_by_node.get(node.node_id, 0.0) + cache
                )
            self.maps_completed += 1
            self.report.progress["map"].add(
                self.sim.now, self.maps_completed / self.num_maps
            )
            self.map_done_events[map_id].succeed(self.sim.now)

    # -- reduce side --------------------------------------------------------------------
    def _reduce_worker(
        self, node_idx: int, reduce_ids: list[int], phase_started: Event
    ) -> Generator:
        sim = self.sim
        node = self._node(node_idx)
        profile = self.params.profile
        consts = self.consts
        segment = self.map_output_total / self.num_maps / self.params.num_reduces
        slowstart_count = max(1, int(self.params.slowstart * self.num_maps))
        # the background merger spills this fraction of the fetched
        # segments while the copy continues (overlapped, not serialized)
        slot_pressure = max(1.0, self.cluster.spec.reduce_slots / 4)
        merge_frac = min(
            1.6, consts.reduce_merge_disk * slot_pressure * self.merge_pressure
        )
        for reduce_id in reduce_ids:
            # wait for slow-start before occupying the slot
            yield self.map_done_events[slowstart_count - 1]
            if not phase_started.triggered:
                phase_started.succeed(sim.now)
            yield sim.timeout(consts.task_startup)
            # ---- copy phase: parallel fetcher threads pull each map's
            # segment once available (Hadoop's 5 copier threads) ----------
            shuffled = 0.0
            fetchers = 5
            merge_writes = []
            for group_start in range(0, self.num_maps, fetchers):
                group = range(
                    group_start, min(group_start + fetchers, self.num_maps)
                )
                yield sim.all_of(
                    [sim.process(self._fetch(node, m, segment)) for m in group]
                )
                shuffled += segment * len(group)
                spill = segment * len(group) * merge_frac
                if spill > 0:
                    merge_writes.append(node.disk.write(spill))
            # shuffled data buffered in the reducer JVM until the task ends
            node.mem.allocate(shuffled * max(0.0, 1 - merge_frac))
            self._progress_tick(reduce_id, 1 / 3)
            # ---- final merge pass reads the on-disk segments back -------------
            if merge_writes:
                yield sim.all_of(merge_writes)
            merge_bytes = shuffled * merge_frac
            if merge_bytes > 0:
                yield node.disk.read(merge_bytes)
            self._progress_tick(reduce_id, 2 / 3)
            # ---- reduce + output ----------------------------------------------
            cpu_s = (shuffled / MiB) * profile.cpu_reduce_s_per_mb * consts.cpu_factor_reduce
            yield node.cpu.compute(cpu_s)
            yield node.disk.write(shuffled * profile.reduce_output_ratio)
            node.mem.release(shuffled * max(0.0, 1 - merge_frac))
            self.reduces_completed += 1
            self._progress_tick(reduce_id, 1.0)

    def _fetch(self, node, map_id: int, segment: float) -> Generator:
        """One copier thread's HTTP GET of (map_id, partition)."""
        sim = self.sim
        consts = self.consts
        yield self.map_done_events[map_id]
        yield sim.timeout(SHUFFLE_FETCH_COST)
        src = self._node(self.map_nodes[map_id])
        miss = segment * self.miss_fraction
        if miss > 0:
            yield src.disk.read(miss)
        start = sim.now
        if src is not node:
            out_done = src.nic_out.transfer(segment)
            in_done = node.nic_in.transfer(segment)
            yield sim.all_of([out_done, in_done])
        if consts.shuffle_stream_cap:
            # Jetty per-stream ceiling: pad to the capped duration
            floor = segment / consts.shuffle_stream_cap
            elapsed = sim.now - start
            yield sim.timeout(max(0.0, floor - elapsed))

    def _progress_tick(self, reduce_id: int, stage: float) -> None:
        # aggregate copy/merge/reduce thirds across all reducers, like the
        # JobTracker's reduce progress bar
        self._reduce_stage[reduce_id] = stage
        current = sum(self._reduce_stage.values()) / max(1, self.params.num_reduces)
        series = self.report.progress["reduce"]
        prev = series.values[-1] if len(series) else 0.0
        series.add(self.sim.now, max(prev, min(1.0, current)))
