"""Tests for simulated devices, disks, cores and memory."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import MiB
from repro.simulate.cluster import TESTBED_A, TESTBED_B, SharedDisk, SimCluster
from repro.simulate.engine import Simulator
from repro.simulate.resources import Cores, Device, MemoryGauge


class TestDevice:
    def test_single_transfer_time(self):
        sim = Simulator()
        nic = Device(sim, rate=100.0)

        def proc():
            yield nic.transfer(250.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(2.5)

    def test_fifo_serialization(self):
        sim = Simulator()
        nic = Device(sim, rate=100.0)
        finishes = []

        def proc(tag, nbytes):
            yield nic.transfer(nbytes)
            finishes.append((tag, sim.now))

        sim.process(proc("first", 100))
        sim.process(proc("second", 100))
        sim.run()
        assert finishes == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]

    def test_counters(self):
        sim = Simulator()
        nic = Device(sim, rate=50.0)

        def proc():
            yield nic.transfer(100)

        sim.process(proc())
        sim.run()
        assert nic.bytes_transferred == 100
        assert sim.now == pytest.approx(2.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(SimulationError):
            Device(Simulator(), rate=0)


class TestSharedDisk:
    def _disk(self, sim):
        return SharedDisk(sim, TESTBED_A.node)

    def test_sequential_stream_full_rate(self):
        sim = Simulator()
        disk = self._disk(sim)

        def proc():
            yield disk.read(110e6)  # exactly 1 second of sequential IO
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(1.0, rel=0.01)

    def test_interleaved_streams_pay_seeks(self):
        def run(n_streams):
            sim = Simulator()
            disk = self._disk(sim)

            def proc():
                yield disk.read(110e6 / n_streams)

            for _ in range(n_streams):
                sim.process(proc())
            sim.run()
            return sim.now

        solo = run(1)
        eight = run(8)
        # same total bytes, but 8 interleaved streams pay stream-switch seeks
        assert eight > solo * 1.05

    def test_read_write_accounted_separately(self):
        sim = Simulator()
        disk = self._disk(sim)

        def proc():
            yield disk.read(1 * MiB)
            yield disk.write(2 * MiB)

        sim.process(proc())
        sim.run()
        assert disk.bytes_read == 1 * MiB
        assert disk.bytes_written == 2 * MiB

    def test_zero_transfer_completes_instantly(self):
        sim = Simulator()
        disk = self._disk(sim)
        event = disk.read(0)
        assert event.triggered

    def test_round_robin_fairness(self):
        """Two equal streams finish near-together, not strictly serially."""
        sim = Simulator()
        disk = self._disk(sim)
        finishes = {}

        def proc(tag):
            yield disk.read(64 * MiB)
            finishes[tag] = sim.now

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert abs(finishes["a"] - finishes["b"]) < 0.2 * max(finishes.values())


class TestCores:
    def test_parallel_up_to_capacity(self):
        sim = Simulator()
        cpu = Cores(sim, 2)

        def proc():
            yield cpu.compute(1.0)

        for _ in range(2):
            sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_queueing_beyond_capacity(self):
        sim = Simulator()
        cpu = Cores(sim, 2)

        def proc():
            yield cpu.compute(1.0)

        for _ in range(5):
            sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(3.0)  # ceil(5/2) waves
        assert cpu.core_seconds == pytest.approx(5.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(SimulationError):
            Cores(Simulator(), 0)


class TestMemoryGauge:
    def test_allocate_release_peak(self):
        mem = MemoryGauge(100.0)
        mem.allocate(60)
        mem.allocate(30)
        assert mem.used == 90 and mem.peak == 90
        mem.release(50)
        assert mem.used == 40
        assert mem.peak == 90  # peak is sticky

    def test_release_never_negative(self):
        mem = MemoryGauge(10.0)
        mem.release(5)
        assert mem.used == 0


class TestClusterSpecs:
    def test_testbed_a_matches_paper(self):
        assert TESTBED_A.num_slaves == 16  # 17 nodes = 1 master + 16 slaves
        assert TESTBED_A.node.cores == 16  # dual octa-core
        assert TESTBED_A.node.ram_bytes == 64 * 2**30
        assert TESTBED_A.map_slots == 4 and TESTBED_A.reduce_slots == 4  # §V-B
        assert TESTBED_A.default_block_size == 256 * 2**20  # §V-B tuning

    def test_testbed_b_matches_paper(self):
        assert TESTBED_B.num_slaves == 64
        assert TESTBED_B.node.cores == 8  # dual quad-core
        assert TESTBED_B.node.ram_bytes == 12 * 2**30
        assert TESTBED_B.map_slots == 2 and TESTBED_B.reduce_slots == 2  # §V-G
        assert TESTBED_B.default_block_size == 128 * 2**20

    def test_with_slaves(self):
        spec = TESTBED_B.with_slaves(32)
        assert spec.num_slaves == 32
        assert spec.node == TESTBED_B.node

    def test_cluster_counters_start_zero(self):
        cluster = SimCluster(TESTBED_A.with_slaves(2))
        assert cluster.total_disk_read() == 0
        assert cluster.total_net_bytes() == 0
        assert cluster.total_cores() == 32
