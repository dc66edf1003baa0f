"""Tests for the discrete-event simulation core."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import MiB
from repro.simulate.cluster import TESTBED_A, SharedDisk
from repro.simulate.engine import Simulator


class TestClockAndTimeouts:
    def test_virtual_time_advances(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 5.0
        assert sim.now == 5.0

    def test_zero_delay(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            log.append((sim.now, tag))

        for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
            sim.process(waiter(delay, tag))
        sim.run()
        assert log == [(1, "a"), (2, "b"), (3, "c")]

    def test_fifo_tie_break_at_same_time(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run()  # finish the rest
        assert fired


class TestProcessesAndEvents:
    def test_process_chain(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 43

    def test_manual_event(self):
        sim = Simulator()
        gate = sim.event()
        order = []

        def waiter():
            value = yield gate
            order.append(("woke", value, sim.now))

        def trigger():
            yield sim.timeout(3.0)
            gate.succeed("payload")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert order == [("woke", "payload", 3.0)]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_waiting_on_triggered_event_returns_immediately(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed("early")

        def proc():
            value = yield gate
            return value

        p = sim.process(proc())
        sim.run()
        assert p.value == "early"

    def test_all_of(self):
        sim = Simulator()

        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def main():
            procs = [sim.process(worker(d)) for d in (5, 1, 3)]
            yield sim.all_of(procs)
            return sim.now

        p = sim.process(main())
        sim.run()
        assert p.value == 5.0

    def test_all_of_empty(self):
        sim = Simulator()

        def main():
            yield sim.all_of([])
            return "instant"

        p = sim.process(main())
        sim.run()
        assert p.value == "instant"

    def test_then_on_a_fired_event_calls_at_once(self):
        sim = Simulator()
        gate = sim.event()
        seen = []
        gate.then(seen.append)
        gate.succeed("v")
        gate.then(seen.append)  # already fired: called now, not queued
        assert seen == ["v", "v"]
        assert sim._queue == []

    def test_all_of_over_fired_children(self):
        sim = Simulator()
        fired = [sim.event().succeed(i) for i in range(3)]
        assert sim.all_of(fired).triggered  # fires as it is built
        mixed = sim.all_of([*fired, sim.timeout(2.0)])
        assert not mixed.triggered

        def main():
            yield mixed
            return sim.now

        p = sim.process(main())
        sim.run()
        assert p.value == 2.0

    def test_bad_yield_raises(self):
        sim = Simulator()

        def proc():
            yield 42  # not an Event

        sim.process(proc())
        with pytest.raises(SimulationError, match="expected an Event"):
            sim.run()

    def test_runaway_guard(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(0.001)

        sim.process(forever())
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run(max_steps=1000)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def proc(tag, delay):
                for i in range(5):
                    yield sim.timeout(delay)
                    trace.append((round(sim.now, 9), tag, i))

            for tag, delay in [("x", 0.7), ("y", 1.1), ("z", 0.3)]:
                sim.process(proc(tag, delay))
            sim.run()
            return trace

        assert build() == build()

    def test_identical_shared_disk_runs(self):
        """Interleaved streams on one disk: the round-robin, its seeks and
        the completion order repeat exactly."""

        def build():
            sim = Simulator()
            disk = SharedDisk(sim, TESTBED_A.node)
            trace = []

            def stream(tag, nbytes, start, kind):
                yield sim.timeout(start)
                yield disk.transfer(nbytes, kind)
                trace.append((sim.now, tag))

            for tag, nbytes, start, kind in [
                ("a", 40 * MiB, 0.0, "read"),
                ("b", 12 * MiB, 0.0, "write"),
                ("c", 30 * MiB, 0.05, "read"),
                ("d", 3 * MiB, 0.2, "write"),
            ]:
                sim.process(stream(tag, nbytes, start, kind))
            sim.run()
            return trace, disk.bytes_read, disk.bytes_written

        first = build()
        assert first == build()
        trace, read, written = first
        assert sorted(tag for _, tag in trace) == ["a", "b", "c", "d"]
        assert (read, written) == (70 * MiB, 15 * MiB)
        # interleaving costs seeks: the last stream ends later than the
        # bytes alone take
        assert trace[-1][0] > 85 * MiB / TESTBED_A.node.disk_rate
