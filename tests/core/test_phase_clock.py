"""The phase clock: one lane's time, written once.

* whatever the switch sequence, the buckets are disjoint and sum to the
  time elapsed since the clock started;
* ``read()`` includes the open interval and does not disturb it;
* a stopped clock is frozen;
* ``phase(...)`` restores the phase it left, also when the body raises,
  and is a no-op on a thread no lane is bound to;
* a reader on another thread never sees an interval twice.
"""

import os
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import SendPartitionList
from repro.core.checkpoint import CheckpointWriter
from repro.core.metrics import COVERAGE_PHASES, PhaseClock, bind_clock, phase
from repro.serde.comparators import default_compare
from repro.serde.serialization import get_serializer


class FakeNow:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def now():
    return FakeNow()


@pytest.fixture
def lane(now):
    """A fake-time clock bound to the test's thread."""
    clock = PhaseClock("control", now=now)
    bind_clock(clock)
    yield clock
    bind_clock(None)


class TestPhaseClock:
    @given(st.lists(st.tuples(
        st.sampled_from(COVERAGE_PHASES),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )))
    def test_buckets_are_disjoint_and_sum_to_elapsed(self, steps):
        now = FakeNow()
        clock = PhaseClock("control", now=now)
        spent = {}
        current = "control"
        for nxt, seconds in steps:
            now.advance(seconds)
            spent[current] = spent.get(current, 0.0) + seconds
            assert clock.switch(nxt) == current
            current = nxt
        now.advance(0.5)  # the open interval
        spent[current] = spent.get(current, 0.0) + 0.5
        buckets = clock.read()
        assert buckets == pytest.approx(spent)
        assert sum(buckets.values()) == pytest.approx(now.t - 100.0)

    def test_read_includes_the_open_interval_and_leaves_it_open(self, now):
        clock = PhaseClock("compute", now=now)
        now.advance(2.0)
        assert clock.read() == {"compute": 2.0}
        now.advance(1.0)
        assert clock.read() == {"compute": 3.0}  # the first read closed nothing
        assert clock.current == "compute"

    def test_a_stopped_clock_is_frozen(self, now):
        clock = PhaseClock("compute", now=now)
        now.advance(2.0)
        assert clock.switch(None) == "compute"
        now.advance(5.0)
        assert clock.current is None
        assert clock.read() == {"compute": 2.0}

    def test_a_reader_thread_never_sees_an_interval_twice(self):
        # real time, one writer switching every ~50 us, one reader: the
        # buckets may never add up to more than the time since start (a
        # read torn by a switch counts the interval being closed twice)
        t0 = time.perf_counter()
        clock = PhaseClock("compute")
        stop = threading.Event()
        excess = []

        def reader():
            while not stop.is_set():
                total = sum(clock.read().values())
                elapsed = time.perf_counter() - t0
                if total > elapsed:
                    excess.append((total, elapsed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            nxt = "partition-sort"
            while time.perf_counter() < t0 + 0.3:
                spin_until = time.perf_counter() + 5e-5
                while time.perf_counter() < spin_until:
                    pass
                nxt = clock.switch(nxt)
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert excess == []
        assert sum(clock.read().values()) == pytest.approx(
            time.perf_counter() - t0, abs=0.05
        )


class TestPhaseScope:
    def test_nested_scopes_restore_the_phase_they_left(self, lane, now):
        with phase("compute"):
            now.advance(1.0)
            with phase("partition-sort"):
                assert lane.current == "partition-sort"
                now.advance(0.25)
            assert lane.current == "compute"
            now.advance(1.0)
        assert lane.current == "control"
        assert lane.read() == {
            "control": 0.0, "compute": 2.0, "partition-sort": 0.25,
        }

    def test_a_raising_body_still_restores(self, lane, now):
        with pytest.raises(RuntimeError):
            with phase("compute"):
                with phase("checkpoint"):
                    now.advance(1.0)
                    raise RuntimeError("task died")
        assert lane.current == "control"
        assert lane.read()["checkpoint"] == 1.0

    def test_unbound_thread_is_a_noop(self):
        seen = []

        def body():
            with phase("compute"):  # no lane on this thread
                seen.append("ran")

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert seen == ["ran"]

    def test_lanes_are_per_thread(self, lane, now):
        other = PhaseClock("merge", now=now)

        def body():
            bind_clock(other)
            with phase("checkpoint"):
                now.advance(1.0)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert other.read() == {"merge": 0.0, "checkpoint": 1.0}
        assert lane.read() == {"control": 1.0}  # its own wall, not the other's


class TestLayersChargeThemselves:
    """The seal and the checkpoint flush move the calling thread's lane to
    their phase and back; built bare (no lane bound) they just run."""

    def _spl(self, serializer=None):
        return SendPartitionList(
            2, flush_bytes=64, cmp=default_compare,
            serializer=serializer or get_serializer("writable"),
        )

    def test_seal_charges_partition_sort(self, lane, now, monkeypatch):
        """The seal — ordering the held records — is ``partition-sort``;
        framing a pair is part of the ``send`` that passed it, so it is
        charged to whatever phase the caller is in."""
        from repro.core import buffers

        def slow_order(keys, cmp):
            now.advance(0.5)
            return sorted(range(len(keys)), key=keys.__getitem__)

        serializer = get_serializer("writable")
        encode = serializer.encode_field

        def slow_encode(obj, buf, scratch):
            now.advance(0.125)
            encode(obj, buf, scratch)

        monkeypatch.setattr(buffers, "sorted_order", slow_order)
        monkeypatch.setattr(serializer, "encode_field", slow_encode)
        spl = self._spl(serializer)
        with phase("compute"):
            blocks = [spl.add(i % 2, f"k{i:03d}", i) for i in range(40)]
            assert lane.current == "compute"
        sealed = [b for b in blocks if b is not None]
        assert sealed
        assert lane.read()["partition-sort"] == pytest.approx(0.5 * len(sealed))
        assert lane.read()["compute"] == pytest.approx(0.125 * 2 * 40)

    def test_flush_round_charges_checkpoint(self, lane, now, tmp_path, monkeypatch):
        real_replace = os.replace

        def slow_replace(src, dst):
            now.advance(0.25)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", slow_replace)
        writer = CheckpointWriter(
            str(tmp_path), "o0", get_serializer("writable"), interval_records=5
        )
        with phase("compute"):
            for i in range(10):
                writer.add(f"k{i}", i)
        assert writer.records_persisted == 10
        assert lane.read()["checkpoint"] == pytest.approx(0.5)
        assert lane.current == "control"

    def test_transmit_charges_communicate(self, lane, now):
        """A task ships what it sealed on its own lane: the wire time of
        each envelope is ``communicate``, the call around it stays the
        caller's phase."""
        import tempfile

        from repro.core.partition import PartitionWindow
        from repro.core.shuffle import PlaneConfig, ShuffleService
        from tests.core.helpers import RecordingWorld, batch_block

        class SlowWire(RecordingWorld):
            def send(self, obj, dest, tag=0):
                now.advance(0.25)
                super().send(obj, dest, tag)

        world = SlowWire(size=2)
        service = ShuffleService(world, lambda pid: PlaneConfig(
            2, PartitionWindow(2, 2), None, get_serializer("writable"),
            tempfile.gettempdir(), 1 << 20,
        ), batch_bytes=1 << 20)
        try:
            with phase("compute"):
                for i in range(6):
                    service.send_block("fwd:0", batch_block(i % 2, [("k", i)]))
                    now.advance(0.5)  # the task's own work between seals
                service.send_eos("fwd:0")
                assert lane.current == "compute"
        finally:
            service.shutdown()
        assert len(world.sent) == 2  # one envelope per destination
        assert lane.read()["communicate"] == pytest.approx(0.25 * 2)
        assert lane.read()["compute"] == pytest.approx(0.5 * 6)

    def test_bare_objects_run_without_a_lane(self, tmp_path):
        spl = self._spl()
        assert [b for i in range(40) if (b := spl.add(0, f"k{i}", i))]
        writer = CheckpointWriter(
            str(tmp_path), "o0", get_serializer("writable"), interval_records=2
        )
        writer.add("a", 1)
        writer.add("b", 2)
        assert writer.records_persisted == 2
