"""Unit tests for the shuffle service and planes (below the engine)."""

import sys
import tempfile
import threading

import pytest

from repro.common.errors import DataMPIError, MPIAbort
from repro.core.constants import SHUFFLE_TAG
from repro.core.partition import PartitionWindow
from repro.core.shuffle import PlaneConfig, ShufflePlane, ShuffleService
from repro.mpi import run_world
from repro.mpi.transport import Endpoint, Envelope
from repro.serde.comparators import default_compare
from repro.serde.serialization import WritableSerializer
from tests.core.helpers import RecordingWorld, batch_block


#: the running test's ``tmp_path``, which pytest removes: every config's
#: spill directory is made under it
_spill_root = None


@pytest.fixture(autouse=True)
def _spill_under_tmp_path(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "_spill_root", str(tmp_path))


def make_config(num_partitions=4, num_processes=2, cmp=default_compare,
                pipelined=False, budget=1 << 30):
    return PlaneConfig(
        num_partitions=num_partitions,
        window=PartitionWindow(num_partitions, num_processes),
        cmp=cmp,
        serializer=WritableSerializer(),
        spill_dir=tempfile.mkdtemp(prefix="shuffle-test-", dir=_spill_root),
        memory_budget=budget,
        pipelined=pipelined,
    )


def block(partition, records, sorted_=True):
    return batch_block(partition, records, sorted_=sorted_)


class TestShufflePlane:
    def test_owned_partitions_follow_window(self):
        plane = ShufflePlane("p", 0, make_config(5, 2))
        assert set(plane.rpls) == {0, 2, 4}
        plane1 = ShufflePlane("p", 1, make_config(5, 2))
        assert set(plane1.rpls) == {1, 3}

    def test_foreign_partition_rejected(self):
        plane = ShufflePlane("p", 0, make_config(4, 2))
        with pytest.raises(DataMPIError, match="Partition Window"):
            plane.add_block(block(1, [("a", 1)]))  # partition 1 owned by rank 1

    def test_completion_requires_all_eos(self):
        plane = ShufflePlane("p", 0, make_config(2, 2))
        plane.add_eos()
        assert not plane.complete.is_set()
        plane.add_eos()
        assert plane.complete.is_set()

    def test_extra_eos_rejected(self):
        plane = ShufflePlane("p", 0, make_config(2, 1))
        plane.add_eos()
        with pytest.raises(DataMPIError, match="extra EOS"):
            plane.add_eos()

    def test_read_before_complete_rejected(self):
        plane = ShufflePlane("p", 0, make_config(2, 1))
        with pytest.raises(DataMPIError, match="before EOS"):
            plane.merged_iter(0)

    def test_merged_iterator_sorted(self):
        plane = ShufflePlane("p", 0, make_config(2, 1))
        plane.add_block(block(0, [("b", 1), ("d", 1)]))
        plane.add_block(block(0, [("a", 2), ("c", 2)]))
        plane.add_eos()
        assert [k for k, _ in plane.merged_iter(0)] == ["a", "b", "c", "d"]

    def test_stats(self):
        plane = ShufflePlane("p", 0, make_config(2, 1))
        plane.add_block(block(0, [("a", 1), ("b", 1)]))
        assert plane.records_received() == 2
        assert plane.blocks_received() == 1

    def test_streaming_queue_delivery(self):
        plane = ShufflePlane("p", 0, make_config(2, 1, pipelined=True))
        plane.add_block(block(0, [("x", 1)], sorted_=False))
        it = plane.stream_iter(0)
        assert next(it) == ("x", 1)
        plane.add_eos()
        assert list(it) == []


    def test_pipelined_plane_stores_nothing(self):
        """A stream's only consumer is its queue: with a 1-byte budget a
        storing RPL would spill every block; a pipelined plane counts the
        blocks, retains none and delivers them in arrival order."""
        plane = ShufflePlane("p", 0, make_config(1, 1, cmp=None, pipelined=True, budget=1))
        for i in range(20):
            plane.add_block(block(0, [(f"k{i}", i), (f"k{i}", -i)], sorted_=False))
        plane.add_eos()
        assert list(plane.stream_iter(0)) == [
            (f"k{i}", v) for i in range(20) for v in (i, -i)
        ]
        assert (plane.blocks_received(), plane.records_received()) == (20, 40)
        assert plane.spilled_bytes() == 0
        store = plane.rpls[0].store
        assert store.memory_bytes == 0 and not store.memory_runs
        assert not store.disk_runs


class TestShuffleServiceOverMPI:
    def test_blocks_route_to_owners(self):
        def main(comm):
            service = ShuffleService(comm, lambda pid: make_config(4, comm.size))
            # every rank emits one block per partition
            for partition in range(4):
                service.send_block(
                    "fwd:0", block(partition, [(f"r{comm.rank}", partition)])
                )
            service.send_eos("fwd:0")
            plane = service.plane("fwd:0")
            plane.wait_complete(30)
            owned = {p: list(plane.merged_iter(p)) for p in plane.rpls}
            service.shutdown()
            return owned

        results = run_world(2, main)
        # rank 0 owns partitions 0 and 2; rank 1 owns 1 and 3
        assert set(results[0]) == {0, 2}
        assert set(results[1]) == {1, 3}
        for owned in results:
            for partition, records in owned.items():
                assert sorted(v for _, v in records) == [partition, partition]

    def test_stats_account_traffic(self):
        def main(comm):
            service = ShuffleService(comm, lambda pid: make_config(2, comm.size))
            if comm.rank == 0:
                for _ in range(5):
                    service.send_block("fwd:0", block(1, [("k", 1)]))
            service.send_eos("fwd:0")
            service.plane("fwd:0").wait_complete(30)
            stats = service.stats()
            service.shutdown()
            return stats

        results = run_world(2, main)
        assert results[0]["blocks_sent"] == 5
        assert results[1]["records_received"] == 5

    def test_multiple_planes_isolated(self):
        def main(comm):
            service = ShuffleService(comm, lambda pid: make_config(1, comm.size))
            service.send_block("fwd:0", block(0, [("first", 0)]))
            service.send_block("bwd:0", block(0, [("second", 0)]))
            service.send_eos("fwd:0")
            service.send_eos("bwd:0")
            fwd, bwd = service.plane("fwd:0"), service.plane("bwd:0")
            fwd.wait_complete(30)
            bwd.wait_complete(30)
            out = (
                [k for k, _ in fwd.merged_iter(0)],
                [k for k, _ in bwd.merged_iter(0)],
            )
            service.shutdown()
            return out

        # bwd planes use a window over o_tasks; with 1 partition + 1 process
        # both land on rank 0
        results = run_world(1, main)
        assert results[0] == (["first"], ["second"])

    def test_stats_survive_concurrent_plane_creation(self):
        """``stats()`` runs on the telemetry shipper while
        the task and the delivering threads create planes (an Iteration job
        does every round): a reader that walked the live dict died on
        ``dictionary changed size during iteration`` within ~600 planes,
        and the shipper swallows that and stops without a word.  Planes
        are dropped as they go, as a round's are: a drop racing a read must
        neither lose a plane's records nor count them twice."""

        def main(comm):
            config = make_config(1, comm.size)
            service = ShuffleService(comm, lambda pid: config)
            errors, stop = [], threading.Event()

            def read():
                last = 0
                try:
                    while not stop.is_set():
                        received = service.stats()["records_received"]
                        if received < last:
                            errors.append(f"records_received fell {last} -> {received}")
                        last = received
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))

            reader = threading.Thread(target=read, daemon=True)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                reader.start()
                for i in range(5000):
                    service.plane(f"fwd:{i}").add_block(block(0, [("k", i)]))
                    if i % 2:
                        service.drop(f"fwd:{i - 1}")
                    if errors:
                        break
            finally:
                stop.set()
                reader.join(10)
                sys.setswitchinterval(interval)
                service.shutdown()
            return errors, reader.is_alive()

        errors, alive = run_world(1, main)[0]
        assert errors == [] and not alive


class TestDeliveryOnTheDepositingThread:
    def test_a_service_built_mid_stream_completes_every_plane(self, tmp_path):
        """Origins deposit seq-numbered batches into a real mailbox while
        the service is built: what queued before its listener is filed
        ahead of what races in, so no stream sees a gap and no count is
        lost."""
        nprocs, planes, per_stream = 4, ("a", "b"), 40
        world = RecordingWorld(size=nprocs)
        endpoint = Endpoint(0, world.runtime.abort_flag)
        world.listen = lambda tag, handler: endpoint.listen(0, tag, handler)
        halfway = threading.Barrier(nprocs + 1)

        def origin(rank):
            for seq in range(per_stream):
                if seq == per_stream // 4:
                    halfway.wait()  # the service is built from here on
                for plane_id in planes:
                    blocks = [block(0, [(f"r{rank}", seq)])]
                    payload = (seq, rank, 0, blocks, seq == per_stream - 1)
                    endpoint.deposit(Envelope(
                        0, rank, SHUFFLE_TAG, ("batch", plane_id, payload), 1
                    ))

        config = PlaneConfig(1, PartitionWindow(1, nprocs), default_compare,
                             WritableSerializer(), str(tmp_path), 1 << 30)
        origins = [threading.Thread(target=origin, args=(r,)) for r in range(nprocs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in origins:
                thread.start()
            halfway.wait()
            service = ShuffleService(world, lambda pid: config)
            for thread in origins:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in origins)
            assert not world.runtime.abort_flag.is_set(), world.runtime.abort_flag.reason
            for plane_id in planes:
                plane = service.plane(plane_id)
                plane.wait_complete(0)
                assert plane.records_received() == nprocs * per_stream
            assert service.stats()["duplicates_dropped"] == 0
            assert endpoint.stats()["pending"] == 0
        finally:
            service.shutdown()


def _deliver(service, message):
    service._deliver(Envelope(0, 0, SHUFFLE_TAG, message, 1))


class TestRebornOrigin:
    def test_a_batch_at_a_higher_epoch_restarts_an_open_stream(self):
        """Origin 0 dies after seq 0 of its stream; its reborn incarnation
        sends the stream again from seq 0 at epoch 1.  Its first batch
        resets the channel: the first life's staged block is discarded,
        and the reborn's seq 0 is not taken for a duplicate."""
        world = RecordingWorld()
        world.runtime.rank_recovery = True  # channels stage and commit
        service = ShuffleService(world, lambda pid: make_config(1, 1))
        try:
            _deliver(service, ("batch", "fwd:0", (0, 0, 0, [block(0, [("a", 1)])], False)))
            _deliver(service, ("batch", "fwd:0", (0, 0, 1, [block(0, [("b", 2)])], True)))
            plane = service.plane("fwd:0")
            plane.wait_complete(0)
            assert list(plane.merged_iter(0)) == [("b", 2)]
            assert service.stats()["duplicates_dropped"] == 0
        finally:
            service.shutdown()
        assert not world.runtime.abort_flag.is_set(), world.runtime.abort_flag.reason


class TestDroppedPlanes:
    """A rank drops a plane it is done with: its data goes at once, its
    counts stay in the service totals, and nothing arriving later for it
    brings it back."""

    def _complete(self, service, records):
        _deliver(service, ("batch", "fwd:0", (0, 0, 0, [block(0, records)], True)))
        plane = service.plane("fwd:0")
        plane.wait_complete(0)
        return plane

    def test_counts_survive_the_drop_and_a_duplicate_never_recreates_it(self):
        world = RecordingWorld()
        service = ShuffleService(world, lambda pid: make_config(1, 1, budget=1))
        try:
            plane = self._complete(service, [("a", 1), ("b", 2), ("c", 3)])
            assert plane.spilled_bytes() > 0  # a 1-byte budget spills the run
            before = service.stats()
            service.drop("fwd:0")
            assert service._planes == {}
            assert plane.rpls[0].store.disk_runs == []  # the spill is gone
            assert service.stats() == before
            _deliver(service, ("batch", "fwd:0", (0, 0, 0, [block(0, [("a", 1)])], True)))
            assert service._planes == {}
            assert service.stats() == {**before, "duplicates_dropped": 1}
            service.drop("fwd:0")  # a second drop is a no-op
            assert service.stats()["records_received"] == 3
        finally:
            service.shutdown()
        assert not world.runtime.abort_flag.is_set(), world.runtime.abort_flag.reason

    def test_a_replayed_stream_never_recreates_it(self):
        world = RecordingWorld()
        world.runtime.rank_recovery = True  # channels stage and commit
        service = ShuffleService(world, lambda pid: make_config(1, 1))
        try:
            self._complete(service, [("a", 1)])
            service.drop("fwd:0")
            # the origin is reborn and sends its stream again from seq 0,
            # at epoch 1
            _deliver(service, ("batch", "fwd:0", (0, 0, 1, [block(0, [("a", 1)])], True)))
            assert service._planes == {}
            stats = service.stats()
            assert (stats["replays_dropped"], stats["records_received"]) == (1, 1)
        finally:
            service.shutdown()
        assert not world.runtime.abort_flag.is_set(), world.runtime.abort_flag.reason


class TestPlaneWaits:
    """A plane wait ends one of three ways: complete, the world's abort,
    or the timeout — woken, never polled."""

    def test_a_waiter_wakes_when_the_world_aborts_and_a_late_plane_is_dead(self):
        seen = {}

        def main(comm):
            service = ShuffleService(comm, lambda pid: make_config(1, comm.size))
            plane = service.plane("fwd:0")

            def wait():
                try:
                    plane.wait_complete(600)
                except MPIAbort as exc:
                    seen["waiter"] = str(exc)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            comm.abort(reason="a peer died")
            waiter.join(60)  # far below the wait's own timeout
            seen["alive"] = waiter.is_alive()
            try:
                service.plane("fwd:1").wait_complete(600)
            except MPIAbort as exc:
                seen["late"] = str(exc)
            service.shutdown()

        with pytest.raises(MPIAbort):
            run_world(1, main)
        assert seen["alive"] is False
        assert "a peer died" in seen["waiter"]
        assert "a peer died" in seen["late"]

    def test_a_complete_plane_returns_and_an_open_one_times_out(self):
        plane = ShufflePlane("p", 0, make_config(2, 1))
        with pytest.raises(DataMPIError, match="completion timed out"):
            plane.wait_complete(0)
        plane.add_eos()
        plane.wait_complete(0)
