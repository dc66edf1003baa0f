"""Sender-side block coalescing: batching, EOS folding, exact stats.

The send path runs on the calling thread, so a recording world shows
exactly which blocks rode in which envelope: on a batch plane a stream
is held until its byte cap or the EOS.
"""

import tempfile

import pytest

from repro.common.errors import MPIAbort
from repro.core.constants import SHUFFLE_TAG
from repro.core.partition import PartitionWindow
from repro.core.shuffle import PlaneConfig, ShufflePlane, ShuffleService
from repro.mpi import run_world
from repro.serde.comparators import default_compare
from repro.serde.serialization import WritableSerializer
from tests.core.helpers import RecordingWorld, batch_block


#: the running test's ``tmp_path``, which pytest removes: every config's
#: spill directory is made under it
_spill_root = None


@pytest.fixture(autouse=True)
def _spill_under_tmp_path(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "_spill_root", str(tmp_path))


def _config(num_partitions=1, num_processes=1, pipelined=False):
    return PlaneConfig(
        num_partitions=num_partitions,
        window=PartitionWindow(num_partitions, num_processes),
        cmp=default_compare,
        serializer=WritableSerializer(),
        spill_dir=tempfile.mkdtemp(prefix="coalesce-test-", dir=_spill_root),
        memory_budget=1 << 30,
        pipelined=pipelined,
    )


def block(partition, records):
    return batch_block(partition, records, nbytes=10 * len(records))


def _sent_five(batch_bytes):
    """Five 10-byte blocks then the EOS on one stream; the envelopes."""
    world = RecordingWorld()
    service = ShuffleService(world, lambda pid: _config(), batch_bytes=batch_bytes)
    try:
        for i in range(5):
            service.send_block("pl", block(0, [(f"k{i}", i)]))
        service.send_eos("pl")
    finally:
        service.shutdown()
    return world, service


class TestCoalescing:
    def test_backlog_coalesces_into_one_envelope_with_eos_folded(self):
        world, _ = _sent_five(batch_bytes=1 << 20)
        assert len(world.sent) == 1  # held until the EOS, which rode along
        (kind, plane_id, (seq, origin, epoch, blocks, eos)), dest = world.sent[0]
        assert (kind, plane_id, dest) == ("batch", "pl", 0)
        assert (seq, origin, epoch) == (0, 0, 0)
        assert len(blocks) == 5
        assert eos is True  # no extra message

    def test_batch_bytes_cap_splits_envelopes(self):
        # blocks are 10 "bytes" each; a 25-byte cap flushes after 3
        world = RecordingWorld()
        service = ShuffleService(world, lambda pid: _config(), batch_bytes=25)
        try:
            for i in range(5):
                service.send_block("pl", block(0, [(f"k{i}", i)]))
                # the cap is met by the third block's call, not later
                assert len(world.sent) == (i >= 2)
            service.send_eos("pl")
        finally:
            service.shutdown()
        payloads = [env for env, _ in world.sent]
        sizes = [len(blocks) for _, _, (*_, blocks, _) in payloads]
        assert sizes == [3, 2]  # capped batch, remainder+eos
        assert [eos for _, _, (*_, eos) in payloads] == [False, True]
        # consecutive sequence numbers per (plane, dest) channel
        assert [seq for _, _, (seq, *_) in payloads] == [0, 1]

    def test_stats_stay_record_accurate_under_batching(self):
        _, service = _sent_five(batch_bytes=25)
        stats = service.stats()
        assert stats["blocks_sent"] == 5  # independent of batching
        assert stats["bytes_sent"] == 50
        assert stats["envelopes_sent"] == 2
        assert stats["envelopes_sent"] < stats["blocks_sent"]

    def test_separate_destinations_never_share_a_batch(self):
        world = RecordingWorld(size=2)
        service = ShuffleService(
            world, lambda pid: _config(num_partitions=2, num_processes=2),
            batch_bytes=1 << 20,
        )
        try:
            service.send_block("pl", block(0, [("mine", 0)]))  # dest 0
            service.send_block("pl", block(1, [("theirs", 1)]))  # dest 1
            service.send_block("pl", block(0, [("mine2", 0)]))   # dest 0
            service.send_eos("pl")
        finally:
            service.shutdown()
        by_dest = {}
        for (kind, _, (*_, blocks, _)), dest in world.sent:
            by_dest.setdefault(dest, []).append([b.partition_id for b in blocks])
        assert by_dest == {0: [[0, 0]], 1: [[1]]}


class TestCoalescingOverMPI:
    def test_stats_record_accurate_end_to_end(self):
        def main(comm):
            service = ShuffleService(
                comm, lambda pid: _config(2, comm.size)
            )
            nbytes_total = 0
            if comm.rank == 0:
                for i in range(60):
                    b = block(1, [(f"k{i}", i)])
                    nbytes_total += b.nbytes
                    service.send_block("fwd:0", b)
            service.send_eos("fwd:0")
            service.plane("fwd:0").wait_complete(30)
            stats = service.stats()
            service.shutdown()
            return stats, nbytes_total

        results = run_world(2, main)
        stats0, nbytes0 = results[0]
        assert stats0["blocks_sent"] == 60
        assert stats0["bytes_sent"] == nbytes0
        assert stats0["envelopes_sent"] == 2  # one per destination, EOS folded
        assert results[1][0]["records_received"] == 60

    def test_uncoalesced_block_message_aborts_the_world(self):
        """``("block", …)`` / ``("eos", …)`` left with the object path:
        the delivery knows ``batch`` only."""

        def main(comm):
            service = ShuffleService(comm, lambda pid: _config(1, comm.size))
            plane = service.plane("fwd:0")
            comm.send(("block", "fwd:0", block(0, [("a", 1)])),
                      dest=0, tag=SHUFFLE_TAG)
            try:
                plane.wait_complete(30)
            finally:
                service.shutdown()

        with pytest.raises(MPIAbort, match="unknown shuffle message kind 'block'"):
            run_world(1, main)


class TestStreamingBlockGranularity:
    def test_stream_queue_carries_whole_blocks_in_order(self):
        plane = ShufflePlane("p", 0, _config(pipelined=True))
        plane.add_block(block(0, [("a", 1), ("b", 2)]))
        plane.add_block(block(0, [("c", 3)]))
        plane.add_block(block(0, [("d", 4), ("e", 5)]))
        # one queue op per block, not one per record
        assert plane.streams[0].qsize() == 3
        plane.add_eos()
        assert list(plane.stream_iter(0)) == [
            ("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)
        ]

    def test_stream_iter_yields_before_completion(self):
        plane = ShufflePlane("p", 0, _config(num_processes=1, pipelined=True))
        plane.add_block(block(0, [("x", 1)]))
        it = plane.stream_iter(0)
        assert next(it) == ("x", 1)  # no EOS yet
        plane.add_eos()
        assert list(it) == []

    def test_the_abort_marker_wakes_a_consumer_of_an_open_plane_only(self):
        plane = ShufflePlane("p", 0, _config(num_processes=1, pipelined=True))
        plane.add_block(block(0, [("x", 1)]))
        it = plane.stream_iter(0)
        assert next(it) == ("x", 1)
        plane.abort_streams()  # the world aborted before the EOS
        with pytest.raises(MPIAbort):
            next(it)
        done = ShufflePlane("q", 0, _config(num_processes=1, pipelined=True))
        done.add_eos()
        done.abort_streams()  # complete: its consumers end at the EOS marker
        assert list(done.stream_iter(0)) == [] and done.streams[0].empty()
