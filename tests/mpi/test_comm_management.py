"""Communicator split/dup, intercommunicators and dynamic spawn."""

import pytest

from repro.mpi import SUM, run_world
from repro.mpi.runtime import MPIRuntime


class TestSplit:
    def test_split_even_odd(self):
        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color, key=comm.rank)
            return (color, sub.rank, sub.size, sub.allreduce(comm.rank, SUM))

        results = run_world(6, main)
        for world_rank, (color, sub_rank, sub_size, total) in enumerate(results):
            assert sub_size == 3
            assert sub_rank == world_rank // 2
            expected = sum(r for r in range(6) if r % 2 == color)
            assert total == expected

    def test_split_with_undefined_color(self):
        def main(comm):
            sub = comm.split(0 if comm.rank < 2 else None)
            if sub is None:
                return "excluded"
            return sub.size

        assert run_world(4, main) == [2, 2, "excluded", "excluded"]

    def test_split_key_reorders_ranks(self):
        def main(comm):
            # reverse ordering: highest world rank becomes rank 0
            sub = comm.split(0, key=-comm.rank)
            return sub.rank

        assert run_world(4, main) == [3, 2, 1, 0]

    def test_split_isolates_traffic(self):
        """Same-tag messages in sibling comms must not cross."""

        def main(comm):
            sub = comm.split(comm.rank % 2, key=comm.rank)
            peer = 1 - sub.rank
            sub.send(f"color{comm.rank % 2}", dest=peer, tag=0)
            return sub.recv(source=peer, tag=0)

        results = run_world(4, main)
        assert results == ["color0", "color1", "color0", "color1"]

    def test_nested_split(self):
        def main(comm):
            half = comm.split(comm.rank // 2)
            quarter = half.split(half.rank)
            return quarter.size

        assert run_world(4, main) == [1, 1, 1, 1]


class TestDup:
    def test_dup_preserves_shape(self):
        def main(comm):
            dup = comm.dup()
            return (dup.rank, dup.size)

        assert run_world(3, main) == [(0, 3), (1, 3), (2, 3)]

    def test_dup_isolates_pending_messages(self):
        def main(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("orig", dest=1, tag=1)
                dup.send("dup", dest=1, tag=1)
                return None
            # receive from the dup first: must get the dup message even
            # though the original-comm message arrived first
            from_dup = dup.recv(source=0, tag=1)
            from_orig = comm.recv(source=0, tag=1)
            return (from_dup, from_orig)

        assert run_world(2, main)[1] == ("dup", "orig")


class TestSpawn:
    def test_spawn_and_echo(self):
        def child(comm, factor):
            parent = comm.Get_parent()
            assert parent is not None
            value = parent.recv(source=0, tag=1)
            parent.send(value * factor, dest=0, tag=2)
            return None

        def main(comm):
            inter = comm.spawn(child, nprocs=3, args=(10,))
            assert inter.remote_size == 3
            for dst in range(3):
                inter.send(dst + 1, dest=dst, tag=1)
            return sorted(inter.recv(source=src, tag=2) for src in range(3))

        assert run_world(1, main) == [[10, 20, 30]]

    def test_children_have_own_world(self):
        def child(comm):
            # children form their own world communicator
            return_value = comm.allreduce(comm.rank, SUM)
            comm.Get_parent().send((comm.size, return_value), dest=0, tag=0)

        def main(comm):
            inter = comm.spawn(child, nprocs=4)
            reports = [inter.recv(source=s, tag=0) for s in range(4)]
            return reports

        reports = run_world(1, main)[0]
        assert reports == [(4, 6)] * 4

    def test_spawn_from_multirank_parent(self):
        def child(comm):
            parent = comm.Get_parent()
            src = parent.recv(source=0, tag=0)
            parent.send(f"ack{comm.rank}<-{src}", dest=0, tag=1)

        def main(comm):
            inter = comm.spawn(child, nprocs=2)
            # every parent rank sees the same remote group
            if comm.rank == 0:
                for dst in range(2):
                    inter.send("hello", dest=dst, tag=0)
                return sorted(inter.recv(source=s, tag=1) for s in range(2))
            return inter.remote_size

        results = run_world(2, main)
        assert results[0] == ["ack0<-hello", "ack1<-hello"]
        assert results[1] == 2

    def test_intercomm_requests_carry_the_same_status_as_intracomm_ones(self):
        def child(comm):
            parent = comm.Get_parent()
            request = parent.irecv(source=0, tag=4)
            payload = request.wait()
            status = request.status
            reply = parent.isend(payload, dest=0, tag=5)
            parent.send(
                [(status.source, status.tag, status.count),
                 (reply.status.source, reply.status.tag, reply.status.count)],
                dest=0, tag=6,
            )

        def main(comm):
            inter = comm.spawn(child, nprocs=1)
            sent = inter.isend(b"abc", dest=0, tag=4).status
            mine = comm.isend(b"abc", dest=0, tag=4).status
            comm.recv(source=0, tag=4)
            assert inter.recv(source=0, tag=5) == b"abc"
            return (
                [(sent.source, sent.tag, sent.count),
                 (mine.source, mine.tag, mine.count)],
                inter.recv(source=0, tag=6),
            )

        (sent, mine), (received, replied) = run_world(1, main)[0]
        assert sent == mine == received
        assert sent[:2] == (0, 4) and sent[2] > 0
        assert replied == (0, 5, sent[2])

    def test_intercomm_merge(self):
        def child(comm):
            merged = comm.Get_parent().merge()
            return_value = merged.allreduce(merged.rank, SUM)
            comm.Get_parent().send(return_value, dest=0, tag=9)

        def main(comm):
            inter = comm.spawn(child, nprocs=2)
            merged = inter.merge()
            total = merged.allreduce(merged.rank, SUM)
            child_totals = [inter.recv(source=s, tag=9) for s in range(2)]
            return (merged.rank, total, child_totals)

        rank, total, child_totals = run_world(1, main)[0]
        assert rank == 0  # parent side comes first in the merge
        assert total == 0 + 1 + 2
        assert child_totals == [3, 3]


class TestRuntime:
    def test_results_in_rank_order(self):
        assert run_world(5, lambda comm: comm.rank**2) == [0, 1, 4, 9, 16]

    def test_reuse_of_runtime_forbidden_by_fresh_worlds(self):
        runtime = MPIRuntime()
        first = runtime.run(lambda comm: comm.size, 2)
        assert first == [2, 2]

    def test_context_allocation_unique(self):
        runtime = MPIRuntime()
        contexts = {runtime.allocate_context() for _ in range(100)}
        assert len(contexts) == 100

    def test_unknown_endpoint_raises(self):
        from repro.common.errors import MPIError

        with pytest.raises(MPIError):
            MPIRuntime().mailbox(99)

    def test_run_world_passes_args(self):
        def main(comm, a, b):
            return a + b + comm.rank

        assert run_world(2, main, 10, 20) == [30, 31]
