"""Property-based end-to-end tests: the bipartite exchange as an oracle.

For arbitrary record multisets, task/process geometries and modes, one
invariant must hold: the multiset of (key, value) pairs received across
all A tasks equals the multiset emitted by all O tasks, with each pair
landing exactly at the partitioner-designated task, in sorted order when
the mode sorts.  hypothesis drives the geometry and the data.
"""

import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DataMPIJob, Mode, mpidrun
from repro.core.constants import MPI_D_Constants as K
from repro.core.partition import hash_partitioner

keys = st.one_of(
    st.integers(-50, 50),
    st.text(alphabet="abcdefg", min_size=0, max_size=6),
)
values = st.one_of(st.integers(), st.text(max_size=8), st.none())
records = st.lists(st.tuples(keys, values), min_size=0, max_size=60)
geometry = st.tuples(
    st.integers(1, 4),  # o_tasks
    st.integers(1, 5),  # a_tasks
    st.integers(1, 3),  # nprocs
)


def run_exchange(data, o_tasks, a_tasks, nprocs, mode, conf=None):
    received: dict[int, list] = {}
    lock = threading.Lock()

    def o_fn(ctx):
        for index in range(ctx.rank, len(data), ctx.o_size):
            ctx.send(*data[index])

    def a_fn(ctx):
        got = list(ctx.recv_iter())
        with lock:
            received[ctx.rank] = got

    job = DataMPIJob(
        "prop", o_fn, a_fn, o_tasks, a_tasks, mode=mode, conf=conf or {}
    )
    assert mpidrun(job, nprocs=nprocs, raise_on_error=True).success
    return received


class TestExchangeProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=records, geom=geometry)
    def test_mapreduce_exchange_oracle(self, data, geom):
        o_tasks, a_tasks, nprocs = geom
        received = run_exchange(data, o_tasks, a_tasks, nprocs, Mode.MAPREDUCE)
        # 1. nothing lost, nothing duplicated (multiset equality)
        flat = [kv for got in received.values() for kv in got]
        assert Counter(map(repr, flat)) == Counter(map(repr, data))
        # 2. routing: every pair sits at its partitioner-designated task
        for task_id, got in received.items():
            for key, value in got:
                assert hash_partitioner(key, value, a_tasks) == task_id
        # 3. each partition arrives key-sorted (MapReduce mode sorts)
        from repro.serde.comparators import default_compare, sort_key

        order = sort_key(default_compare)
        for got in received.values():
            ks = [k for k, _ in got]
            assert ks == sorted(ks, key=order)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=records, geom=geometry)
    def test_streaming_exchange_oracle(self, data, geom):
        o_tasks, a_tasks, nprocs = geom
        received = run_exchange(
            data, o_tasks, a_tasks, nprocs, Mode.STREAMING,
            conf={K.SPL_PARTITION_BYTES: 64},
        )
        flat = [kv for got in received.values() for kv in got]
        assert Counter(map(repr, flat)) == Counter(map(repr, data))
        for task_id, got in received.items():
            for key, value in got:
                assert hash_partitioner(key, value, a_tasks) == task_id

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.lists(st.tuples(st.integers(0, 30), st.integers()), max_size=40),
        tiny_flush=st.integers(16, 256),
    )
    def test_flush_threshold_never_changes_results(self, data, tiny_flush):
        """Buffering granularity is invisible to applications.

        Equal keys from *different* senders race, so value order within a
        key is not part of the contract — compare per-task multisets and
        key order, like MapReduce itself guarantees.
        """
        small = run_exchange(
            data, 2, 3, 2, Mode.MAPREDUCE, conf={K.SPL_PARTITION_BYTES: tiny_flush}
        )
        large = run_exchange(
            data, 2, 3, 2, Mode.MAPREDUCE,
            conf={K.SPL_PARTITION_BYTES: 1 << 20},
        )
        assert set(small) == set(large)
        for task_id in small:
            assert Counter(small[task_id]) == Counter(large[task_id])
            assert [k for k, _ in small[task_id]] == [
                k for k, _ in large[task_id]
            ]

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.lists(st.tuples(st.integers(0, 9), st.integers()), max_size=40))
    def test_spilling_never_changes_results(self, data):
        """cache_fraction=0 (all spilled to disk) is semantics-neutral.

        Value order *within* one key may differ (spill runs merge after
        in-memory runs, and MapReduce guarantees no value order), so the
        comparison is per-task multisets plus key order.
        """
        cached = run_exchange(data, 2, 2, 2, Mode.MAPREDUCE)
        spilled = run_exchange(
            data, 2, 2, 2, Mode.MAPREDUCE,
            conf={K.MEMORY_CACHE_BYTES: 0, K.SPL_PARTITION_BYTES: 64},
        )
        assert set(cached) == set(spilled)
        for task_id in cached:
            assert Counter(cached[task_id]) == Counter(spilled[task_id])
            assert [k for k, _ in cached[task_id]] == [
                k for k, _ in spilled[task_id]
            ]
