"""Tests for partitioners and the Partition Window (Figure 6 cases)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import DataMPIError
from repro.core.partition import (
    PartitionWindow,
    hash_partitioner,
    range_partitioner,
    validate_destination,
)
from repro.serde.writable import Text


class TestHashPartitioner:
    def test_deterministic(self):
        assert hash_partitioner("key", None, 7) == hash_partitioner("key", None, 7)

    def test_in_range(self):
        for key in ["a", b"b", 3, 4.5, ("t", 1), None.__class__]:
            assert 0 <= hash_partitioner(key, None, 5) < 5

    @given(st.text(max_size=30), st.integers(min_value=1, max_value=64))
    def test_in_range_property(self, key, n):
        assert 0 <= hash_partitioner(key, None, n) < n

    def test_spreads_keys(self):
        dests = {hash_partitioner(f"key-{i}", None, 8) for i in range(200)}
        assert len(dests) == 8  # all partitions get traffic

    def test_str_and_bytes_agree(self):
        # a str key and its utf-8 bytes must land identically so mixed
        # pipelines (HDFS bytes vs decoded strings) partition consistently
        assert hash_partitioner("word", None, 13) == hash_partitioner(
            b"word", None, 13
        )

    def test_writable_keys_supported(self):
        d = hash_partitioner(Text("x"), None, 4)
        assert 0 <= d < 4
        assert d == hash_partitioner(Text("x"), None, 4)

    def test_int_keys_identity_like(self):
        assert hash_partitioner(10, None, 4) == 10 % 4

    def test_bool_is_stable(self):
        assert hash_partitioner(True, None, 2) == 1


class TestRangePartitioner:
    def test_three_way_split(self):
        part = range_partitioner(["g", "p"])
        assert part("a", None, 3) == 0
        assert part("g", None, 3) == 0  # <= boundary goes left
        assert part("h", None, 3) == 1
        assert part("z", None, 3) == 2

    def test_boundary_count_validated(self):
        part = range_partitioner(["m"])
        with pytest.raises(DataMPIError):
            part("a", None, 3)

    @given(st.lists(st.integers(), min_size=10, max_size=50))
    def test_respects_total_order(self, keys):
        """Keys in lower partitions never exceed keys in higher ones."""
        cuts = [0, 100]
        part = range_partitioner(cuts)
        buckets = {0: [], 1: [], 2: []}
        for k in keys:
            buckets[part(k, None, 3)].append(k)
        if buckets[0] and buckets[1]:
            assert max(buckets[0]) <= min(buckets[1])
        if buckets[1] and buckets[2]:
            assert max(buckets[1]) <= min(buckets[2])

    def test_validate_destination(self):
        assert validate_destination(2, 3) == 2
        with pytest.raises(DataMPIError):
            validate_destination(3, 3)
        with pytest.raises(DataMPIError):
            validate_destination(-1, 3)


class TestPartitionWindow:
    """The three Figure 6 cases."""

    def test_numo_greater_than_numa(self):
        # 5 processes, 3 A partitions: only processes 0..2 receive data
        window = PartitionWindow(num_partitions=3, num_processes=5)
        assert [window.owner(p) for p in range(3)] == [0, 1, 2]
        assert window.owned_by(3) == [] and window.owned_by(4) == []

    def test_numo_equals_numa(self):
        window = PartitionWindow(num_partitions=4, num_processes=4)
        assert [window.owner(p) for p in range(4)] == [0, 1, 2, 3]
        assert all(window.owned_by(p) == [p] for p in range(4))

    def test_numo_less_than_numa(self):
        # 2 processes, 5 A partitions: waves on each process
        window = PartitionWindow(num_partitions=5, num_processes=2)
        assert window.owned_by(0) == [0, 2, 4]
        assert window.owned_by(1) == [1, 3]

    def test_ownership_is_a_partition_of_tasks(self):
        window = PartitionWindow(num_partitions=11, num_processes=3)
        seen = sorted(t for p in range(3) for t in window.owned_by(p))
        assert seen == list(range(11))

    def test_owner_consistent_with_owned_by(self):
        window = PartitionWindow(num_partitions=9, num_processes=4)
        for p in range(9):
            assert p in window.owned_by(window.owner(p))

    def test_out_of_range_partition(self):
        window = PartitionWindow(3, 2)
        with pytest.raises(DataMPIError):
            window.owner(3)

    def test_degenerate_rejected(self):
        with pytest.raises(DataMPIError):
            PartitionWindow(0, 1)
        with pytest.raises(DataMPIError):
            PartitionWindow(1, 0)
