"""Tests for comparators and the KEY_CLASS/VALUE_CLASS registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.serde.comparators import (
    bytes_compare,
    default_compare,
    reverse,
    sort_key,
)
from repro.serde.registry import register_type, resolve_type
from repro.serde.writable import IntWritable, Text


class TestDefaultCompare:
    def test_numbers(self):
        assert default_compare(1, 2) < 0
        assert default_compare(2, 1) > 0
        assert default_compare(2, 2) == 0

    def test_strings(self):
        assert default_compare("a", "b") < 0

    def test_cross_type_is_total(self):
        # heterogeneous keys get a deterministic order instead of TypeError
        r1 = default_compare(1, "a")
        r2 = default_compare("a", 1)
        assert r1 == -r2 != 0

    @given(st.lists(st.integers(), min_size=2))
    def test_sorted_with_comparator_matches_builtin(self, xs):
        assert sorted(xs, key=sort_key(default_compare)) == sorted(xs)


class TestBytesCompare:
    def test_lexicographic(self):
        assert bytes_compare(b"abc", b"abd") < 0
        assert bytes_compare(b"\xff", b"\x01") > 0
        assert bytes_compare(b"same", b"same") == 0

    def test_prefix_orders_first(self):
        assert bytes_compare(b"ab", b"abc") < 0

    @given(st.lists(st.binary(max_size=12), min_size=2))
    def test_matches_python_bytes_order(self, xs):
        assert sorted(xs, key=sort_key(bytes_compare)) == sorted(xs)


class TestReverseAndComparableKey:
    def test_reverse(self):
        desc = reverse(default_compare)
        assert desc(1, 2) > 0


class TestRegistry:
    def test_resolve_java_names(self):
        assert resolve_type("java.lang.String") is str
        assert resolve_type("java.lang.Integer") is int

    def test_resolve_writables(self):
        assert resolve_type("Text") is Text
        assert resolve_type("org.apache.hadoop.io.IntWritable") is IntWritable

    def test_resolve_passthrough(self):
        assert resolve_type(None) is None
        assert resolve_type(str) is str

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_type("com.example.Unknown")

    def test_register_custom(self):
        class MyKey:
            pass

        register_type("tests.MyKey", MyKey)
        assert resolve_type("tests.MyKey") is MyKey
