"""Tests for key-value records and statistics helpers."""

import pytest

from repro.common.records import _size_of
from repro.common.stats import (
    TimeSeries,
    histogram,
    percentile,
    summarize,
)


def kv_bytes(key, value):
    """A pair's size estimate, as a combined SPL partition counts it."""
    return _size_of(key) + _size_of(value)


class TestKvBytes:
    def test_strings_use_length(self):
        assert kv_bytes("ab", "xyz") == (2 + 4) + (3 + 4)

    def test_bytes_use_length(self):
        assert kv_bytes(b"0123456789", b"x" * 90) == 14 + 94

    def test_numbers_fixed_cost(self):
        assert kv_bytes(1, 2.0) == 16

    def test_none_and_containers(self):
        assert kv_bytes(None, [1, 2]) == 1 + (4 + 16)

    def test_monotone_in_payload(self):
        assert kv_bytes("k", "v" * 100) > kv_bytes("k", "v")


class TestHistogramPercentile:
    def test_percentile(self):
        assert percentile(list(range(101)), 95) == pytest.approx(95)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_histogram_ratios_sum_to_one(self):
        data = [0.5, 1.5, 1.6, 2.5, 3.1]
        bins = histogram(data, edges=[0, 1, 2, 3, 4])
        assert sum(ratio for _, _, ratio in bins) == pytest.approx(1.0)
        assert bins[1][2] == pytest.approx(2 / 5)


class TestTimeSeries:
    def test_append_and_mean(self):
        ts = TimeSeries("cpu")
        for t, v in [(0, 10), (1, 20), (2, 30)]:
            ts.add(t, v)
        assert len(ts) == 3
        assert ts.mean() == pytest.approx(20)

    def test_windowed_mean(self):
        ts = TimeSeries()
        for t in range(10):
            ts.add(t, 100 if t < 5 else 0)
        assert ts.mean(0, 4) == pytest.approx(100)
        assert ts.mean(5, 9) == pytest.approx(0)

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.add(1.0, 0)
        with pytest.raises(ValueError):
            ts.add(0.5, 0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().mean()

    def test_integral(self):
        ts = TimeSeries()
        ts.add(0, 10)
        ts.add(2, 10)
        ts.add(4, 0)
        assert ts.integral() == pytest.approx(10 * 2 + 10 * 2)

    def test_max(self):
        ts = TimeSeries()
        ts.add(0, 1)
        ts.add(1, 5)
        assert ts.max() == 5


def test_summarize():
    summary = summarize([1, 2, 3, 4, 5])
    assert summary["min"] == 1 and summary["max"] == 5
    assert summary["mean"] == pytest.approx(3)
    with pytest.raises(ValueError):
        summarize([])
