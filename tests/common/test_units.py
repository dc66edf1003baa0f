"""Tests for byte/time unit helpers."""

import pytest

from repro.common import units


class TestParseBytes:
    def test_plain_int_passthrough(self):
        assert units.parse_bytes(1234) == 1234

    def test_float_rounds_down(self):
        assert units.parse_bytes(10.9) == 10

    def test_bare_number_string(self):
        assert units.parse_bytes("4096") == 4096

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1KB", units.KiB),
            ("1kb", units.KiB),
            ("256MB", 256 * units.MiB),
            ("256 MB", 256 * units.MiB),
            ("1.5GiB", int(1.5 * units.GiB)),
            ("2g", 2 * units.GiB),
            ("1TB", units.TiB),
            ("7b", 7),
        ],
    )
    def test_suffixes(self, text, expected):
        assert units.parse_bytes(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            units.parse_bytes("a lot")

    def test_rejects_unknown_suffix(self):
        with pytest.raises(ValueError):
            units.parse_bytes("12 parsecs")


class TestFormatDuration:
    def test_microseconds(self):
        assert units.format_duration(5e-6) == "5.0 us"

    def test_milliseconds(self):
        assert units.format_duration(0.0123) == "12.30 ms"

    def test_seconds(self):
        assert units.format_duration(31.25) == "31.2 s"

    def test_minutes(self):
        assert units.format_duration(312) == "5m12.0s"

    def test_hours(self):
        assert units.format_duration(3 * 3600 + 62) == "3h01m"

    def test_negative(self):
        assert units.format_duration(-10).startswith("-")


def test_gbps_conversion():
    # a 16 Gbps InfiniBand link moves 2e9 bytes/s
    assert units.gbps_to_bytes_per_sec(16) == pytest.approx(2e9)
