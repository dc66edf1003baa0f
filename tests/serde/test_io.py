"""Tests for the DataOutput/DataInput binary streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.serde.io import DataInput, DataOutput


class TestFixedWidth:
    def test_int_roundtrip(self):
        out = DataOutput()
        out.write_int(-123456)
        assert DataInput(out.getvalue()).read_int() == -123456

    def test_long_roundtrip(self):
        out = DataOutput()
        out.write_long(2**40)
        assert DataInput(out.getvalue()).read_long() == 2**40

    def test_double_roundtrip(self):
        out = DataOutput()
        out.write_double(3.14159)
        assert DataInput(out.getvalue()).read_double() == 3.14159

    def test_float_loses_precision_gracefully(self):
        out = DataOutput()
        out.write_float(1.5)  # representable exactly
        assert DataInput(out.getvalue()).read_float() == 1.5

    def test_boolean(self):
        out = DataOutput()
        out.write_boolean(True)
        out.write_boolean(False)
        src = DataInput(out.getvalue())
        assert src.read_boolean() is True
        assert src.read_boolean() is False

    def test_big_endian_layout(self):
        out = DataOutput()
        out.write_int(1)
        assert out.getvalue() == b"\x00\x00\x00\x01"


class TestVarInts:
    @pytest.mark.parametrize("v", [0, 1, -1, 127, -112, 128, 255, 2**31, -(2**40)])
    def test_vlong_roundtrip(self, v):
        out = DataOutput()
        out.write_vlong(v)
        assert DataInput(out.getvalue()).read_vlong() == v

    def test_small_values_one_byte(self):
        out = DataOutput()
        out.write_vint(100)
        assert len(out) == 1

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_vlong_roundtrip_property(self, v):
        out = DataOutput()
        out.write_vlong(v)
        src = DataInput(out.getvalue())
        assert src.read_vlong() == v
        assert src.remaining() == 0


class TestStringsAndBytes:
    def test_utf_roundtrip(self):
        out = DataOutput()
        out.write_utf("héllo, wörld")
        assert DataInput(out.getvalue()).read_utf() == "héllo, wörld"

    def test_empty_string(self):
        out = DataOutput()
        out.write_utf("")
        assert DataInput(out.getvalue()).read_utf() == ""

    @given(st.text())
    def test_utf_property(self, s):
        out = DataOutput()
        out.write_utf(s)
        assert DataInput(out.getvalue()).read_utf() == s

    def test_bytes_passthrough(self):
        out = DataOutput()
        out.write_bytes(b"abc")
        src = DataInput(out.getvalue())
        assert src.read_bytes(3) == b"abc"


class TestStreamState:
    def test_position_and_remaining(self):
        src = DataInput(b"\x00" * 10)
        assert src.remaining() == 10
        src.read_bytes(4)
        assert src.position == 4
        assert src.remaining() == 6

    def test_underflow_raises(self):
        src = DataInput(b"\x00\x01")
        with pytest.raises(SerializationError):
            src.read_int()

    def test_reset_output(self):
        out = DataOutput()
        out.write_int(5)
        out.reset()
        assert len(out) == 0

    def test_mixed_sequence(self):
        out = DataOutput()
        out.write_utf("key")
        out.write_vint(42)
        out.write_double(2.5)
        src = DataInput(out.getvalue())
        assert (src.read_utf(), src.read_vint(), src.read_double()) == (
            "key",
            42,
            2.5,
        )
        assert src.remaining() == 0

