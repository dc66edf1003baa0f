"""Tests for the pluggable serializer backends."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.serde.io import DataInput, DataOutput
from repro.serde.serialization import (
    PickleSerializer,
    WritableSerializer,
    get_serializer,
)
from repro.serde.writable import IntWritable, Text

SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**62,
    3.5,
    "string",
    "ünïcode",
    b"\x00bytes",
    (1, "a", 2.0),
    [1, 2, 3],
    ("nested", (1, [2, {"d": 1}])),
]


@pytest.fixture(params=["writable", "pickle"])
def serializer(request):
    return get_serializer(request.param)


class TestRoundTrip:
    @pytest.mark.parametrize("value", SAMPLES)
    def test_roundtrip(self, serializer, value):
        assert serializer.loads(serializer.dumps(value)) == value

    def test_kv_roundtrip(self, serializer):
        out = DataOutput()
        serializer.serialize_kv("key", [1, 2], out)
        k, v = serializer.deserialize_kv(DataInput(out.getvalue()))
        assert (k, v) == ("key", [1, 2])

    def test_stream_of_values(self, serializer):
        out = DataOutput()
        for value in SAMPLES:
            serializer.serialize(value, out)
        src = DataInput(out.getvalue())
        assert [serializer.deserialize(src) for _ in SAMPLES] == SAMPLES
        assert src.remaining() == 0


simple = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)
nested = st.recursive(
    simple,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children),
    max_leaves=10,
)


class TestPropertyRoundTrip:
    @given(nested)
    def test_writable_backend(self, value):
        s = WritableSerializer()
        assert s.loads(s.dumps(value)) == value

    @given(nested)
    def test_pickle_backend(self, value):
        s = PickleSerializer()
        assert s.loads(s.dumps(value)) == value


class TestWritableBackendSpecifics:
    def test_writable_objects_roundtrip(self):
        s = WritableSerializer()
        blob = s.dumps(Text("abc"))
        assert s.loads(blob) == Text("abc")

    def test_mixed_writable_classes(self):
        s = WritableSerializer()
        out = DataOutput()
        s.serialize(Text("x"), out)
        s.serialize(IntWritable(5), out)
        src = DataInput(out.getvalue())
        assert s.deserialize(src) == Text("x")
        assert s.deserialize(src) == IntWritable(5)

    def test_bool_not_confused_with_int(self):
        s = WritableSerializer()
        assert s.loads(s.dumps(True)) is True
        assert s.loads(s.dumps(1)) == 1
        assert type(s.loads(s.dumps(1))) is int

    def test_fallback_pickles_unknown_types(self):
        s = WritableSerializer()
        value = {"a": {1, 2}}
        assert s.loads(s.dumps(value)) == value

    def test_compactness_vs_pickle(self):
        # the writable wire format should be much tighter for small records
        w, p = WritableSerializer(), PickleSerializer()
        assert len(w.dumps("word")) < len(p.dumps("word"))

    def test_corrupt_tag_raises(self):
        s = WritableSerializer()
        with pytest.raises(SerializationError):
            s.loads(b"\xfe")

    @pytest.mark.parametrize(
        "value",
        [2**63, -(2**63) - 1, 2**200, -(2**200), 127 * 2**64, 2**63 - 1,
         -(2**63)],
    )
    def test_bigint_boundary_roundtrip(self, value):
        """Regression: ints beyond 64 bits used to corrupt through vlong
        (found by the engine exchange property test)."""
        s = WritableSerializer()
        assert s.loads(s.dumps(value)) == value

    @given(st.integers())
    def test_unbounded_int_property(self, value):
        s = WritableSerializer()
        assert s.loads(s.dumps(value)) == value

    def test_vlong_range_guard(self):
        from repro.serde.io import DataOutput

        with pytest.raises(SerializationError):
            DataOutput().write_vlong(2**63)


def test_unknown_backend_raises():
    with pytest.raises(SerializationError):
        get_serializer("capnproto")


def test_the_java_alias_is_gone():
    """``"pickle"`` is the one name of the pickle backend; a bad name is
    refused with the valid ones."""
    with pytest.raises(SerializationError) as info:
        get_serializer("java")
    assert "pickle" in str(info.value) and "writable" in str(info.value)
