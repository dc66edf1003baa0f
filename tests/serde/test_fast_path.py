"""The Writable field fast path is byte-identical to ``serialize`` and
value- and type-identical to ``deserialize`` (Hypothesis; no thread, no sleep).

``WritableSerializer.encode_field`` / ``decode_field`` handle exact ``str``
(UTF-8 up to 125 bytes), ``int`` (64-bit, not ``bool``), ``float`` and
``bytes`` inline and hand everything else to the generic base methods; a
batch either side writes is therefore one the other side reads — spills,
checkpoints and wire frames do not change format.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.serde.batch import RecordBatch, batch_from_pairs
from repro.serde.io import DataInput, DataOutput, append_vint
from repro.serde.serialization import Serializer, get_serializer
from repro.serde.writable import IntWritable, Text

SER = get_serializer("writable")


class _Str(str):
    pass


class _Int(int):
    pass


def _vlong_edges():
    """Both sides of every vlong length boundary, and the 64-bit limits."""
    edges = {-113, -112, -1, 0, 127, 128, -(2**63), 2**63 - 1, -(2**63) - 1, 2**63}
    for bits in range(8, 64, 8):
        for edge in (2**bits, -(2**bits)):
            edges.update((edge - 1, edge, edge + 1))
    return sorted(edges)


def _utf8_of_length(n):
    """ASCII / two-byte / three-byte strings of exactly ``n`` UTF-8 bytes."""
    yield "a" * n
    yield "é" * (n // 2) + "a" * (n % 2)
    yield "€" * (n // 3) + "a" * (n % 3)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=60),
    st.text(alphabet="aé€𝄞", min_size=30, max_size=140),
    st.sampled_from([s for n in (0, 125, 126, 40_000) for s in _utf8_of_length(n)]),
    st.integers(),
    st.sampled_from(_vlong_edges()),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf"), float("-inf")]),
    st.binary(max_size=200),
    st.sampled_from([b"", b"x" * 125, b"x" * 126, bytearray(b"ba")]),
    st.builds(Text, st.text(max_size=20)),
    st.builds(IntWritable, st.integers(-(2**31), 2**31 - 1)),
    st.builds(_Str, st.text(max_size=10)),
    st.builds(_Int, st.integers(-300, 300)),
)
objects = st.one_of(
    _leaves, st.tuples(_leaves, _leaves), st.lists(_leaves, max_size=3)
)


def generic_field(obj, serializer=SER) -> bytes:
    """The reference: vint(len) + ``serialize`` bytes."""
    out = DataOutput()
    serializer.serialize(obj, out)
    field = bytearray()
    append_vint(field, len(out))
    return bytes(field + out.getbuffer())


def same(a, b) -> bool:
    """Equal in value and in exact type, all the way down; floats by bits
    (NaN equals itself here, 0.0 does not equal -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


@settings(max_examples=400, deadline=None)
@given(objects)
def test_fast_field_equals_generic_field(obj):
    buf = bytearray()
    SER.encode_field(obj, buf, DataOutput())
    field = generic_field(obj)
    assert bytes(buf) == field

    start = len(field) - len(SER.dumps(obj))  # past the length prefix
    reference = SER.loads(field[start:])
    decoded = SER.decode_field(field, start, len(field), DataInput(field))
    assert same(decoded, reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(objects, objects), max_size=12))
def test_batches_are_byte_identical_and_read_back_from_any_buffer(pairs):
    batch = batch_from_pairs(pairs, SER)
    assert batch.data == b"".join(generic_field(k) + generic_field(v) for k, v in pairs)
    reference = [(SER.loads(SER.dumps(k)), SER.loads(SER.dumps(v))) for k, v in pairs]
    for data in (batch.data, memoryview(batch.data), memoryview(bytearray(batch.data))):
        decoded = list(RecordBatch(data, batch.count).iter_pairs(SER))
        assert len(decoded) == len(reference)
        assert all(same(got, want) for got, want in zip(decoded, reference))
    keys, records = batch.key_index(SER)
    assert all(same(got, want[0]) for got, want in zip(keys, reference))
    assert b"".join(records) == batch.data


@pytest.mark.parametrize("name", ["pickle"])
def test_pickle_serializer_takes_the_base_loops(name):
    serializer = get_serializer(name)
    assert type(serializer).encode_field is Serializer.encode_field
    assert type(serializer).decode_field is Serializer.decode_field
    pairs = [("k", 1), (("t", 2.5), [b"x", None]), (10**30, -0.0)]
    batch = batch_from_pairs(pairs, serializer)
    assert batch.data == b"".join(
        generic_field(k, serializer) + generic_field(v, serializer) for k, v in pairs
    )
    assert list(batch.iter_pairs(serializer)) == pairs
