"""Pluggable serializer framework.

§III-A: "the implementations can choose their preferred approaches to
handle serialization issues."  Two backends are provided:

* :class:`WritableSerializer` — Hadoop's Writable wire protocol plus
  native encodings for Python ``str``/``int``/``float``/``bytes``/``bool``
  and ``tuple``/``list`` of those, so the paper's Listing 1 (String keys)
  works without wrapping everything in Writables.
* :class:`PickleSerializer` — the "Java Serializable" analogue: anything
  picklable round-trips, at a higher per-record byte cost.
"""

from __future__ import annotations

import importlib
import pickle
import struct
from abc import ABC, abstractmethod
from typing import Any

from repro.common.errors import SerializationError
from repro.serde.io import _DOUBLE, DataInput, DataOutput, append_vint
from repro.serde.writable import (
    BooleanWritable,
    BytesWritable,
    DoubleWritable,
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    VIntWritable,
    Writable,
)

# Tags for the writable backend's self-describing encoding.  One tag byte
# per value keeps records compact while allowing heterogeneous streams.
_T_NONE = 0
_T_STR = 1
_T_INT = 2
_T_FLOAT = 3
_T_BYTES = 4
_T_BOOL = 5
_T_TUPLE = 6
_T_LIST = 7
_T_WRITABLE = 8
_T_PICKLE = 9
_T_BIGINT = 10  # Python ints beyond the 64-bit vlong range
_T_WRITABLE_NAMED = 11  # non-built-in writable: dotted class name + payload

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: fixed wire ids for the built-in writables.  The table (order included)
#: is part of the wire format: record batches are encoded on the sending
#: process and decoded on the receiving one, so ids must mean the same
#: class in every interpreter — never reorder, only append.
_BUILTIN_WRITABLES: tuple[type, ...] = (
    Text,
    IntWritable,
    VIntWritable,
    LongWritable,
    FloatWritable,
    DoubleWritable,
    BooleanWritable,
    BytesWritable,
    NullWritable,
)
_BUILTIN_WRITABLE_IDS = {cls: i for i, cls in enumerate(_BUILTIN_WRITABLES)}

# Whole record-batch fields (vint(len) + tag + encoding), byte for byte what
# ``serialize`` writes: the head of a str of up to 125 UTF-8 bytes by that
# length, a one-byte vlong by value + 112, any float.
_STR_HEADS = [bytes((n + 2, _T_STR, n)) for n in range(126)]
_SMALL_INTS = [bytes((2, _T_INT, v & 0xFF)) for v in range(-112, 128)]
_FLOAT_FIELD = struct.Struct(">BBd").pack
_DOUBLE_AT = _DOUBLE.unpack_from


class Serializer(ABC):
    """Encodes/decodes single values onto Data streams."""

    name: str = "abstract"

    @abstractmethod
    def serialize(self, value: Any, out: DataOutput) -> None:
        """Append ``value`` to ``out``."""

    @abstractmethod
    def deserialize(self, src: DataInput) -> Any:
        """Read one value from ``src``."""

    # -- convenience -------------------------------------------------------
    def dumps(self, value: Any) -> bytes:
        out = DataOutput()
        self.serialize(value, out)
        return out.getvalue()

    def loads(self, data: bytes) -> Any:
        return self.deserialize(DataInput(data))

    def serialize_kv(self, key: Any, value: Any, out: DataOutput) -> None:
        self.serialize(key, out)
        self.serialize(value, out)

    def deserialize_kv(self, src: DataInput) -> tuple[Any, Any]:
        return self.deserialize(src), self.deserialize(src)

    # -- record-batch fields (serde.batch frames two per record) -------------
    def encode_field(self, obj: Any, buf: bytearray, scratch: DataOutput) -> None:
        """Append ``obj`` as one field: ``vint(len)`` + its :meth:`serialize`
        bytes, staged in the caller's ``scratch``.  An override writes
        exactly these bytes, faster."""
        scratch.reset()
        self.serialize(obj, scratch)
        append_vint(buf, len(scratch))
        buf += scratch.getbuffer()

    def decode_field(self, buf: bytes, pos: int, end: int, src: DataInput) -> Any:
        """The object :meth:`deserialize` reads from ``buf[pos:end]``;
        ``src`` is the caller's reader over ``buf``."""
        src.seek(pos)
        return self.deserialize(src)


def _pickled(value: Any) -> bytes:
    """``pickle.dumps``, refusing what it cannot take as every other
    unencodable object is refused."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"cannot serialize a {type(value).__name__}: {exc}"
        ) from exc


class WritableSerializer(Serializer):
    """Self-describing Writable-protocol serializer."""

    name = "writable"

    def __init__(self) -> None:
        # decode-side cache of dotted name -> class for custom writables
        self._named_cache: dict[str, type] = {}

    def _resolve_writable(self, name: str) -> type:
        cls = self._named_cache.get(name)
        if cls is not None:
            return cls
        module_name, _, qualname = name.rpartition(".")
        try:
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except Exception:
            raise SerializationError(
                f"cannot resolve writable class {name!r}; custom writables "
                "must be importable module-level classes"
            ) from None
        if not (isinstance(obj, type) and issubclass(obj, Writable)):
            raise SerializationError(f"{name!r} is not a Writable class")
        self._named_cache[name] = obj
        return obj

    def serialize(self, value: Any, out: DataOutput) -> None:
        if value is None:
            out.write_byte(_T_NONE)
        elif isinstance(value, bool):  # before int: bool is an int subtype
            out.write_byte(_T_BOOL)
            out.write_boolean(value)
        elif isinstance(value, str):
            out.write_byte(_T_STR)
            out.write_utf(value)
        elif isinstance(value, int):
            if _INT64_MIN <= value <= _INT64_MAX:
                out.write_byte(_T_INT)
                out.write_vlong(value)
            else:
                # arbitrary-precision escape: sign-magnitude byte string
                out.write_byte(_T_BIGINT)
                magnitude = abs(value)
                raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
                out.write_boolean(value < 0)
                out.write_vint(len(raw))
                out.write_bytes(raw)
        elif isinstance(value, float):
            out.write_byte(_T_FLOAT)
            out.write_double(value)
        elif isinstance(value, (bytes, bytearray)):
            out.write_byte(_T_BYTES)
            out.write_vint(len(value))
            out.write_bytes(value)
        elif isinstance(value, tuple):
            out.write_byte(_T_TUPLE)
            out.write_vint(len(value))
            for item in value:
                self.serialize(item, out)
        elif isinstance(value, list):
            out.write_byte(_T_LIST)
            out.write_vint(len(value))
            for item in value:
                self.serialize(item, out)
        elif isinstance(value, Writable):
            cls = type(value)
            builtin = _BUILTIN_WRITABLE_IDS.get(cls)
            if builtin is not None:
                out.write_byte(_T_WRITABLE)
                out.write_vint(builtin)
            else:
                out.write_byte(_T_WRITABLE_NAMED)
                out.write_utf(f"{cls.__module__}.{cls.__qualname__}")
            value.write(out)
        else:
            # escape hatch mirroring Hadoop's JavaSerialization fallback
            out.write_byte(_T_PICKLE)
            blob = _pickled(value)
            out.write_vint(len(blob))
            out.write_bytes(blob)

    def deserialize(self, src: DataInput) -> Any:
        tag = src.read_byte()
        if tag == _T_NONE:
            return None
        if tag == _T_BOOL:
            return src.read_boolean()
        if tag == _T_STR:
            return src.read_utf()
        if tag == _T_INT:
            return src.read_vlong()
        if tag == _T_FLOAT:
            return src.read_double()
        if tag == _T_BYTES:
            return src.read_bytes(src.read_vint())
        if tag == _T_TUPLE:
            n = src.read_vint()
            return tuple(self.deserialize(src) for _ in range(n))
        if tag == _T_LIST:
            n = src.read_vint()
            return [self.deserialize(src) for _ in range(n)]
        if tag == _T_WRITABLE:
            cls_id = src.read_vint()
            try:
                cls = _BUILTIN_WRITABLES[cls_id]
            except IndexError:
                raise SerializationError(
                    f"unknown writable class id {cls_id}"
                ) from None
            return cls.read(src)
        if tag == _T_WRITABLE_NAMED:
            return self._resolve_writable(src.read_utf()).read(src)
        if tag == _T_PICKLE:
            blob = src.read_bytes(src.read_vint())
            return pickle.loads(blob)
        if tag == _T_BIGINT:
            negative = src.read_boolean()
            raw = src.read_bytes(src.read_vint())
            magnitude = int.from_bytes(raw, "big")
            return -magnitude if negative else magnitude
        raise SerializationError(f"corrupt stream: unknown tag {tag}")

    def encode_field(self, obj: Any, buf: bytearray, scratch: DataOutput) -> None:
        # exact types only: bool, subclasses, long strings, big ints and
        # everything else take the generic field, same bytes
        kind = type(obj)
        if kind is str:
            data = obj.encode()
            if len(data) <= 125:
                buf += _STR_HEADS[len(data)]
                buf += data
                return
        elif kind is float:
            buf += _FLOAT_FIELD(9, _T_FLOAT, obj)
            return
        elif kind is int:
            if -112 <= obj <= 127:
                buf += _SMALL_INTS[obj + 112]
                return
            if _INT64_MIN <= obj <= _INT64_MAX:
                # multi-byte vlong: marker (sign, byte count), magnitude
                magnitude = ~obj if obj < 0 else obj
                n = (magnitude.bit_length() + 7) >> 3
                buf += bytes((n + 2, _T_INT, (136 if obj < 0 else 144) - n))
                buf += magnitude.to_bytes(n, "big")
                return
        elif kind is bytes and len(obj) <= 125:
            buf += bytes((len(obj) + 2, _T_BYTES, len(obj)))
            buf += obj
            return
        super().encode_field(obj, buf, scratch)

    def decode_field(self, buf: bytes, pos: int, end: int, src: DataInput) -> Any:
        # a field of up to 127 bytes has one-byte inner lengths
        tag = buf[pos]
        if tag == _T_STR and end - pos <= 127:
            return buf[pos + 2 : end].decode()
        if tag == _T_FLOAT:
            return _DOUBLE_AT(buf, pos + 1)[0]
        if tag == _T_INT:
            marker = buf[pos + 1]
            if end - pos == 2:
                return marker - 256 if marker > 127 else marker
            magnitude = int.from_bytes(buf[pos + 2 : end], "big")
            return ~magnitude if marker < 136 else magnitude
        if tag == _T_BYTES and end - pos <= 127:
            return buf[pos + 2 : end]
        return super().decode_field(buf, pos, end, src)


class PickleSerializer(Serializer):
    """Pickle everything — the Java ``Serializable`` analogue."""

    name = "pickle"

    def serialize(self, value: Any, out: DataOutput) -> None:
        blob = _pickled(value)
        out.write_vint(len(blob))
        out.write_bytes(blob)

    def deserialize(self, src: DataInput) -> Any:
        n = src.read_vint()
        return pickle.loads(src.read_bytes(n))


_BACKENDS = {
    "writable": WritableSerializer,
    "pickle": PickleSerializer,
}


def get_serializer(name: str = "writable") -> Serializer:
    """Instantiate a serializer backend by name."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise SerializationError(
            f"unknown serializer {name!r}; expected one of {sorted(_BACKENDS)}"
        ) from None
