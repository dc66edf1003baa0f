"""Binary stream primitives modelled on ``java.io.DataOutput/DataInput``.

Hadoop's Writable protocol is defined in terms of these streams; keeping
an explicit implementation lets the mini-Hadoop engine, the DataMPI
buffers and the checkpoint files all share one wire format, and lets raw
comparators operate on serialized bytes without deserializing.
"""

from __future__ import annotations

import struct

from repro.common.errors import SerializationError

_INT = struct.Struct(">i")
_LONG = struct.Struct(">q")
_FLOAT = struct.Struct(">f")
_DOUBLE = struct.Struct(">d")


class DataOutput:
    """A growable big-endian binary output buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def getbuffer(self) -> bytearray:
        """The internal buffer, borrowed — valid only until the next write.

        Lets callers append the accumulated bytes elsewhere (e.g. a record
        batch under construction) without the copy ``getvalue`` makes.
        """
        return self._buf

    def reset(self) -> None:
        self._buf.clear()

    # -- primitive writers -------------------------------------------------
    def write_bytes(self, data: bytes | bytearray | memoryview) -> None:
        self._buf += data

    def write_byte(self, v: int) -> None:
        self._buf.append(v & 0xFF)

    def write_boolean(self, v: bool) -> None:
        self._buf.append(1 if v else 0)

    def write_int(self, v: int) -> None:
        self._buf += _INT.pack(v)

    def write_long(self, v: int) -> None:
        self._buf += _LONG.pack(v)

    def write_float(self, v: float) -> None:
        self._buf += _FLOAT.pack(v)

    def write_double(self, v: float) -> None:
        self._buf += _DOUBLE.pack(v)

    def write_vint(self, v: int) -> None:
        """Hadoop-style zig-zag-free variable-length integer.

        Small non-negative ints dominate shuffle metadata (lengths,
        partition ids); this encodes 0..127 in one byte like Hadoop's
        ``WritableUtils.writeVInt``.
        """
        write_vlong(self, v)

    def write_vlong(self, v: int) -> None:
        write_vlong(self, v)

    def write_utf(self, s: str) -> None:
        """Length-prefixed UTF-8 string (vint length + bytes)."""
        data = s.encode("utf-8")
        self.write_vint(len(data))
        self.write_bytes(data)


def write_vlong(out: DataOutput, value: int) -> None:
    """Encode a signed long using Hadoop's variable-length format.

    The format carries at most 64 bits; Python ints beyond that must use
    a different encoding (the Writable serializer's big-int tag), so out
    of range is an error here rather than silent corruption.
    """
    if not -(2**63) <= value < 2**63:
        raise SerializationError(f"vlong out of 64-bit range: {value}")
    if -112 <= value <= 127:
        out.write_byte(value)
        return
    length = -112
    if value < 0:
        value = ~value
        length = -120
    tmp = value
    while tmp != 0:
        tmp >>= 8
        length -= 1
    out.write_byte(length)
    n_bytes = -(length + 112) if length >= -120 else -(length + 120)
    for idx in range(n_bytes - 1, -1, -1):
        out.write_byte((value >> (8 * idx)) & 0xFF)


def append_vint(buf: bytearray, value: int) -> None:
    """Append a vint to a bare buffer; single byte for 0..127 (the hot case)."""
    if 0 <= value <= 127:
        buf.append(value)
        return
    out = DataOutput()
    write_vlong(out, value)
    buf += out.getbuffer()


class DataInput:
    """A big-endian binary reader over a bytes-like object."""

    __slots__ = ("_view", "_pos")

    def __init__(self, data: bytes | bytearray | memoryview, pos: int = 0) -> None:
        self._view = memoryview(data)
        self._pos = pos

    @property
    def position(self) -> int:
        return self._pos

    def seek(self, pos: int) -> None:
        """Reposition within the underlying buffer (random access)."""
        if not 0 <= pos <= len(self._view):
            raise SerializationError(f"seek out of range: {pos}")
        self._pos = pos

    def remaining(self) -> int:
        return len(self._view) - self._pos

    def _take(self, n: int) -> memoryview:
        if self._pos + n > len(self._view):
            raise SerializationError(
                f"stream underflow: need {n} bytes, have {self.remaining()}"
            )
        chunk = self._view[self._pos : self._pos + n]
        self._pos += n
        return chunk

    # -- primitive readers -------------------------------------------------
    def read_bytes(self, n: int) -> bytes:
        return bytes(self._take(n))

    def read_byte(self) -> int:
        return self._take(1)[0]

    def read_signed_byte(self) -> int:
        b = self._take(1)[0]
        return b - 256 if b > 127 else b

    def read_boolean(self) -> bool:
        return self._take(1)[0] != 0

    def read_int(self) -> int:
        return _INT.unpack(self._take(4))[0]

    def read_long(self) -> int:
        return _LONG.unpack(self._take(8))[0]

    def read_float(self) -> float:
        return _FLOAT.unpack(self._take(4))[0]

    def read_double(self) -> float:
        return _DOUBLE.unpack(self._take(8))[0]

    def read_vint(self) -> int:
        return self.read_vlong()

    def read_vlong(self) -> int:
        first = self.read_signed_byte()
        if first >= -112:
            return first
        negative = first < -120
        n_bytes = -(first + 120) if negative else -(first + 112)
        value = 0
        for _ in range(n_bytes):
            value = (value << 8) | self.read_byte()
        return ~value if negative else value

    def read_utf(self) -> str:
        n = self.read_vint()
        return self.read_bytes(n).decode("utf-8")

