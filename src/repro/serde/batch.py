"""Length-prefixed key/value record batches — serialize once, ship bytes.

A :class:`RecordBatch` is one contiguous byte block holding ``count``
records, each framed as::

    vint(klen) key-bytes vint(vlen) value-bytes

With ``raw=False`` the key/value bytes are :class:`Serializer` encodings
(self-describing Writable tags), so a batch can carry any shuffleable
object; the length prefixes let byte-level consumers (merges, spills)
slice and copy records without decoding them.  With
``raw=True`` the key/value bytes are the application's own raw bytes
(TeraSort records): no serializer framing at all, so key slices compare
exactly like the decoded keys under ``bytes_compare`` and a merged batch
can be consumed without materializing a single Python object.

A pair becomes its record bytes exactly once (:func:`framer`, at the
``send`` that emitted it); the sender-side buffer seals them into a batch,
which then travels as an opaque buffer through coalescing, transports and
spill files — zero re-encode, zero per-record pickle on any hop (the
process backend pickles a batch as its bytes, :meth:`RecordBatch.__reduce__`).  The
receive side parses a batch once (:meth:`RecordBatch.key_index`) and
decodes at the user-function boundary.  A raw batch whose records all
frame to one stride (TeraSort's 102 B) is an ``(n, stride)`` array
instead: it sorts, and sheds its framing, as NumPy operations.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.common.errors import SerializationError
from repro.serde.comparators import (
    Compare, bytes_compare, default_compare, sorted_order,
)
from repro.serde.io import DataInput, DataOutput, append_vint as _append_vint
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]


def _read_vint(buf, pos: int) -> tuple[int, int]:
    """Inline Hadoop-vint decode: ``(value, next_pos)``.

    Lengths up to 127 — the overwhelmingly common case for record field
    sizes — are a single unsigned byte, decoded without any method-call
    chain; longer fields fall through to the multi-byte format.
    """
    first = buf[pos]
    pos += 1
    if first <= 127:
        return first, pos
    first -= 256  # signed interpretation of the marker byte
    if first >= -112:
        return first, pos
    negative = first < -120
    n_bytes = -(first + 120) if negative else -(first + 112)
    value = 0
    for _ in range(n_bytes):
        value = (value << 8) | buf[pos]
        pos += 1
    return (~value if negative else value), pos


def whole_records(data: bytes, limit: int) -> tuple[int, int]:
    """``(end, count)`` of the up to ``limit`` whole records at the head of
    ``data`` — framing only; a reader of record-aligned chunks leaves
    ``data[end:]``, the cut-off record, for its next read."""
    end = count = 0
    try:
        while count < limit:
            n, pos = _read_vint(data, end)
            n, pos = _read_vint(data, pos + n)
            if pos + n > len(data):
                break
            end, count = pos + n, count + 1
    except IndexError:
        pass  # the cut fell inside a length prefix
    return end, count


class RecordBatch:
    """An immutable, contiguous block of length-prefixed records.

    ``data`` may be ``bytes`` or a ``memoryview`` (of the array a
    fixed-stride sort built); iteration never copies more than the
    records actually materialized.  ``stride`` is the one record size of
    a raw batch built as ``(n, stride)`` rows, when its builder knew it
    (:func:`_fixed_stride` trusts it); a pickled batch carries none.
    """

    __slots__ = ("data", "count", "raw", "stride")

    def __init__(
        self, data: bytes | memoryview, count: int, raw: bool = False,
        stride: int | None = None,
    ) -> None:
        self.data = data
        self.count = count
        self.raw = raw
        self.stride = stride

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"RecordBatch(count={self.count}, nbytes={len(self.data)}, "
            f"raw={self.raw})"
        )

    def serialized_size(self) -> int:
        return len(self.data)

    def __reduce__(self):
        # the one place a batch becomes wire bytes: the process backend
        # pickles every envelope payload, a batch as its record bytes
        return (RecordBatch, (bytes(self.data), self.count, self.raw))

    # -- iteration --------------------------------------------------------
    def iter_views(self) -> Iterator[tuple[bytes, bytes]]:
        """(key bytes, value bytes) per record — zero decode: a raw
        :meth:`key_index` over the field bytes, whose framing is the same
        with and without ``raw``.

        Only meaningful for ``raw`` batches, where the field bytes *are*
        the application data; for serialized batches they carry the
        serializer framing.
        """
        fields = RecordBatch(self.data, self.count, True)
        keys, value_at = fields.key_index(None, True)
        return zip(keys, map(value_at, range(self.count)))

    def unframed(self) -> bytes | memoryview:
        """Every record's key and value bytes back to back, length prefixes
        dropped: a raw partition as the application wrote it.  A fixed-
        stride batch drops its two length columns in one copy; any other
        joins :meth:`iter_views`."""
        rows = _fixed_stride(self)
        if rows is None:
            return b"".join(chain.from_iterable(self.iter_views()))
        klen = int(rows[0, 0])
        return np.concatenate(
            (rows[:, 1:klen + 1], rows[:, klen + 2:]), axis=1).ravel().data

    def iter_pairs(self, serializer: Serializer) -> Iterator[KV]:
        """Decode records into (key, value) objects, one at a time — the
        user-function boundary.  Raw batches yield ``bytes`` fields."""
        if self.raw:
            yield from self.iter_views()
            return
        buf = self.data if type(self.data) is bytes else bytes(self.data)
        pos = 0
        read, decode, src = _read_vint, serializer.decode_field, DataInput(buf)
        for _ in range(self.count):
            n, pos = read(buf, pos)
            key = decode(buf, pos, pos + n, src)
            n, pos = read(buf, pos + n)
            yield key, decode(buf, pos, pos + n, src)
            pos += n

    def key_index(
        self, serializer: Serializer | None, values: bool = False
    ) -> tuple[list[Any], Any]:
        """``(keys, records)`` columns in batch order: every record's
        decoded key and its whole framed bytes (length prefixes included)
        — sorts order on the keys and copy the records verbatim, value
        bytes stay opaque.  With ``values`` the second column is a getter
        instead, ``value_at(i)``: what a merge that hands out pairs reads
        (raw values are sliced in the same pass; others are decoded when
        asked for, from the bounds the pass noted).

        This is the one per-record parse loop of the datapath, so it
        slices ``bytes`` directly (raw keys never pass through a
        memoryview) and decodes one-byte lengths inline.
        """
        data = self.data if type(self.data) is bytes else bytes(self.data)
        keys: list[Any] = []
        seconds: list[Any] = []
        add_key, add_second = keys.append, seconds.append
        read = _read_vint
        pos = 0
        if self.raw:
            for _ in range(self.count):
                start = pos
                n = data[pos]
                pos += 1
                if n > 127:
                    n, pos = read(data, start)
                end = pos + n
                add_key(data[pos:end])
                n = data[end]
                pos = end + 1
                if n > 127:
                    n, pos = read(data, end)
                if values:
                    start = pos
                pos += n
                add_second(data[start:pos])
            return keys, (seconds.__getitem__ if values else seconds)
        decode, src = serializer.decode_field, DataInput(data)
        for _ in range(self.count):
            start = pos
            n = data[pos]
            pos += 1
            if n > 127:
                n, pos = read(data, start)
            end = pos + n
            add_key(decode(data, pos, end, src))
            n = data[end]
            pos = end + 1
            if n > 127:
                n, pos = read(data, end)
            if values:
                add_second(pos)
            pos += n
            add_second(pos if values else data[start:pos])

        def value_at(i: int) -> Any:
            return decode(data, seconds[2 * i], seconds[2 * i + 1], src)

        return keys, (value_at if values else seconds)


#: the one-byte Hadoop vints: the length prefix of a field of up to 127 B
_VINT1 = [bytes((n,)) for n in range(128)]


def framer(serializer: Serializer | None, raw: bool) -> Callable[[Any, Any], bytes]:
    """``frame(key, value)``: one pair as its record bytes — the only
    writer of the layout, and the single serialization point of the
    datapath.  A pair that cannot be encoded raises there."""
    if raw:
        def frame(key: Any, value: Any) -> bytes:
            try:
                return b"".join((_VINT1[len(key)], key, _VINT1[len(value)], value))
            except (TypeError, IndexError):
                pass  # a field over 127 B — or not bytes-like, found out below
            buf = bytearray()
            try:
                for field in (key, value):
                    _append_vint(buf, len(field))
                    buf += field
            except TypeError:
                raise SerializationError(
                    "raw record batches require bytes-like keys and values; got "
                    f"({type(key).__name__}, {type(value).__name__})"
                ) from None
            return bytes(buf)

        return frame
    if serializer is None:
        raise SerializationError("framing needs a serializer unless it is raw")
    encode, buf, scratch = serializer.encode_field, bytearray(), DataOutput()

    def frame(key: Any, value: Any) -> bytes:
        del buf[:]
        encode(key, buf, scratch)
        encode(value, buf, scratch)
        return bytes(buf)

    return frame


def batch_from_pairs(
    pairs: Iterable[KV], serializer: Serializer | None, raw: bool = False
) -> RecordBatch:
    """Seal an iterable of pairs into one batch."""
    frame = framer(serializer, raw)
    records = [frame(key, value) for key, value in pairs]
    return RecordBatch(b"".join(records), len(records), raw)


def concat_batches(batches: list[RecordBatch]) -> RecordBatch:
    """Byte-concatenate batches (unsorted stores): no per-record work."""
    if not batches:
        return RecordBatch(b"", 0)
    if len(batches) == 1:
        return batches[0]
    raw, stride = batches[0].raw, batches[0].stride
    if any(batch.raw is not raw for batch in batches):
        raise SerializationError("cannot concatenate raw and serialized batches")
    if any(batch.stride != stride for batch in batches):
        stride = None
    return RecordBatch(
        b"".join([batch.data for batch in batches]),
        sum(batch.count for batch in batches),
        raw, stride,
    )


def _fixed_stride(batch: RecordBatch) -> np.ndarray | None:
    """``batch`` as an ``(n, stride)`` ``uint8`` view when it is raw and
    every record frames to one stride, else ``None``.  A batch built with
    its ``stride`` is viewed without a scan; any other is decided by
    vectorised tests: the first record's one-byte vints give ``klen`` and
    ``vlen``, the bytes are ``n`` strides, and every row repeats both
    lengths in their columns — so every record parses at its row."""
    data, n = batch.data, batch.count
    if not batch.raw or n < 2:
        return None
    if batch.stride is not None:
        return np.frombuffer(data, np.uint8).reshape(n, batch.stride)
    klen = data[0]
    vlen = data[klen + 1] if klen <= 127 else 128  # 128: a multi-byte vint
    if vlen > 127 or len(data) != n * (klen + vlen + 2):
        return None
    rows = np.frombuffer(data, np.uint8).reshape(n, -1)
    if (rows[:, 0] != klen).any() or (rows[:, klen + 1] != vlen).any():
        return None
    return rows


def _radix_order(keys: np.ndarray) -> np.ndarray:
    """The stable order of ``(n, klen)`` key rows: an LSD radix over their
    big-endian 16-bit columns (an odd length zero-padded), last first."""
    order = np.arange(len(keys))
    for column in np.pad(keys, ((0, 0), (0, keys.shape[1] % 2))).view(">u2").T[::-1]:
        order = order[column.astype(np.uint16)[order].argsort(kind="stable")]
    return order


def sort_batch(
    batch: RecordBatch, cmp: Compare | None, serializer: Serializer
) -> RecordBatch:
    """Key-sort a batch by permuting record slices (stable; values opaque).

    Under the byte order a fixed-stride raw batch sorts as an array: each
    key's first 8 bytes (zero-padded) as one big-endian ``uint64``,
    ``argsort`` once.  When no two sorted heads are equal that order is
    the only one, so it is the stable one; heads that tie (duplicate
    keys, a shared 8-byte prefix) fall back to :func:`_radix_order`.  Then
    one ``take`` of the rows.  Never NumPy's ``S`` dtype: it ties
    ``b"a\\x00"`` with ``b"a"``.
    """
    byte_order = cmp is bytes_compare or cmp is default_compare
    rows = _fixed_stride(batch) if byte_order else None
    if rows is None:
        keys, records = batch.key_index(serializer)
        order = sorted_order(keys, cmp)
        return RecordBatch(
            b"".join(map(records.__getitem__, order)), batch.count, batch.raw
        )
    n, stride = rows.shape
    klen = int(rows[0, 0])
    # 8 bytes read in place past each key length: rows under 9 bytes padded
    wide = rows if stride > 8 else np.pad(rows, ((0, 0), (0, 9 - stride)))
    heads = np.ndarray(n, ">u8", wide, 1, (wide.shape[1],)).astype(np.uint64)
    if klen < 8:  # zero the bytes read past the key
        heads &= np.uint64(((1 << 8 * klen) - 1) << 8 * (8 - klen))
    order = heads.argsort()
    ordered = heads[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = _radix_order(rows[:, 1:klen + 1])
    return RecordBatch(rows.take(order, axis=0).ravel().data, n, True, stride)
