"""Length-prefixed key/value record batches — serialize once, ship bytes.

A :class:`RecordBatch` is one contiguous byte block holding ``count``
records, each framed as::

    vint(klen) key-bytes vint(vlen) value-bytes

With ``raw=False`` the key/value bytes are :class:`Serializer` encodings
(self-describing Writable tags), so a batch can carry any shuffleable
object; the length prefixes let byte-level consumers (merges, spills,
the wire codec) slice and copy records without decoding them.  With
``raw=True`` the key/value bytes are the application's own raw bytes
(TeraSort records): no serializer framing at all, so key slices compare
exactly like the decoded keys under ``bytes_compare`` and a merged batch
can be consumed without materializing a single Python object.

The sender-side buffer seals emitted pairs into a batch exactly once
(:class:`BatchBuilder`); from then on the batch travels as an opaque
buffer through coalescing, transports, spill files and merges — zero
re-encode, zero per-record pickle on any hop.  Receivers decode lazily
at the user-function boundary via :meth:`RecordBatch.iter_pairs`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.common.errors import SerializationError
from repro.serde.comparators import (
    Compare,
    bytes_compare,
    default_compare,
    sort_key,
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


class RecordBatch:
    """An immutable, contiguous block of length-prefixed records.

    ``data`` may be ``bytes`` or a ``memoryview`` slicing a larger buffer
    (a wire frame body, a spill mmap); iteration never copies more than
    the records actually materialized.
    """

    __slots__ = ("data", "count", "raw")

    def __init__(
        self, data: bytes | memoryview, count: int, raw: bool = False
    ) -> None:
        self.data = data
        self.count = count
        self.raw = raw

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
        # pickled only off the hot path (e.g. a fault-injection rule that
        # materializes payloads); the wire codec ships batches unpickled
        return (RecordBatch, (bytes(self.data), self.count, self.raw))

    # -- iteration --------------------------------------------------------
    def iter_views(self) -> Iterator[tuple[memoryview, memoryview]]:
        """(key_view, value_view) per record — zero decode, zero copy.

        Only meaningful for ``raw`` batches, where the field bytes *are*
        the application data; for serialized batches the views carry the
        serializer framing.
        """
        view = memoryview(self.data)
        pos = 0
        read = _read_vint
        for _ in range(self.count):
            n, pos = read(view, pos)
            key = view[pos : pos + n]
            pos += n
            n, pos = read(view, pos)
            value = view[pos : pos + n]
            pos += n
            yield key, value

    def iter_records(self) -> Iterator[memoryview]:
        """Whole-record views (length prefixes included): the unit a merge
        copies into its output batch without decoding."""
        view = memoryview(self.data)
        pos = 0
        read = _read_vint
        for _ in range(self.count):
            start = pos
            n, pos = read(view, pos)
            pos += n
            n, pos = read(view, pos)
            pos += n
            yield view[start:pos]

    def iter_pairs(self, serializer: Serializer) -> Iterator[KV]:
        """Decode records into (key, value) objects — the user-function
        boundary.  Raw batches yield ``bytes`` keys and values."""
        buf = self.data if type(self.data) is bytes else bytes(self.data)
        pos = 0
        read = _read_vint
        if self.raw:
            for _ in range(self.count):
                n, pos = read(buf, pos)
                key = buf[pos : pos + n]
                pos += n
                n, pos = read(buf, pos)
                value = buf[pos : pos + n]
                pos += n
                yield key, value
            return
        decode, src = serializer.decode_field, DataInput(buf)
        for _ in range(self.count):
            n, pos = read(buf, pos)
            key = decode(buf, pos, pos + n, src)
            n, pos = read(buf, pos + n)
            yield key, decode(buf, pos, pos + n, src)
            pos += n

    def key_index(self, serializer: Serializer) -> tuple[list[Any], list[bytes]]:
        """``(keys, records)`` columns in batch order: every record's
        decoded key and its whole framed bytes (length prefixes included).

        Sorts and merges order on the keys and copy the records verbatim —
        value bytes stay opaque.  This is the one per-record Python loop
        of a sort, so it slices ``bytes`` directly (raw keys never pass
        through a memoryview) and decodes one-byte lengths inline.
        """
        data = self.data if type(self.data) is bytes else bytes(self.data)
        keys: list[Any] = []
        records: list[bytes] = []
        add_key, add_record = keys.append, records.append
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
                pos += n
                add_record(data[start:pos])
            return keys, records
        decode, src = serializer.decode_field, DataInput(data)
        for _ in range(self.count):
            start = pos
            n, pos = read(data, pos)
            add_key(decode(data, pos, pos + n, src))
            n, pos = read(data, pos + n)
            pos += n
            add_record(data[start:pos])
        return keys, records


class BatchBuilder:
    """Accumulates records into the batch wire layout.

    One builder per seal: the sender-side buffer serializes each pair
    exactly once here; every later hop copies or slices the sealed bytes.
    """

    __slots__ = ("_serializer", "_raw", "_buf", "_scratch", "count")

    def __init__(
        self, serializer: Serializer | None = None, raw: bool = False
    ) -> None:
        if serializer is None and not raw:
            raise SerializationError(
                "BatchBuilder needs a serializer unless building raw batches"
            )
        self._serializer = serializer
        self._raw = raw
        self._buf = bytearray()
        self._scratch = DataOutput()
        self.count = 0

    def add(self, key: Any, value: Any) -> None:
        """Serialize one pair into the batch (raw mode: frame its bytes)."""
        if self._raw:
            self.add_raw(key, value)
            return
        encode = self._serializer.encode_field
        encode(key, self._buf, self._scratch)
        encode(value, self._buf, self._scratch)
        self.count += 1

    def add_raw(self, key, value) -> None:
        """Frame raw ``bytes``-like key/value without serializer framing."""
        buf = self._buf
        try:
            n = len(key)
            if n <= 127:
                buf.append(n)
            else:
                _append_vint(buf, n)
            buf += key
            n = len(value)
            if n <= 127:
                buf.append(n)
            else:
                _append_vint(buf, n)
            buf += value
        except TypeError:
            raise SerializationError(
                "raw record batches require bytes-like keys and values; got "
                f"({type(key).__name__}, {type(value).__name__})"
            ) from None
        self.count += 1

    def add_record(self, record: bytes | memoryview) -> None:
        """Append one already-framed record verbatim (merge output path)."""
        self._buf += record
        self.count += 1

    def seal(self) -> RecordBatch:
        """Freeze the accumulated records; the builder resets for reuse."""
        batch = RecordBatch(bytes(self._buf), self.count, self._raw)
        self._buf = bytearray()
        self.count = 0
        return batch


def batch_from_pairs(
    pairs: Iterable[KV], serializer: Serializer | None, raw: bool = False
) -> RecordBatch:
    """Seal an iterable of pairs into one batch (serialize-once point)."""
    builder = BatchBuilder(serializer, raw=raw)
    add = builder.add_raw if raw else builder.add
    for key, value in pairs:
        add(key, value)
    return builder.seal()


def concat_batches(batches: list[RecordBatch]) -> RecordBatch:
    """Byte-concatenate batches (unsorted stores): no per-record work."""
    if not batches:
        return RecordBatch(b"", 0)
    if len(batches) == 1:
        return batches[0]
    raw = batches[0].raw
    if any(batch.raw is not raw for batch in batches):
        raise SerializationError("cannot concatenate raw and serialized batches")
    return RecordBatch(
        b"".join([batch.data for batch in batches]),
        sum(batch.count for batch in batches),
        raw,
    )


def sort_batch(
    batch: RecordBatch, cmp: Compare | None, serializer: Serializer
) -> RecordBatch:
    """Key-sort a batch by permuting record slices (stable; values opaque).

    ``list.sort`` detects the ascending runs already in the batch and
    gallops over them, so sorting a concatenation of key-sorted batches
    *is* their k-way merge — ties keep batch order, then arrival order.
    """
    keys, records = batch.key_index(serializer)
    order = None
    if cmp is None or cmp is default_compare or cmp is bytes_compare:
        # both comparators order exactly like native ``<`` on conforming keys
        try:
            order = sorted(range(len(keys)), key=keys.__getitem__)
        except TypeError:
            pass  # heterogeneous keys: total-order path below
    if order is None:
        key_fn = sort_key(cmp or default_compare)
        order = sorted(range(len(keys)), key=lambda i: key_fn(keys[i]))
    return RecordBatch(
        b"".join(map(records.__getitem__, order)), batch.count, batch.raw
    )
