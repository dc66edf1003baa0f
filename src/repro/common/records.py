"""Key-value record primitives.

Key-value pairs are "the core data representation structure" of Hadoop-like
systems (paper §II-B); every shuffle buffer, checkpoint file and RPC payload
in this library ultimately carries them.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple


class KeyValue(NamedTuple):
    """An immutable (key, value) pair — "an intact business record" (§IV-E)."""

    key: Any
    value: Any

    def __repr__(self) -> str:  # keep shuffle debug output short
        return f"KV({self.key!r}, {self.value!r})"


def kv_bytes(key: Any, value: Any) -> int:
    """Approximate the in-memory payload size of a key-value pair: a cheap,
    deterministic estimate that does not serialize it.

    ``bytes``/``str`` report their real length; other objects use a small
    fixed cost plus recursion over tuples/lists.  No buffer sizes itself
    with this: framed records count their exact bytes, and a combined SPL
    partition counts each key it holds once plus every value, by the same
    per-object ``_size_of`` estimates.
    """
    return _size_of(key) + _size_of(value)


def _size_of(obj: Any) -> int:
    # exact-type front for the shuffle's common field types; subclasses
    # and everything else take the ladder below, with the same answers
    t = type(obj)
    if t is str or t is bytes:
        return len(obj) + 4
    if t is int or t is float:
        return 8
    if obj is None:
        return 1
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 4
    if isinstance(obj, str):
        return len(obj) + 4
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, (tuple, list)):
        return 4 + sum(_size_of(item) for item in obj)
    if hasattr(obj, "serialized_size"):
        return int(obj.serialized_size())
    return 16


def iter_kv(pairs: Iterable[tuple[Any, Any]]) -> Iterator[KeyValue]:
    """Normalize an iterable of 2-tuples into :class:`KeyValue` records."""
    for key, value in pairs:
        yield KeyValue(key, value)
