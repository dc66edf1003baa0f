"""The in-memory size estimate of a record's key or value.

Key-value pairs are "the core data representation structure" of Hadoop-like
systems (paper §II-B).  :func:`_size_of` estimates one field cheaply and
deterministically without serializing it: ``bytes``/``str`` report their
real length, other objects a small fixed cost plus recursion over
tuples/lists.  A combined SPL partition counts each key it holds once plus
every value by it; framed records count their exact bytes.
"""

from __future__ import annotations

from typing import Any


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
