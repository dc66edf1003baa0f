"""Key comparators.

``MPI_D_COMPARE`` (Table II) lets applications "tell the library how to
compare the keys" when a mode requires sorted key-value pairs.  This module
provides the default comparator (natural ordering with a stable cross-type
fallback), a raw lexicographic byte comparator (TeraSort's ordering), and
adapters turning a 3-way compare function into a ``key=`` sort object.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

Compare = Callable[[Any, Any], int]


def default_compare(k1: Any, k2: Any) -> int:
    """Natural ordering; falls back to type-name ordering across types.

    A total order over heterogeneous keys keeps the merge phase robust even
    for user jobs that mix key types (Hadoop would throw; we sort
    deterministically instead, grouping each type together).
    """
    try:
        if k1 < k2:
            return -1
        if k2 < k1:
            return 1
        return 0
    except TypeError:
        t1, t2 = type(k1).__name__, type(k2).__name__
        if t1 != t2:
            return -1 if t1 < t2 else 1
        r1, r2 = repr(k1), repr(k2)
        return -1 if r1 < r2 else (1 if r2 < r1 else 0)


def bytes_compare(k1: bytes, k2: bytes) -> int:
    """Unsigned lexicographic comparison of raw keys (TeraSort order)."""
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def reverse(cmp: Compare) -> Compare:
    """Descending version of ``cmp`` (used by Top-K style workloads)."""

    def reversed_cmp(k1: Any, k2: Any) -> int:
        return cmp(k2, k1)

    return reversed_cmp


def sort_key(cmp: Compare) -> Callable[[Any], Any]:
    """Adapt a 3-way comparator into a ``key=`` object for ``sorted``."""
    return functools.cmp_to_key(cmp)


def sorted_order(keys: list, cmp: Compare | None) -> list[int]:
    """The stable permutation that puts ``keys`` in ``cmp`` order.

    ``list.sort`` detects the ascending runs already in ``keys`` and
    gallops over them, so ordering a concatenation of key-sorted runs *is*
    their k-way merge — ties keep run order, then arrival order.
    """
    if cmp is None or cmp is default_compare or cmp is bytes_compare:
        # both comparators order exactly like native ``<`` on conforming keys
        try:
            return sorted(range(len(keys)), key=keys.__getitem__)
        except TypeError:
            pass  # heterogeneous keys: total-order path below
    key_fn = sort_key(cmp or default_compare)
    return sorted(range(len(keys)), key=lambda i: key_fn(keys[i]))
