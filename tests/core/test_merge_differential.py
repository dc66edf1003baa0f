"""Differential test of the sort-once merges against the heap merge.

The receive side merges resident runs with one stable sort: of an index
over their key column when the partition is read (``RunStore.__iter__``),
of the framed records when it needs the merged bytes (``merge_batches``:
the spill, ``as_batch``).  The heap of :func:`merge_runs` (still what
merges runs streaming back from disk, with the resident runs' column
iterator as one more run) is the reference.  On key-sorted runs they must
agree record for record — including the order of equal keys (run index,
then arrival) — and byte for byte, whatever was spilled on the way.
Raw batches whose records share one stride sort as arrays; they must
match the Python path byte for byte, and any other batch must fall back.
The array sort orders each key's 8-byte head in one pass and falls back
to a radix over whole keys only when two heads tie.
"""

import operator
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sorter import RunStore, merge_batches, merge_runs, sort_block
import repro.serde.batch as batch_module
from repro.serde.batch import (
    RecordBatch, _fixed_stride, batch_from_pairs, sort_batch,
)
from repro.serde.comparators import bytes_compare, default_compare, reverse
from tests.core.helpers import SERIALIZER as SER, batch_block


def _by_length(k1, k2):
    """A custom ``MPI_D_COMPARE``: ties that native ``<`` would split."""
    return default_compare(len(k1), len(k2))


# few distinct keys: duplicates within a run and across runs are the rule
_text_keys = st.text(alphabet="abc", max_size=3)
_int_keys = st.integers(-3, 3)
#: int, str and bytes keys in one partition: native ``<`` raises, the
#: merge must fall back to the total-order comparator
_mixed_keys = st.one_of(_int_keys, _text_keys, st.binary(max_size=2))
#: raw fields on both sides of the one-byte length prefix (127)
_raw_keys = st.one_of(st.binary(max_size=3), st.binary(min_size=128, max_size=140))
_padding = st.one_of(st.just(0), st.integers(120, 300))


def _runs(keys, max_runs=6, max_len=12):
    return st.lists(st.lists(keys, max_size=max_len), max_size=max_runs)


def _tagged(key_runs, cmp, value):
    """Key-sorted runs whose values name their run and arrival position,
    so any reordering of equal keys shows up in the output."""
    return [
        sort_block([(key, value(r, i)) for i, key in enumerate(keys)], cmp)
        for r, keys in enumerate(key_runs)
    ]


def _heap_merged_bytes(batches, cmp):
    """Reference merged batch: the heap orders (key, framed record)."""
    keyed = [
        [(key, bytes(record)) for (key, _), record
         in zip(batch.iter_pairs(SER), batch.key_index(SER)[1])]
        for batch in batches
    ]
    return b"".join(record for _, record in merge_runs(keyed, cmp))


def _store(tmp_path_factory, cmp, budget):
    return RunStore(cmp, SER, str(tmp_path_factory.mktemp("runs")), budget)


def _check_batches(tmp_path_factory, runs, cmp, raw, budget, spill_at=(),
                   view=False, stride=None):
    """``spill_at``: arrivals that overflow whatever the budget — everything
    resident then goes to disk as one run, later arrivals stay resident.
    ``view``: the runs' bytes are memoryviews, as the wire hands them over.
    ``stride``: the runs carry it, as the TeraSort path builds them."""
    batches = [batch_block(0, run, raw=raw).records for run in runs]
    if view or stride:
        batches = [RecordBatch(memoryview(b.data) if view else b.data, b.count,
                               raw, stride) for b in batches]
    expected = list(merge_runs(runs, cmp))

    merged = merge_batches(batches, cmp, SER)
    assert merged.count == len(expected)
    assert bytes(merged.data) == _heap_merged_bytes(batches, cmp)
    assert list(merged.iter_pairs(SER)) == expected

    store = _store(tmp_path_factory, cmp, budget)
    for i, batch in enumerate(batches):
        store.memory_budget = -1 if i in spill_at else budget
        store.add_run(batch)
    try:
        if budget == 10**9:
            spills = [i for i in sorted(spill_at) if i < len(batches)]
            assert len(store.disk_runs) == len(spills)
            assert len(store.memory_runs) == len(batches) - 1 - max(spills, default=-1)
        assert list(store) == expected
        assert list(store) == expected  # a read consumes nothing
        whole = store.as_batch()
        if whole is not None:  # nothing spilled
            assert bytes(whole.data) == bytes(merged.data)
            assert list(store) == expected  # nor does building the batch
    finally:
        store.cleanup()
    return merged


_budgets = st.sampled_from([10**9, 256, 0])
#: none, one or two of the first arrivals spill what is resident
_spill_at = st.sets(st.integers(0, 4), max_size=2)


@settings(max_examples=60, deadline=None, print_blob=True)
@given(key_runs=_runs(_raw_keys), pad=_padding, budget=_budgets,
       spill_at=_spill_at)
def test_raw_batches(tmp_path_factory, key_runs, pad, budget, spill_at):
    runs = _tagged(
        key_runs, bytes_compare, lambda r, i: b"%d:%d" % (r, i) + b"." * pad
    )
    _check_batches(tmp_path_factory, runs, bytes_compare, True, budget, spill_at)


def _python_order(k1, k2):
    """``bytes_compare`` under another name: keeps a sort on the Python
    path, the reference for the array path."""
    return bytes_compare(k1, k2)


def _joined_views(batch):
    return b"".join(chain.from_iterable(batch.iter_views()))


#: the ends of the unsigned byte range, NULs (trailing ones too) included
_key_byte = st.sampled_from([0x00, 0x01, 0xFF])


def _exactly(n, byte=st.integers(0, 255)):
    return st.lists(byte, min_size=n, max_size=n).map(bytes)


@st.composite
def _fixed_stride_runs(draw):
    """``(klen, runs)``: keys of one length on both sides of the array
    sort's 8-byte head (0, 1, odd, 8, TeraSort's 10, 16), from a small
    pool of heads and tails of the range's end bytes (exact duplicates;
    past 8 bytes, keys that share their head and differ after it), at
    random (heads that all differ), or both."""
    klen = draw(st.sampled_from([0, 1, 2, 5, 7, 8, 9, 10, 16]))
    head = min(klen, 8)
    heads = draw(st.lists(_exactly(head, _key_byte), min_size=1, max_size=3))
    tails = draw(st.lists(_exactly(klen - head, _key_byte), min_size=1, max_size=3))
    pooled = st.builds(operator.add, st.sampled_from(heads), st.sampled_from(tails))
    key = draw(st.sampled_from(
        [pooled, _exactly(klen), st.one_of(pooled, _exactly(klen))]))
    return klen, draw(_runs(key))


def _arrival_tag(vlen):
    """A value naming its run and arrival position that *falls* as they
    rise: a sort that let value bytes order equal keys would reverse them."""
    return lambda r, i: bytes((255 - r, 255 - i)).ljust(vlen, b".")


#: 2 and 4: rows of under 9 bytes beside 1- and 2-byte keys
_vlens = st.sampled_from([2, 4, 8, 90, 127])


@settings(max_examples=120, deadline=None, print_blob=True)
@given(case=_fixed_stride_runs(), vlen=_vlens,
       cmp=st.sampled_from([bytes_compare, default_compare]),
       budget=_budgets, spill_at=_spill_at, view=st.booleans(),
       known=st.booleans())
# empty runs that carry a stride
@example(case=(10, [[], []]), vlen=90, cmp=bytes_compare, budget=10**9,
         spill_at=set(), view=False, known=True)
def test_fixed_stride_raw_batches(tmp_path_factory, case, vlen, cmp,
                                  budget, spill_at, view, known):
    """Every record frames to one stride: the merge, the compaction before
    a spill and ``as_batch`` sort as an array — byte for byte what the
    Python path yields, equal keys in run order, then arrival order —
    whether the runs carry their stride or are checked for one."""
    klen, key_runs = case
    runs = _tagged(key_runs, cmp, _arrival_tag(vlen))
    merged = _check_batches(tmp_path_factory, runs, cmp, True, budget, spill_at,
                            view, klen + vlen + 2 if known else None)
    assert (_fixed_stride(merged) is not None) == (merged.count > 1)
    batches = [batch_block(0, run, raw=True).records for run in runs]
    python = merge_batches(batches, _python_order, SER)
    assert bytes(merged.data) == bytes(python.data)
    assert bytes(merged.unframed()) == _joined_views(merged)


@settings(max_examples=100, deadline=None, print_blob=True)
@given(case=_fixed_stride_runs(), vlen=_vlens, known=st.booleans(),
       view=st.booleans())
def test_an_unsorted_fixed_stride_batch_sorts_as_the_python_path(
        case, vlen, known, view):
    """One unsorted batch, its stride given or found: the array sort is
    the stable sort of the pairs by key, byte for byte."""
    klen, key_runs = case
    tag = _arrival_tag(vlen)
    pairs = [(key, tag(r, i)) for r, keys in enumerate(key_runs)
             for i, key in enumerate(keys)]
    batch = batch_from_pairs(pairs, None, raw=True)
    data = memoryview(batch.data) if view else batch.data
    batch = RecordBatch(data, batch.count, True, klen + vlen + 2 if known else None)
    expected = batch_from_pairs(sorted(pairs, key=operator.itemgetter(0)), None, True)
    for cmp in (bytes_compare, default_compare, _python_order):
        assert bytes(sort_batch(batch, cmp, SER).data) == expected.data


@pytest.mark.parametrize("keys, vlen, radix", [
    ([b"b", b"a", b"c"], 2, False),  # rows of 5 bytes, padded to read 8
    ([b"b", b"a", b"b"], 2, True),  # equal keys; the value bytes are masked
    ([b"ab", b"ab", b"aa"], 90, True),
    ([b"\0" * 7 + b"\1", b"\0" * 8], 90, False),  # the 8th byte decides
    ([b"01234567b", b"01234567a"], 90, True),  # the 9th byte decides
    ([b"1123456789", b"0123456789"], 90, False),  # shared tails do not tie
    ([b"x" * 16, b"y" * 16, b"x" * 16], 90, True),
    ([bytes([255 - i]) * 10 for i in range(40)], 90, False),
])
def test_only_tied_heads_take_the_radix(monkeypatch, keys, vlen, radix):
    calls = []
    fallback = batch_module._radix_order

    def recorded(key_rows):
        calls.append(key_rows.shape[1])
        return fallback(key_rows)

    monkeypatch.setattr(batch_module, "_radix_order", recorded)
    tag = _arrival_tag(vlen)
    pairs = [(key, tag(0, i)) for i, key in enumerate(keys)]
    got = sort_batch(batch_from_pairs(pairs, None, raw=True), bytes_compare, SER)
    assert calls == ([len(keys[0])] if radix else [])
    assert bytes(got.data) == batch_from_pairs(
        sorted(pairs, key=operator.itemgetter(0)), None, True).data


_short = st.binary(max_size=3)
_long = st.binary(min_size=128, max_size=140)


@settings(max_examples=60, deadline=None, print_blob=True)
@given(pairs=st.one_of(
    # mixed strides
    st.lists(st.tuples(_short, _short), min_size=2, max_size=12),
    # a field of 128 B or more
    st.lists(st.tuples(_short, st.one_of(_short, _long)), min_size=2, max_size=6),
    # one record
    st.lists(st.tuples(_short, _short), min_size=1, max_size=1),
), view=st.booleans())
# three strides whose key lengths sit where one stride puts them, and whose
# bytes add up to three strides: only the value-length column tells
@example(pairs=[(b"", b"ab"), (b"", b""), (b"", b"\x00def")], view=False)
def test_batches_off_the_array_path_fall_back(pairs, view):
    batch = batch_from_pairs(pairs, None, raw=True)
    if view:
        batch = RecordBatch(memoryview(batch.data), batch.count, True)
    lengths = {(len(k), len(v)) for k, v in pairs}
    if len(lengths) > 1 or len(pairs) == 1 or max(map(max, lengths)) > 127:
        assert _fixed_stride(batch) is None
    for cmp in (bytes_compare, default_compare):
        assert bytes(sort_batch(batch, cmp, SER).data) == bytes(
            sort_batch(batch, _python_order, SER).data)
    assert bytes(batch.unframed()) == _joined_views(batch)
    assert bytes(batch.unframed()) == b"".join(k + v for k, v in pairs)


@settings(max_examples=60, deadline=None, print_blob=True)
@given(
    key_runs=st.one_of(_runs(_text_keys), _runs(_int_keys), _runs(_mixed_keys)),
    cmp=st.sampled_from([default_compare, reverse(default_compare)]),
    pad=_padding,
    budget=_budgets,
    spill_at=_spill_at,
)
def test_writable_batches(tmp_path_factory, key_runs, cmp, pad, budget, spill_at):
    runs = _tagged(key_runs, cmp, lambda r, i: f"{r}:{i}" + "." * pad)
    _check_batches(tmp_path_factory, runs, cmp, False, budget, spill_at)


@settings(max_examples=40, deadline=None, print_blob=True)
@given(key_runs=_runs(_text_keys), budget=_budgets, spill_at=_spill_at)
def test_custom_comparator_ties(tmp_path_factory, key_runs, budget, spill_at):
    runs = _tagged(key_runs, _by_length, lambda r, i: 1000 * r + i)
    _check_batches(tmp_path_factory, runs, _by_length, False, budget, spill_at)
