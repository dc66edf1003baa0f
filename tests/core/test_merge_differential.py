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
"""

from itertools import chain

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sorter import RunStore, merge_batches, merge_runs, sort_block
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
                   view=False):
    """``spill_at``: arrivals that overflow whatever the budget — everything
    resident then goes to disk as one run, later arrivals stay resident.
    ``view``: the runs' bytes are memoryviews, as the wire hands them over."""
    batches = [batch_block(0, run, raw=raw).records for run in runs]
    if view:
        batches = [RecordBatch(memoryview(b.data), b.count, raw) for b in batches]
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


@st.composite
def _fixed_stride_runs(draw):
    """Runs whose keys share one length: 0, 1, odd, TeraSort's 10."""
    klen = draw(st.sampled_from([0, 1, 5, 10]))
    key = st.lists(_key_byte, min_size=klen, max_size=klen).map(bytes)
    return draw(_runs(key))


@settings(max_examples=80, deadline=None, print_blob=True)
@given(key_runs=_fixed_stride_runs(), vlen=st.sampled_from([8, 90, 127]),
       cmp=st.sampled_from([bytes_compare, default_compare]),
       budget=_budgets, spill_at=_spill_at, view=st.booleans())
def test_fixed_stride_raw_batches(tmp_path_factory, key_runs, vlen, cmp,
                                  budget, spill_at, view):
    """Every record frames to one stride: the merge, the compaction before
    a spill and ``as_batch`` sort as an array — byte for byte what the
    Python path yields, equal keys in run order, then arrival order."""
    runs = _tagged(
        key_runs, cmp, lambda r, i: (b"%d:%d" % (r, i)).ljust(vlen, b".")
    )
    merged = _check_batches(
        tmp_path_factory, runs, cmp, True, budget, spill_at, view)
    assert (_fixed_stride(merged) is not None) == (merged.count > 1)
    batches = [batch_block(0, run, raw=True).records for run in runs]
    python = merge_batches(batches, _python_order, SER)
    assert bytes(merged.data) == bytes(python.data)
    assert bytes(merged.unframed()) == _joined_views(merged)


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
