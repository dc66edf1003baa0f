"""Differential test of the sort-once merges against the heap merge.

The receive side merges resident runs with one stable sort: of an index
over their key column when the partition is read (``RunStore.__iter__``),
of the framed records when it needs the merged bytes (``merge_batches``:
the spill, ``as_batch``).  The heap of :func:`merge_runs` (still what
merges runs streaming back from disk, with the resident runs' column
iterator as one more run) is the reference.  On key-sorted runs they must
agree record for record — including the order of equal keys (run index,
then arrival) — and byte for byte, whatever was spilled on the way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sorter import RunStore, merge_batches, merge_runs, sort_block
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
         in zip(batch.iter_pairs(SER), batch.iter_records())]
        for batch in batches
    ]
    return b"".join(record for _, record in merge_runs(keyed, cmp))


def _store(tmp_path_factory, cmp, budget):
    return RunStore(cmp, SER, str(tmp_path_factory.mktemp("runs")), budget)


def _check_batches(tmp_path_factory, runs, cmp, raw, budget, spill_at=()):
    """``spill_at``: arrivals that overflow whatever the budget — everything
    resident then goes to disk as one run, later arrivals stay resident."""
    batches = [batch_block(0, run, raw=raw).records for run in runs]
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
