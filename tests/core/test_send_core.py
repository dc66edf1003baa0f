"""The SPL's bound send core against ``partitioner`` +
``validate_destination`` + ``add``, pair by pair.

``SendPartitionList.bind`` partitions, range-checks, counts, holds, sizes
and seals in one call, and memoizes ``key -> partition`` for the
partitioners known to read the key alone.  Whatever the keys, the
partitioner, the combiner or the framing, it must seal the same blocks
(partition, count, bytes) at the same points and count the same records
as the call-by-call path, and its memo must never hold more keys than
the SPL does.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataMPIError
from repro.core import buffers
from repro.core.buffers import SendPartitionList
from repro.core.metrics import TaskMetrics
from repro.core.partition import (
    _stable_hash,
    hash_partitioner,
    range_partitioner,
    validate_destination,
)
from repro.serde.comparators import bytes_compare, default_compare
from repro.serde.writable import IntWritable, Text
from tests.core.helpers import SERIALIZER as SER

N = 3
VALUE = st.integers(0, 5)


def _by_value(key, value, n):
    """A user partitioner that reads the value: never memoized."""
    return _stable_hash(value) % n


def _sum(key, values):
    return [sum(values)]


def _sum_writables(key, values):
    return [IntWritable(sum(v.get() for v in values))]


def _concat(key, values):
    return [b"".join(values)]


def _spl(combiner, cmp, raw, flush_bytes):
    return SendPartitionList(N, flush_bytes, cmp, combiner, serializer=SER, raw=raw)


def _blocks(blocks):
    return [(b.partition_id, b.count, bytes(b.records.data), b.nbytes, b.sorted)
            for b in blocks]


def _held_keys(spl):
    return sum(len(held) for held in spl._held)


def drive(pairs, partitioner, combiner=None, cmp=None, raw=False, flush_bytes=64):
    """Send ``pairs`` through the bound core and through the call-by-call
    path; returns both sides' (blocks, counters)."""
    bound, stepped = (_spl(combiner, cmp, raw, flush_bytes) for _ in range(2))
    shipped, metrics = [], TaskMetrics()
    core = bound.bind(partitioner, shipped.append, metrics)
    (memo,) = bound._memos or [{}]
    sealed, emitted = [], 0
    for key, value in pairs:
        core(key, value)
        assert len(memo) <= _held_keys(bound)
        block = stepped.add(validate_destination(partitioner(key, value, N), N), key, value)
        emitted += 1
        if block is not None:
            sealed.append(block)
    shipped += bound.flush_all()
    sealed += stepped.flush_all()
    assert not memo
    return [
        (_blocks(blocks), count, spl.records_out, spl.bytes_out, spl.combined_away)
        for blocks, count, spl in [
            (shipped, metrics.records_emitted, bound), (sealed, emitted, stepped)]
    ]


def _same(pairs, partitioner, **kwargs):
    bound, stepped = drive(pairs, partitioner, **kwargs)
    assert bound == stepped
    assert bound[1] == len(pairs)


# -- generated streams ------------------------------------------------------------

#: the plain key types, unhashable lists included; few distinct values, so
#: that keys repeat, collide across types and cross seals
ANY_KEY = st.one_of(
    st.sampled_from(["a", "b", "word", ""]),
    st.sampled_from([b"a", b"b", b"\x00"]),
    st.integers(-2, 3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, -2.5]),
    st.tuples(st.integers(0, 2), st.sampled_from(["a", "b"])),
    st.lists(st.integers(0, 2), max_size=2),
)
#: Writable keys and values, one class a stream (a Writable orders only
#: against its own kind)
WRITABLE_PAIRS = st.one_of(*(
    st.lists(st.tuples(st.builds(cls, keys), st.builds(IntWritable, VALUE)), max_size=120)
    for cls, keys in [(Text, st.sampled_from(["a", "b", "c"])),
                      (IntWritable, st.integers(-1, 3))]))
#: keys one range partitioner can order: numbers (bool, int, float) or text
RANGED = [
    (st.one_of(st.integers(-3, 6), st.booleans(), st.sampled_from([0.5, 2.0, 1.0])),
     [0, 2]),
    (st.sampled_from(["a", "b", "c", "k", "x", "zz"]), ["b", "k"]),
]
RAW_KEY = st.binary(max_size=3)
FLUSH = st.sampled_from([16, 48, 200, 10**6])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(ANY_KEY, VALUE), max_size=120),
    st.sampled_from([hash_partitioner, _by_value]),
    st.sampled_from([(None, None), (None, default_compare), (_sum, default_compare)]),
    FLUSH,
)
def test_any_key_under_hash_and_user_partitioners(pairs, partitioner, shape, flush):
    combiner, cmp = shape
    _same(pairs, partitioner, combiner=combiner, cmp=cmp, flush_bytes=flush)


@settings(max_examples=60, deadline=None)
@given(WRITABLE_PAIRS, st.sampled_from([hash_partitioner, _by_value]), st.booleans(), FLUSH)
def test_writable_records(pairs, partitioner, combined, flush):
    _same(pairs, partitioner, combiner=_sum_writables if combined else None,
          cmp=default_compare, flush_bytes=flush)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.booleans(), FLUSH)
def test_range_partitioned_keys(data, combined, flush):
    keys, cuts = data.draw(st.sampled_from(RANGED))
    pairs = data.draw(st.lists(st.tuples(keys, VALUE), max_size=120))
    _same(pairs, range_partitioner(cuts), combiner=_sum if combined else None,
          cmp=default_compare, flush_bytes=flush)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(RAW_KEY, st.binary(max_size=4)), max_size=120),
    st.sampled_from([hash_partitioner, range_partitioner([b"b", b"k"]), _by_value]),
    st.sampled_from([(None, None), (None, bytes_compare), (_concat, bytes_compare)]),
    FLUSH,
)
def test_raw_records(pairs, partitioner, shape, flush):
    combiner, cmp = shape
    _same(pairs, partitioner, combiner=combiner, cmp=cmp, raw=True, flush_bytes=flush)


# -- explicit cases ---------------------------------------------------------------


@pytest.mark.parametrize("combiner", [None, _sum])
def test_one_true_and_one_point_oh_land_where_the_hash_says(combiner):
    keys = [True, 1, 1.0] * 4
    assert {_stable_hash(k) % N for k in keys} == {0, 1}  # they do part ways
    pairs = [(key, i) for i, key in enumerate(keys)]
    # 20 bytes: a True (1 + 8) and a 1 (8 + 8) seal together, two Trues not
    for flush in (20, 10**6):
        _same(pairs, hash_partitioner, combiner=combiner, cmp=default_compare,
              flush_bytes=flush)
    spl = _spl(combiner, default_compare, False, 10**6)
    core = spl.bind(hash_partitioner, None, TaskMetrics())
    for key, value in pairs:
        core(key, value)
    seen = set()
    for block in spl.flush_all():
        for key, _ in block.records.iter_pairs(SER):
            assert _stable_hash(key) % N == block.partition_id
            seen.add(type(key))
    # a combiner groups equal keys under the first: True == 1, one partition
    assert seen == ({bool, float} if combiner else {int, bool, float})


def test_a_user_partitioner_runs_once_per_pair():
    calls = []
    turn = itertools.count()

    def round_robin(key, value, n):
        calls.append(key)
        return next(turn) % n

    spl = _spl(_sum, default_compare, False, 10**6)
    core = spl.bind(round_robin, None, TaskMetrics())
    for _ in range(3):
        core("same", 1)
        core(7, 1)
    assert calls == ["same", 7] * 3
    assert not spl._memos
    assert [sum(len(vs) for vs in held.values()) for held in spl._held] == [2, 2, 2]


@pytest.mark.parametrize("combiner", [None, _sum])
def test_an_out_of_range_destination_raises_on_every_call(combiner):
    def beyond(key, value, n):
        return n

    beyond.boundaries = []  # declared key-only: the memo's case
    spl = _spl(combiner, default_compare, False, 10**6)
    metrics = TaskMetrics()
    core = spl.bind(beyond, None, metrics)
    for _ in range(3):
        with pytest.raises(DataMPIError, match="outside"):
            core("k", 1)
    assert metrics.records_emitted == 0
    assert _held_keys(spl) == 0 and spl._memos == [{}]


def test_the_memo_empties_at_every_seal_and_on_an_unhashable_key():
    spl = _spl(_sum, default_compare, False, 10**6)
    core = spl.bind(hash_partitioner, None, TaskMetrics())
    (memo,) = spl._memos
    core("a", 1)
    core(2, 1)
    assert set(memo) == {"a", 2}
    core([1], 1)  # turns its partition's dict into tuples
    assert not memo
    core("a", 1)
    spl.flush_all()
    assert not memo and _held_keys(spl) == 0


def test_a_partition_in_tuples_gets_no_memo_entry():
    """Tuples hold no values list for a hit to append to: their keys are
    partitioned again, and sized with every pair."""
    spl = SendPartitionList(1, 10**6, default_compare, _sum, serializer=SER)
    core = spl.bind(hash_partitioner, None, TaskMetrics())
    (memo,) = spl._memos
    for key in ("a", [1], "a", "a", 7, 7):
        core(key, 1)
    assert not memo
    assert spl._nbytes == [13 + 20 + 13 + 13 + 16 + 16]
    (block,) = spl.flush_all()
    assert list(block.records.iter_pairs(SER)) == [(7, 2), ([1], 1), ("a", 3)]


# -- the hit path -----------------------------------------------------------------


class _Probed(dict):
    """A memo that counts its lookups."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def _probed(spl, core):
    """Swap the core's memo for a counting copy, in the core's closure and
    in the SPL's list (a seal still empties it)."""
    (memo,) = spl._memos
    (cell,) = [c for c in core.__closure__ if c.cell_contents is memo]
    cell.cell_contents = spl._memos[0] = _Probed(memo)
    return cell.cell_contents


def test_a_held_key_is_neither_partitioned_nor_sized_again(monkeypatch):
    partitioned, sized = [], []

    def spy_partitioner(key, value, n, _real=hash_partitioner):
        partitioned.append(key)
        return _real(key, value, n)

    def spy_size(obj, _real=buffers._size_of):
        sized.append(obj)
        return _real(obj)

    # the spy is the partitioner the core knows to read the key alone
    monkeypatch.setattr(buffers, "hash_partitioner", spy_partitioner)
    monkeypatch.setattr(buffers, "_size_of", spy_size)
    words = ["w", "x", "w", "w", "x", "w"]
    for value, combiner, value_sizes in [(1, _sum, 2), (b"v", _concat, len(words))]:
        partitioned.clear()
        sized.clear()
        spl, metrics = _spl(combiner, default_compare, False, 10**6), TaskMetrics()
        core = spl.bind(spy_partitioner, None, metrics)
        assert spl._memos
        for word in words:
            core(word, value)
        assert partitioned == ["w", "x"]
        assert sized.count("w") == sized.count("x") == 1
        # an exact int is 8 bytes without a call; anything else is sized
        assert len(sized) == 2 + value_sizes
        assert metrics.records_emitted == len(words)
        assert sorted(len(vs) for held in spl._held for vs in held.values()) == [2, 4]


@pytest.mark.parametrize("combiner", [None, _sum])
def test_the_memo_is_probed_once_a_pair(combiner):
    """Framed or grouped, hit or miss: one lookup for a key of a memoized
    type, none for any other key."""
    spl = _spl(combiner, default_compare, False, 64)
    core = spl.bind(hash_partitioner, [].append, TaskMetrics())
    memo = _probed(spl, core)
    keys = ["a", "b", "a", 7, True, "a", b"z", 2.5, 7] * 20
    for key in keys:
        core(key, 1)
    assert spl.records_out > 0  # seals emptied the memo along the way
    assert memo.probes == sum(type(key) in (str, bytes, int) for key in keys)


@pytest.mark.parametrize("flush", [20, 40, 10**6])
def test_a_hit_sizes_its_value_as_add_does(flush):
    """An exact int or float is 8 bytes without a call; a bool is 1."""
    pairs = [("k", value) for value in [1, True, 2.5, False, 7, 1.0] * 4]
    _same(pairs, hash_partitioner, combiner=_sum, cmp=default_compare, flush_bytes=flush)
