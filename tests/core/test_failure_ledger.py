"""The failure ledger and the restart rule, driven by generated attempts.

``FailureLedger`` is a plain record: the properties below construct it
bare — no job, no thread, no runtime, no sleep — and hand it every
sequence of failed attempts Hypothesis can think of.  The vocabulary
tests at the end hold ``FAILURE_KINDS`` as the one list of kinds and keep
the names of the deleted second route out of ``src/``.
"""

import ast
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.common.errors import FAILURE_KINDS, FailureRecord
from repro.core.mpidrun import _MAX_BACKOFF, FailureLedger, restart_delay

SRC = pathlib.Path(repro.__file__).parent

records = st.builds(
    FailureRecord,
    kind=st.sampled_from(FAILURE_KINDS),
    worker=st.integers(-1, 3),
    phase=st.sampled_from(["O", "A", "route-w"]),
    task_id=st.integers(-1, 2),
    round_no=st.integers(-1, 1),
    attempt=st.sampled_from([0, 0, 7]),  # unstamped, or stamped at the source
    error=st.sampled_from(["", "boom", "ValueError('x')"]),
)
#: a job's failed attempts: what each attempt's runtime had recorded
attempt_lists = st.lists(st.lists(records, max_size=5), min_size=1, max_size=8)
limits = st.tuples(st.integers(0, 6), st.integers(1, 4))


def is_task(record):
    return record.kind == "task" and record.task_id >= 0


@given(attempt_lists, limits)
def test_nothing_filed_is_lost_or_merged(attempts, limit):
    ledger = FailureLedger(*limit)
    for handed_in in attempts:
        filed = ledger.close_attempt(list(handed_in), RuntimeError("died"))
        if handed_in:
            # the very objects handed in, equal ones included, each once
            assert Counter(map(id, filed)) == Counter(map(id, handed_in))
        else:
            # an attempt that left no record is one abort made of its exception
            assert [(r.kind, r.error) for r in filed] == [
                ("abort", "RuntimeError('died')")
            ]
    assert len(ledger.records) == sum(max(1, len(a)) for a in attempts)
    assert ledger.attempts == len(attempts)


@given(attempt_lists, limits)
def test_each_attempt_is_filed_primary_first_and_stamped(attempts, limit):
    ledger = FailureLedger(*limit)
    filed_so_far = 0
    for number, handed_in in enumerate(attempts, start=1):
        stamped = {id(r) for r in handed_in if r.attempt != 0}
        filed = ledger.close_attempt(list(handed_in), RuntimeError("died"))
        blame = [FAILURE_KINDS.index(r.kind) for r in filed]
        assert blame == sorted(blame)
        for kind in FAILURE_KINDS if handed_in else ():  # stable within a kind
            assert [id(r) for r in filed if r.kind == kind] == [
                id(r) for r in handed_in if r.kind == kind
            ]
        for record in filed:
            assert record.attempt == (7 if id(record) in stamped else number)
        # attempts are filed in the order they were closed
        assert ledger.records[filed_so_far:] == filed
        filed_so_far += len(filed)


@given(attempt_lists, limits)
def test_restart_rule_and_error_read_what_is_filed(attempts, limit):
    max_restarts, max_task_attempts = limit
    ledger = FailureLedger(max_restarts, max_task_attempts)
    task_failures = Counter()
    assert ledger.may_restart  # nothing failed yet
    for number, handed_in in enumerate(attempts, start=1):
        filed = ledger.close_attempt(list(handed_in), RuntimeError("died"))
        task_failures.update((r.phase, r.task_id) for r in handed_in if is_task(r))
        exhausted = {
            key for key, count in task_failures.items() if count >= max_task_attempts
        }
        assert ledger.may_restart == (number <= max_restarts and not exhausted)
        error = ledger.error(filed[0])
        assert error.endswith(filed[0].describe())
        if exhausted:
            phase, task_id = ledger.exhausted
            assert (phase, task_id) in exhausted
            assert error.startswith(
                f"{phase} task {task_id} failed "
                f"{task_failures[phase, task_id]} attempt(s) "
                f"(mpi.d.task.max.attempts={max_task_attempts}): "
            )
        else:
            assert ledger.exhausted is None
            assert error == filed[0].describe()


@given(
    st.integers(1, 200),
    st.floats(0, 1e6, allow_nan=False),
    st.floats(0, 1),
    st.integers(0, 2**32),
)
def test_restart_delay_stays_within_the_cap(attempt, backoff, jitter, seed):
    delay = restart_delay(attempt, backoff, jitter, random.Random(seed))
    assert 0.0 <= delay <= _MAX_BACKOFF * (1 + jitter)


def test_restart_delay_takes_any_attempt_number():
    # mpi.d.job.max.restarts past a thousand: 2 ** 1099 overflows a float
    assert restart_delay(1100, 0.1) == _MAX_BACKOFF
    assert restart_delay(1100, 0.0) == 0.0
    jittered = restart_delay(10**6, 0.1, 0.25, random.Random(7))
    assert 0.75 * _MAX_BACKOFF <= jittered <= 1.25 * _MAX_BACKOFF


# -- the vocabulary ----------------------------------------------------------------


def test_an_unknown_kind_is_refused_at_construction():
    assert FailureRecord().kind in FAILURE_KINDS
    with pytest.raises(ValueError, match="unknown failure kind 'error'"):
        FailureRecord(kind="error")


def test_every_kind_literal_in_src_is_in_the_vocabulary():
    literals = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "FailureRecord"
            ):
                literals += [
                    (path.name, kw.value.value)
                    for kw in node.keywords
                    if kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                ]
    assert len(literals) >= 6  # the walk does find the constructions
    assert [lit for lit in literals if lit[1] not in FAILURE_KINDS] == []


def test_the_second_route_stays_deleted():
    sources = {p: p.read_text(encoding="utf-8") for p in SRC.rglob("*.py")}
    dead = [
        "_BLAME_ORDER", "_collect_failures", "_failure_dict", "_report_failure",
        "WorkerLostError", "RankRecoveryError", "TaskFailedError", "REPORT_TAG",
    ]
    assert [
        (p.name, name) for p, text in sources.items() for name in dead if name in text
    ] == []
    # and no failure message on the control protocol
    assert [
        p.name for p, text in sources.items()
        if p.parent.name == "core" and '"fail"' in text
    ] == []
