"""Key-value library-level checkpointing (§IV-E, Figure 7).

"Each task makes the checkpoint separably after a round of data
exchanging" — emitted key-value pairs are buffered and persisted in
numbered *rounds* (``cp_<task>_<round>.ckpt``); a round file is written
to a temp name and renamed, so a crash can never leave a half-round
visible.  On recovery the library replays all complete rounds straight
from disk (the "Job Reload Checkpoint" phase of Figure 13) and the
re-executed task skips that many records — transparent for
deterministic applications, exactly as the paper requires.

A round's payload is a vint record count followed by the records framed
exactly as a :class:`~repro.serde.batch.RecordBatch` frames them
(``raw`` follows the job's ``mpi.d.shuffle.raw.bytes``): a pair sent alone is
framed once on its way in, a batch sent whole is appended as its bytes,
and replay reads the round back as a batch.  A round holds at least
``interval_records`` records and never splits a batch.

Round files are integrity-checked: the payload is prefixed with its
CRC32, verified before replay.  A round that fails the check is
*quarantined* — renamed to ``*.ckpt.bad`` along with every
higher-numbered round of the task (replay semantics need a contiguous
prefix: the skip counter assumes rounds reload in emit order with no
holes) — and recovery proceeds from the surviving prefix, so a
corrupted checkpoint degrades to re-execution instead of wrong output
or a crash loop.
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
import zlib
from typing import Any, Iterator

from repro.common.errors import CheckpointError
from repro.common.logging import get_logger
from repro.core.constants import MPI_D_Constants as K
from repro.core.metrics import phase
from repro.obs.tracer import TRACER as _T
from repro.serde.batch import RecordBatch, framer
from repro.serde.io import DataInput, append_vint
from repro.serde.serialization import Serializer

KV = tuple[Any, Any]

_log = get_logger("core.checkpoint")

_ROUND_RE = re.compile(r"^cp_(?P<task>.+)_(?P<round>\d{6})\.ckpt$")

_CRC = struct.Struct(">I")
#: CRC prefix + the longest possible vlong encoding of the record count
_HEADER_MAX_BYTES = _CRC.size + 9


def _round_path(directory: str, task: str, round_no: int) -> str:
    return os.path.join(directory, f"cp_{task}_{round_no:06d}.ckpt")


class CheckpointWriter:
    """Streams one task's emitted records into numbered round files."""

    def __init__(
        self,
        directory: str,
        task: str,
        serializer: Serializer,
        interval_records: int,
        start_round: int = 0,
        raw: bool = False,
    ) -> None:
        if interval_records < 1:
            raise CheckpointError("checkpoint interval must be >= 1 record")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.task = task
        self.interval_records = interval_records
        self.round_no = start_round
        self._frame = framer(serializer, raw)
        #: the round's framed records and whole batches, and their count
        self._buffer: list[bytes | memoryview] = []
        self._count = 0
        self.records_persisted = 0

    def add(self, key: Any, value: Any) -> None:
        """Frame one pair into the round."""
        self.add_records(self._frame(key, value), 1)

    def add_records(self, data: bytes | memoryview, count: int) -> None:
        """Append ``count`` records already framed (a batch's bytes),
        verbatim; the round closes once it holds ``interval_records``."""
        self._buffer.append(data)
        self._count += count
        if self._count >= self.interval_records:
            self.flush_round()

    def flush_round(self) -> None:
        """Persist the buffered round atomically (write-then-rename)."""
        if not self._buffer:
            return
        count = self._count
        # writing a round is the "checkpoint" phase of whichever thread's
        # lane the task runs on
        with phase("checkpoint"), _T.span(
            "checkpoint.flush", cat="checkpoint",
            args={"task": self.task, "round": self.round_no, "records": count},
        ) as span:
            head = bytearray()
            append_vint(head, count)
            payload = b"".join((head, *self._buffer))
            final = _round_path(self.directory, self.task, self.round_no)
            tmp = final + ".tmp"
            with open(tmp, "wb") as f:
                f.write(_CRC.pack(zlib.crc32(payload)))
                f.write(payload)
            os.replace(tmp, final)
            span.set("bytes", len(payload))
        self.records_persisted += count
        self._buffer.clear()
        self._count = 0
        self.round_no += 1

    def close(self) -> None:
        """Flush the trailing partial round (task completed normally)."""
        self.flush_round()


class CheckpointReader:
    """Recovers one task's persisted rounds."""

    def __init__(
        self, directory: str, task: str, serializer: Serializer, raw: bool = False
    ) -> None:
        self.directory = directory
        self.task = task
        self.serializer = serializer
        self.raw = raw
        #: rounds this reader has CRC-checked; each is checked once
        self._verified: set[int] = set()

    def complete_rounds(self) -> list[int]:
        """Round numbers with a verified persisted file, sorted.

        Verification quarantines as a side effect: a round whose CRC32
        fails is renamed ``*.ckpt.bad``, together with every
        higher-numbered round of this task (replay needs a contiguous
        prefix), and only the surviving verified prefix is returned.
        Every call lists the directory, so rounds written since the last
        call count, but a round this reader verified before is not read
        again.
        """
        if not os.path.isdir(self.directory):
            return []
        rounds = []
        for name in os.listdir(self.directory):
            m = _ROUND_RE.match(name)
            if m and m.group("task") == self.task:
                rounds.append(int(m.group("round")))
        rounds.sort()
        verified: list[int] = []
        for idx, round_no in enumerate(rounds):
            path = _round_path(self.directory, self.task, round_no)
            if round_no in self._verified or self._verify(path):
                self._verified.add(round_no)
                verified.append(round_no)
            else:
                self._quarantine(rounds[idx:])
                self._verified.difference_update(rounds[idx:])
                break
        return verified

    def _verify(self, path: str) -> bool:
        try:
            with open(path, "rb") as f:
                header = f.read(_CRC.size)
                if len(header) < _CRC.size:
                    return False
                (expected,) = _CRC.unpack(header)
                return zlib.crc32(f.read()) == expected
        except OSError:
            return False

    def _quarantine(self, rounds: list[int]) -> None:
        """Rename corrupt + unreachable rounds out of the way (``.bad``)."""
        for round_no in rounds:
            path = _round_path(self.directory, self.task, round_no)
            try:
                os.replace(path, path + ".bad")
            except OSError:
                continue
            if _T.enabled:
                _T.instant(
                    "checkpoint.quarantine", cat="checkpoint",
                    args={"task": self.task, "round": round_no},
                )
            _log.warning(
                "checkpoint task %s round %d failed verification or lost "
                "its prefix; quarantined as %s",
                self.task, round_no, path + ".bad",
            )

    def max_round(self) -> int:
        """Verified rounds count = highest usable round + 1 (0 when none).

        A resumed writer starting here overwrites any quarantined round
        numbers rather than skipping past the hole.
        """
        rounds = self.complete_rounds()
        return rounds[-1] + 1 if rounds else 0

    def replay(self) -> Iterator[KV]:
        """All verified persisted pairs in emit order, each round decoded
        as the record batch it is."""
        for round_no in self.complete_rounds():
            path = _round_path(self.directory, self.task, round_no)
            with open(path, "rb") as f:
                data = f.read()
            src = DataInput(data, _CRC.size)  # CRC already verified
            count = src.read_vint()
            batch = RecordBatch(data[src.position:], count, self.raw)
            yield from batch.iter_pairs(self.serializer)

    def record_count(self) -> int:
        """Persisted record total from the round headers alone.

        Reads ``CRC + vint`` (a dozen bytes) per round file instead of
        deserializing every pair like :meth:`replay` would.
        """
        total = 0
        for round_no in self.complete_rounds():
            path = _round_path(self.directory, self.task, round_no)
            with open(path, "rb") as f:
                head = DataInput(f.read(_HEADER_MAX_BYTES))
            head.read_bytes(_CRC.size)
            total += head.read_vint()
        return total


def checkpoint_location(conf: Any, job_name: str) -> tuple[str, str]:
    """``(ft_dir, job_id)`` of a job's checkpoint directory — derived
    here only, so the ranks that write the round files and the driver
    that removes them after a successful job agree on the place
    whatever the job left unset."""
    return (
        conf.get(K.FT_DIR) or tempfile.gettempdir(),
        conf.get_str(K.JOB_ID, job_name),
    )


class CheckpointManager:
    """Per-job checkpoint coordination.

    The job's directory is ``<ft_dir>/<job_id>``; tasks are identified as
    ``o<task_id>`` (only O-side emits are checkpointed — A output goes to
    the job's final sink).
    """

    def __init__(
        self,
        ft_dir: str,
        job_id: str,
        serializer: Serializer,
        interval_records: int,
        raw: bool = False,
    ) -> None:
        self.directory = os.path.join(ft_dir, job_id)
        self.serializer = serializer
        self.interval_records = interval_records
        self.raw = raw

    def writer(self, task_id: int, start_round: int = 0) -> CheckpointWriter:
        return CheckpointWriter(
            self.directory,
            f"o{task_id}",
            self.serializer,
            self.interval_records,
            start_round=start_round,
            raw=self.raw,
        )

    def reader(self, task_id: int) -> CheckpointReader:
        return CheckpointReader(
            self.directory, f"o{task_id}", self.serializer, self.raw
        )

    def clear(self) -> None:
        """Remove all checkpoints (job completed)."""
        remove_rounds(self.directory)


def remove_rounds(directory: str) -> None:
    """Remove a job's round files, then its directory if that left it
    empty.  ``mpidrun`` calls it after a successful FT job, so the next
    job of the same name replays nothing of this one's."""
    if not os.path.isdir(directory):
        return
    for name in os.listdir(directory):
        if name.endswith((".ckpt", ".tmp", ".bad")):
            try:
                os.unlink(os.path.join(directory, name))
            except FileNotFoundError:
                pass
    try:
        os.rmdir(directory)
    except OSError:
        pass
