"""Input splits and record formats.

An :class:`InputSplit` is one HDFS block plus its replica locations —
the unit of map-task scheduling and the source of data locality.  Record
formats parse split bytes into (key, value) records:

* :class:`TextInputFormat` — newline records, ``(byte offset, line)``,
  like Hadoop's default (WordCount input);
* :class:`FixedLengthRecordFormat` — fixed-size binary records split
  into key/value byte fields (TeraSort's 10+90-byte records), or a
  whole split framed as one raw record batch;
* :class:`KeyValueTextOutputFormat` — ``key<TAB>value`` output lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.common.errors import DataMPIError
from repro.hdfs.client import DFSClient
from repro.serde.batch import RecordBatch, batch_from_pairs


@dataclass(frozen=True)
class InputSplit:
    """One schedulable chunk of input."""

    path: str
    block_index: int
    length: int
    hosts: tuple[int, ...]  # datanode ids holding a replica


def compute_splits(dfs: DFSClient, path: str) -> list[InputSplit]:
    """One split per HDFS block, like FileInputFormat with split = block."""
    return [
        InputSplit(path, i, block.size, block.locations)
        for i, block in enumerate(dfs.namenode.get_block_locations(path))
    ]


def compute_splits_for_dir(dfs: DFSClient, prefix: str) -> list[InputSplit]:
    """Splits for every file under a directory prefix."""
    splits: list[InputSplit] = []
    for path in dfs.listdir(prefix):
        splits.extend(compute_splits(dfs, path))
    return splits


class TextInputFormat:
    """Newline-delimited text; records are (offset-within-split, line).

    Block boundaries cut lines arbitrarily, so this implements Hadoop's
    ``LineRecordReader`` contract: a split that is not the first skips
    everything up to and including the first newline (that partial line
    belongs to the previous split), and every split reads *past* its end
    into following blocks to finish its last line.
    """

    name = "text"

    def read_records(self, data: bytes) -> Iterator[tuple[Any, Any]]:
        offset = 0
        for raw_line in data.split(b"\n"):
            if raw_line:
                yield offset, raw_line.decode("utf-8", errors="replace")
            offset += len(raw_line) + 1

    def read_split(self, dfs: DFSClient, split: InputSplit) -> Iterator[tuple[Any, Any]]:
        blocks = dfs.namenode.get_block_locations(split.path)
        data = dfs.read_blocks(split.path, [split.block_index])
        if split.block_index > 0:
            # Hadoop's LineRecordReader trick: examine the byte just before
            # the split.  If it is a newline the split starts on a line
            # boundary and nothing is skipped; otherwise the head of this
            # split is the tail of the previous split's line — drop it.
            prev = dfs.read_blocks(split.path, [split.block_index - 1])
            if not prev.endswith(b"\n"):
                newline = data.find(b"\n")
                if newline < 0:
                    return  # whole block is the middle of one huge line
                data = data[newline + 1 :]
                if not data:
                    # the skipped line ended exactly at this split's end:
                    # no line *starts* here, so nothing belongs to it
                    return
        if not data.endswith(b"\n"):
            # stitch the tail line from following blocks
            for nxt in range(split.block_index + 1, len(blocks)):
                extra = dfs.read_blocks(split.path, [nxt])
                newline = extra.find(b"\n")
                if newline >= 0:
                    data += extra[: newline + 1]
                    break
                data += extra
        yield from self.read_records(data)


class FixedLengthRecordFormat:
    """Fixed-width binary records: ``key_len`` key bytes + value bytes."""

    name = "fixed"

    def __init__(self, record_len: int = 100, key_len: int = 10) -> None:
        if not 0 < key_len < record_len:
            raise DataMPIError("key_len must be inside the record")
        self.record_len = record_len
        self.key_len = key_len

    def _whole(self, data: bytes) -> bytes:
        if len(data) % self.record_len:
            raise DataMPIError(
                f"split of {len(data)} bytes is not a multiple of "
                f"{self.record_len}-byte records"
            )
        return data

    def read_records(self, data: bytes) -> Iterator[tuple[bytes, bytes]]:
        self._whole(data)
        record_len, key_len = self.record_len, self.key_len
        for pos in range(0, len(data), record_len):
            mid = pos + key_len
            yield data[pos:mid], data[mid : pos + record_len]

    def read_split(self, dfs: DFSClient, split: InputSplit) -> Iterator[tuple[bytes, bytes]]:
        """Record-aligned blocks only (generators must size blocks to a
        multiple of ``record_len``; TeraGen does)."""
        return self.read_records(dfs.read_blocks(split.path, [split.block_index]))

    def read_batch(self, dfs: DFSClient, split: InputSplit) -> RecordBatch:
        """The split as one raw record batch: viewed as ``(n, record_len)``
        rows, framed by inserting the two constant one-byte length columns
        in one copy.  A field over 127 B frames pair by pair."""
        key_len, value_len = self.key_len, self.record_len - self.key_len
        if value_len > 127 or key_len > 127:
            return batch_from_pairs(self.read_split(dfs, split), None, raw=True)
        data = self._whole(dfs.read_blocks(split.path, [split.block_index]))
        rows = np.frombuffer(data, np.uint8).reshape(-1, self.record_len)
        framed = np.empty((len(rows), self.record_len + 2), np.uint8)
        framed[:, 0] = key_len
        framed[:, 1:key_len + 1] = rows[:, :key_len]
        framed[:, key_len + 1] = value_len
        framed[:, key_len + 2:] = rows[:, key_len:]
        return RecordBatch(framed.ravel().data, len(rows), True, self.record_len + 2)


class KeyValueTextOutputFormat:
    """``key<TAB>value`` lines, one file per reduce task."""

    name = "kvtext"

    def serialize(self, pairs: list[tuple[Any, Any]]) -> bytes:
        return "".join(f"{k}\t{v}\n" for k, v in pairs).encode("utf-8")

    def parse(self, data: bytes) -> list[tuple[str, str]]:
        out = []
        for line in data.decode("utf-8").splitlines():
            key, _, value = line.partition("\t")
            out.append((key, value))
        return out


class BytesConcatOutputFormat:
    """Raw concatenation of key+value bytes (TeraSort's sorted output)."""

    name = "bytes"

    def serialize(self, pairs: list[tuple[bytes, bytes]]) -> bytes:
        return b"".join(k + v for k, v in pairs)

    def parse(self, data: bytes, record_len: int = 100) -> list[bytes]:
        return [data[i : i + record_len] for i in range(0, len(data), record_len)]
