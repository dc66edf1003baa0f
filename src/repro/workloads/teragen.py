"""TeraGen: the TeraSort input generator.

Standard TeraSort records are 100 bytes: a 10-byte random key and a
90-byte value carrying the record number.  Generation is deterministic
per (seed, record index) so distributed generators and verifiers agree
without coordination.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DataMPIError
from repro.hdfs.client import DFSClient

RECORD_LEN = 100
KEY_LEN = 10
VALUE_LEN = RECORD_LEN - KEY_LEN


_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Counter-based mixing: record i's key is a pure function of (seed, i),
    so distributed generators producing disjoint ranges agree exactly."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M64
    return x ^ (x >> np.uint64(31))


def teragen(num_records: int, seed: int = 42, start: int = 0) -> bytes:
    """Generate records ``start .. start+num_records`` as one byte blob."""
    idx = np.arange(start, start + num_records, dtype=np.uint64)
    columns = []
    for j in range(KEY_LEN):
        z = _splitmix64(idx * np.uint64(KEY_LEN) + np.uint64(j + seed * 1013))
        # printable-ish random key bytes, like teragen's 10-byte keys
        columns.append((np.uint64(32) + z % np.uint64(95)).astype(np.uint8))
    keys = np.stack(columns, axis=1)
    values = np.zeros((num_records, VALUE_LEN), dtype=np.uint8)
    for i in range(num_records):
        text = f"{start + i:020d}".encode().ljust(VALUE_LEN, b".")
        values[i] = np.frombuffer(text, dtype=np.uint8)
    records = np.concatenate([keys, values], axis=1)
    return records.tobytes()


def teragen_to_dfs(
    dfs: DFSClient,
    path: str,
    num_records: int,
    seed: int = 42,
) -> None:
    """Write a TeraSort input file to mini-HDFS.

    The DFS block size must be a multiple of the record length so fixed-
    length splits stay record-aligned (real TeraSort relies on the same
    arrangement).
    """
    if dfs.namenode.block_size % RECORD_LEN:
        raise DataMPIError(
            f"block size {dfs.namenode.block_size} is not a multiple of "
            f"{RECORD_LEN}-byte TeraSort records"
        )
    with dfs.create(path) as out:
        written = 0
        chunk = max(1, dfs.namenode.block_size // RECORD_LEN)
        while written < num_records:
            n = min(chunk, num_records - written)
            out.write(teragen(n, seed, start=written))
            written += n
