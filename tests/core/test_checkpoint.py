"""Tests for the key-value library-level checkpoint (§IV-E)."""

import os

import pytest

from repro.common.errors import CheckpointError
from repro.core.checkpoint import (
    CheckpointManager,
    CheckpointReader,
    CheckpointWriter,
)
from repro.serde.serialization import WritableSerializer


@pytest.fixture()
def serializer():
    return WritableSerializer()


class TestWriterReader:
    def test_rounds_written_at_interval(self, tmp_path, serializer):
        writer = CheckpointWriter(str(tmp_path), "o0", serializer, interval_records=3)
        for i in range(7):
            writer.add(f"k{i}", i)
        # 7 records, interval 3 -> rounds 0 and 1 on disk, 1 buffered
        reader = CheckpointReader(str(tmp_path), "o0", serializer)
        assert reader.complete_rounds() == [0, 1]
        assert reader.record_count() == 6
        writer.close()
        assert reader.complete_rounds() == [0, 1, 2]
        assert reader.record_count() == 7

    def test_replay_preserves_order(self, tmp_path, serializer):
        writer = CheckpointWriter(str(tmp_path), "o1", serializer, 2)
        pairs = [(f"key{i}", [i, i * 2]) for i in range(6)]
        for k, v in pairs:
            writer.add(k, v)
        writer.close()
        reader = CheckpointReader(str(tmp_path), "o1", serializer)
        assert list(reader.replay()) == pairs

    def test_tasks_do_not_interfere(self, tmp_path, serializer):
        w0 = CheckpointWriter(str(tmp_path), "o0", serializer, 1)
        w1 = CheckpointWriter(str(tmp_path), "o1", serializer, 1)
        w0.add("a", 0)
        w1.add("b", 1)
        assert list(CheckpointReader(str(tmp_path), "o0", serializer).replay()) == [
            ("a", 0)
        ]
        assert list(CheckpointReader(str(tmp_path), "o1", serializer).replay()) == [
            ("b", 1)
        ]

    def test_partial_tmp_file_ignored(self, tmp_path, serializer):
        """A crash mid-write leaves only a .tmp file — never a visible round."""
        writer = CheckpointWriter(str(tmp_path), "o0", serializer, 1)
        writer.add("ok", 1)
        # simulate a torn write of the next round
        (tmp_path / "cp_o0_000001.ckpt.tmp").write_bytes(b"garbage")
        reader = CheckpointReader(str(tmp_path), "o0", serializer)
        assert reader.complete_rounds() == [0]
        assert list(reader.replay()) == [("ok", 1)]

    def test_start_round_continues_numbering(self, tmp_path, serializer):
        w = CheckpointWriter(str(tmp_path), "o0", serializer, 1)
        w.add("a", 1)
        reader = CheckpointReader(str(tmp_path), "o0", serializer)
        resumed = CheckpointWriter(
            str(tmp_path), "o0", serializer, 1, start_round=reader.max_round()
        )
        resumed.add("b", 2)
        assert list(reader.replay()) == [("a", 1), ("b", 2)]

    def test_empty_reader(self, tmp_path, serializer):
        reader = CheckpointReader(str(tmp_path / "nowhere"), "o9", serializer)
        assert reader.complete_rounds() == []
        assert reader.max_round() == 0
        assert list(reader.replay()) == []

    def test_interval_validated(self, tmp_path, serializer):
        with pytest.raises(CheckpointError):
            CheckpointWriter(str(tmp_path), "o0", serializer, interval_records=0)

    def test_close_without_records_writes_nothing(self, tmp_path, serializer):
        writer = CheckpointWriter(str(tmp_path), "o0", serializer, 5)
        writer.close()
        assert CheckpointReader(str(tmp_path), "o0", serializer).max_round() == 0


class TestIntegrityAndQuarantine:
    def _write_rounds(self, tmp_path, serializer, n_rounds, per_round=2):
        writer = CheckpointWriter(str(tmp_path), "o0", serializer, per_round)
        for i in range(n_rounds * per_round):
            writer.add(f"k{i}", i)
        return CheckpointReader(str(tmp_path), "o0", serializer)

    def _corrupt(self, tmp_path, round_no):
        path = tmp_path / f"cp_o0_{round_no:06d}.ckpt"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip payload bits; the stored CRC no longer matches
        path.write_bytes(bytes(data))

    def test_corrupt_round_quarantined_with_successors(self, tmp_path, serializer):
        reader = self._write_rounds(tmp_path, serializer, 3)
        self._corrupt(tmp_path, 1)
        # replay needs a contiguous prefix: round 2 is unreachable once
        # round 1 is gone, so both leave the namespace
        assert reader.complete_rounds() == [0]
        assert list(reader.replay()) == [("k0", 0), ("k1", 1)]
        assert reader.record_count() == 2
        assert (tmp_path / "cp_o0_000001.ckpt.bad").exists()
        assert (tmp_path / "cp_o0_000002.ckpt.bad").exists()
        assert not (tmp_path / "cp_o0_000001.ckpt").exists()

    def test_resumed_writer_overwrites_quarantined_round(self, tmp_path, serializer):
        reader = self._write_rounds(tmp_path, serializer, 2)
        self._corrupt(tmp_path, 1)
        assert reader.max_round() == 1  # resume from the verified prefix
        resumed = CheckpointWriter(
            str(tmp_path), "o0", serializer, 2, start_round=reader.max_round()
        )
        resumed.add("new", 10)
        resumed.close()
        assert list(reader.replay()) == [("k0", 0), ("k1", 1), ("new", 10)]

    def test_truncated_file_quarantined(self, tmp_path, serializer):
        reader = self._write_rounds(tmp_path, serializer, 1)
        path = tmp_path / "cp_o0_000000.ckpt"
        path.write_bytes(path.read_bytes()[:3])  # not even a whole CRC
        assert reader.complete_rounds() == []
        assert reader.max_round() == 0
        assert (tmp_path / "cp_o0_000000.ckpt.bad").exists()

    def test_intact_rounds_survive_verification(self, tmp_path, serializer):
        reader = self._write_rounds(tmp_path, serializer, 3)
        assert reader.complete_rounds() == [0, 1, 2]
        assert reader.record_count() == 6
        assert not list(tmp_path.glob("*.bad"))

    def test_recovery_reads_each_round_at_most_twice(
        self, tmp_path, serializer, monkeypatch
    ):
        """A recovering O task asks ``max_round`` then ``replay``: the
        CRC check runs once per round, then replay decodes it."""
        import builtins
        from collections import Counter

        from repro.core import checkpoint

        reader = self._write_rounds(tmp_path, serializer, 4)
        opens: Counter = Counter()

        def counting_open(path, *args, **kwargs):
            opens[os.path.basename(path)] += 1
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
        assert reader.max_round() == 4
        assert len(list(reader.replay())) == 8
        assert sorted(opens) == [f"cp_o0_{r:06d}.ckpt" for r in range(4)]
        assert max(opens.values()) <= 2, opens

    def test_clear_removes_quarantined_files(self, tmp_path, serializer):
        mgr = CheckpointManager(str(tmp_path), "jobQ", serializer, 1)
        mgr.writer(0).add("k", 1)
        bad = os.path.join(mgr.directory, "cp_o0_000000.ckpt")
        data = bytearray(open(bad, "rb").read())
        data[-1] ^= 0xFF
        open(bad, "wb").write(bytes(data))
        assert mgr.reader(0).record_count() == 0  # quarantines
        mgr.clear()
        assert not os.path.isdir(mgr.directory)


class TestManager:
    def test_global_max_round(self, tmp_path, serializer):
        mgr = CheckpointManager(str(tmp_path), "job1", serializer, 2)
        w0 = mgr.writer(0)
        for i in range(6):
            w0.add(i, i)  # 3 rounds
        w1 = mgr.writer(1)
        w1.add("x", 1)  # 0 complete rounds (buffered)
        assert max(mgr.reader(t).max_round() for t in range(2)) == 3
        assert sum(mgr.reader(t).record_count() for t in range(2)) == 6

    def test_jobs_isolated(self, tmp_path, serializer):
        a = CheckpointManager(str(tmp_path), "jobA", serializer, 1)
        b = CheckpointManager(str(tmp_path), "jobB", serializer, 1)
        a.writer(0).add("k", 1)
        assert b.reader(0).record_count() == 0

    def test_clear(self, tmp_path, serializer):
        mgr = CheckpointManager(str(tmp_path), "gone", serializer, 1)
        mgr.writer(0).add("k", 1)
        assert mgr.reader(0).record_count() == 1
        mgr.clear()
        assert mgr.reader(0).record_count() == 0
        assert not os.path.isdir(mgr.directory)

    def test_clear_missing_dir_is_noop(self, tmp_path, serializer):
        CheckpointManager(str(tmp_path), "never", serializer, 1).clear()
