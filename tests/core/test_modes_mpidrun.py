"""Tests for mode profiles and the mpidrun launcher surface."""

import pathlib
import re

import pytest

import repro
from repro.common.errors import DataMPIError
from repro.core.constants import Mode, MPI_D_Constants as K
from repro.core.job import DataMPIJob
from repro.core.modes import (
    default_of,
    mode_is_pipelined,
    mode_sorts,
    profile_for,
)
from repro.core.mpidrun import default_process_count, parse_mpidrun_command


def _noop(ctx):
    pass


class TestProfiles:
    def test_mapreduce_sorts_one_way(self):
        conf = profile_for(Mode.MAPREDUCE)
        assert mode_sorts(conf)
        with pytest.raises(DataMPIError):  # one way: no A->O rounds
            DataMPIJob("j", _noop, _noop, 1, 1, Mode.MAPREDUCE, rounds=2).validate()
        assert not mode_is_pipelined(conf)

    def test_streaming_pipelined_unsorted(self):
        conf = profile_for(Mode.STREAMING)
        assert not mode_sorts(conf)
        assert mode_is_pipelined(conf)

    def test_iteration_bidirectional(self):
        conf = profile_for(Mode.ITERATION)
        DataMPIJob("j", _noop, _noop, 1, 1, Mode.ITERATION, rounds=2).validate()
        assert not mode_sorts(conf)

    def test_common_sorts(self):
        assert mode_sorts(profile_for(Mode.COMMON))

    def test_user_conf_overrides_profile(self):
        conf = profile_for(Mode.STREAMING, {K.SORT: True})
        assert mode_sorts(conf)

    def test_shared_defaults_present(self):
        conf = profile_for(Mode.MAPREDUCE)
        assert conf.get_str(K.SERIALIZER) == "writable"
        assert conf.get_bytes(K.SPL_PARTITION_BYTES) > 0
        assert conf.get_bool(K.FT_ENABLED) is False

    def test_streaming_uses_small_flush(self):
        streaming = profile_for(Mode.STREAMING).get_bytes(K.SPL_PARTITION_BYTES)
        mapreduce = profile_for(Mode.MAPREDUCE).get_bytes(K.SPL_PARTITION_BYTES)
        assert streaming < mapreduce


#: keys with no default: unset means "derive a path / name / type", which
#: only the reader can do
NO_DEFAULT = {
    "KEY_CLASS", "VALUE_CLASS", "LOCAL_DIR", "FT_DIR", "JOB_ID", "TRACE_PATH",
    "TELEMETRY_ENDPOINT_FILE", "DOCTOR_PATH",
}
_TYPED_READ = re.compile(
    r"\.get_(?:int|float|bool|bytes|str)\(\s*K\.([A-Z_]+)\s*([,)])"
)
#: a key handed to a call (``conf.get*``, ``default_of``) — not a table entry
_READ = re.compile(r"\(\s*K\.([A-Z_]+)\s*[,)]")
#: keys nothing in ``src/`` reads: the frozen ``bench/replay.py`` reads this one
NO_READER_IN_SRC = {"MERGE_THRESHOLD_BLOCKS"}
#: a key written into a conf: a dict-literal entry, an item assignment or
#: a ``setdefault``
_WRITE = re.compile(
    r"\b(?:K|MPI_D_Constants)\.([A-Z_]+)\s*:"
    r"|\[K\.([A-Z_]+)\]\s*="
    r"|\.setdefault\(\s*K\.([A-Z_]+)\s*,"
)
#: keys nothing outside ``tests/`` sets, each with why it is a key anyway
DEPLOYMENT_ONLY = {
    "TASK_MAX_ATTEMPTS": "bound: how often one task may fail before giving up",
    "RANK_REDELIVERY_BYTES": "bound: driver memory spent per rank on replay",
    "HEARTBEAT_DEADLINE_SECONDS": "timeout: sized to the slowest healthy wait",
    "DOCTOR_STALL_SECONDS": "timeout: sized to the longest healthy quiet spell",
    "TELEMETRY_INTERVAL_SECONDS": "period: scrape cost against freshness",
    "SERIALIZER": "pickle carries user types Writable cannot; bench/replay.py reads it",
    "MERGE_THRESHOLD_BLOCKS": "inert; the frozen bench/replay.py reads it",
}
_ROOT = pathlib.Path(repro.__file__).parents[2]


def _keys():
    return {
        name: value for name, value in vars(K).items()
        if isinstance(value, str) and value.startswith("mpi.d.")
    }


class TestADefaultIsWrittenOnce:
    """``profile_for`` layers one table of defaults under every conf, so
    no reader in ``src/`` carries a fallback of its own."""

    def _sources(self):
        src = pathlib.Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            yield path.name, path.read_text()

    def _typed_reads(self):
        for name, text in self._sources():
            for key, after in _TYPED_READ.findall(text):
                yield name, key, after

    def test_the_table_covers_every_key_but_the_path_like_ones(self):
        keys = _keys()
        assert len(keys) == 34
        for mode in Mode:
            conf = profile_for(mode)
            assert {n for n, key in keys.items() if key not in conf} == NO_DEFAULT

    def test_every_typed_read_in_src_resolves_without_a_fallback(self):
        reads = list(self._typed_reads())
        assert len(reads) >= 30  # the scan found the call sites
        for mode in Mode:
            conf = profile_for(mode)
            for where, key, after in reads:
                if key in NO_DEFAULT:
                    continue
                assert getattr(K, key) in conf, (where, key)
                assert after == ")", f"{where}: {key} passes its own default"

    def test_every_key_has_a_reader_in_src(self):
        """A key nobody reads is not a key: setting it changes nothing."""
        read = {key for _, text in self._sources() for key in _READ.findall(text)}
        assert set(_keys()) - read == NO_READER_IN_SRC

    def test_every_key_has_a_setter_outside_tests(self):
        """A key exists because two callers disagree: something that is not
        a test sets it — a workload, a bench, an example, a mode profile, a
        CLI flag — or it is a bound a deployment sizes."""
        from repro.cli import _OBS_FLAGS
        from repro.core.modes import _PROFILE_DEFAULTS

        name_of = {value: name for name, value in _keys().items()}
        written = {
            name_of[key] for profile in _PROFILE_DEFAULTS.values() for key in profile
        }
        for bare, value_key, _parse, _noun in _OBS_FLAGS.values():
            written |= {name_of[k] for k in (*(bare or ()), value_key) if k in name_of}
        for top in ("src", "bench", "benchmarks", "examples"):
            for path in sorted((_ROOT / top).rglob("*.py")):
                if path.name == "modes.py" or "tests" in path.parts:
                    continue  # the defaults table, the bench's own suite
                for groups in _WRITE.findall(path.read_text()):
                    written.add(next(filter(None, groups)))
        assert set(_keys()) - written == set(DEPLOYMENT_ONLY)
        assert all(DEPLOYMENT_ONLY.values())  # each entry says why

    def test_every_key_is_documented_in_exactly_one_docs_table(self):
        rows = [
            key
            for path in sorted((_ROOT / "docs").glob("*.md"))
            for key in re.findall(r"^\| `(mpi\.d\.[a-z.]+)` \|", path.read_text(), re.M)
        ]
        assert sorted(rows) == sorted(_keys().values())

    def test_docs_and_examples_name_only_keys_that_exist(self):
        """A deleted key leaves no trace where users read: every
        ``mpi.d.*`` string and every ``K.<NAME>`` is a current one."""
        paths = [_ROOT / "README.md"]
        for top in ("docs", "examples", "benchmarks"):
            paths += [
                p for p in sorted((_ROOT / top).rglob("*"))
                if p.suffix in (".md", ".py")
            ]
        keys, named = _keys(), set()
        for path in paths:
            text = path.read_text()
            named |= set(re.findall(r"mpi\.d\.[a-z]+(?:\.[a-z]+)*", text))
            named |= {
                getattr(K, name, name)
                for name in re.findall(r"\b(?:K|MPI_D_Constants)\.([A-Z_]+)\b", text)
            }
        assert named <= set(keys.values())

    def test_derived_periods_keep_the_pairs_the_keys_had(self):
        assert default_of(K.HEARTBEAT_DEADLINE_SECONDS) / 30 == 0.5


class TestJobValidation:
    def test_task_counts(self):
        with pytest.raises(DataMPIError):
            DataMPIJob("j", _noop, _noop, o_tasks=0, a_tasks=1).validate()
        with pytest.raises(DataMPIError):
            DataMPIJob("j", _noop, _noop, o_tasks=1, a_tasks=0).validate()

    def test_rounds_require_iteration(self):
        job = DataMPIJob("j", _noop, _noop, 1, 1, mode=Mode.MAPREDUCE, rounds=3)
        with pytest.raises(DataMPIError):
            job.validate()
        DataMPIJob("j", _noop, _noop, 1, 1, mode=Mode.ITERATION, rounds=3).validate()

    def test_default_process_count(self):
        job = DataMPIJob("j", _noop, _noop, o_tasks=4, a_tasks=2)
        assert default_process_count(job) == 4
        wide = DataMPIJob("j", _noop, _noop, o_tasks=100, a_tasks=2)
        assert default_process_count(wide) == 8  # capped


class TestMpidrunCli:
    def test_paper_command_shape(self):
        opts = parse_mpidrun_command(
            "mpidrun -f hostfile -O 4 -A 2 -M mapreduce -jar app.jar Sort in out"
        )
        assert opts["hostfile"] == "hostfile"
        assert opts["o_tasks"] == 4 and opts["a_tasks"] == 2
        assert opts["mode"] is Mode.MAPREDUCE
        assert opts["jar"] == "app.jar"
        assert opts["classname"] == "Sort"
        assert opts["params"] == ["in", "out"]

    def test_all_modes_parse(self):
        for mode in Mode:
            opts = parse_mpidrun_command(f"mpidrun -O 1 -A 1 -M {mode.value}")
            assert opts["mode"] is mode

    def test_missing_task_counts(self):
        with pytest.raises(DataMPIError):
            parse_mpidrun_command("mpidrun -f hosts")

    def test_unknown_flag(self):
        with pytest.raises(DataMPIError):
            parse_mpidrun_command("mpidrun -O 1 -A 1 -Z whatever")

    def test_unknown_mode(self):
        with pytest.raises(DataMPIError):
            parse_mpidrun_command("mpidrun -O 1 -A 1 -M quantum")

    def test_must_start_with_mpidrun(self):
        with pytest.raises(DataMPIError):
            parse_mpidrun_command("hadoop jar x.jar")
