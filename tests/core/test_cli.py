"""Tests for the mpidrun console launcher."""

import pytest

from repro.cli import APPLICATIONS, main


class TestCli:
    def test_sort(self, capsys):
        assert main(["-O", "3", "-A", "2", "-M", "common",
                     "-jar", "demos.jar", "Sort", "60"]) == 0
        out = capsys.readouterr().out
        assert "sorted 60 keys" in out
        assert "success=True" in out
        assert "A-locality=100%" in out

    def test_wordcount(self, capsys):
        assert main(["-O", "2", "-A", "2", "-M", "mapreduce",
                     "-jar", "demos.jar", "WordCount", "40"]) == 0
        out = capsys.readouterr().out
        assert "distinct" in out

    def test_topk_streaming(self, capsys):
        assert main(["-O", "2", "-A", "2", "-M", "streaming",
                     "-jar", "demos.jar", "TopK", "500", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-3 of 500" in out

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "mpidrun" in out and "Sort" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "classnames" in capsys.readouterr().out

    def test_unknown_classname(self, capsys):
        assert main(["-O", "1", "-A", "1", "-jar", "x.jar", "Missing"]) == 2
        assert "unknown classname" in capsys.readouterr().err

    def test_bad_flags(self, capsys):
        assert main(["-O", "1"]) == 2  # missing -A
        assert "mpidrun:" in capsys.readouterr().err

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    def test_failing_job_is_reported_not_a_traceback(
        self, capsys, monkeypatch, launcher
    ):
        from repro.cli import _launch

        def o_fn(ctx):
            raise ValueError(f"demo bug in task {ctx.task_id}")

        monkeypatch.setitem(
            APPLICATIONS, "Boom",
            lambda options, params: _launch(options, o_fn, lambda ctx: None),
        )
        assert main([f"--launcher={launcher}", "-O", "1", "-A", "1",
                     "-M", "mapreduce", "-jar", "demos.jar", "Boom"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("mpidrun: [task worker 0 O task 0 attempt 1]")
        assert "demo bug in task 0" in err[0]
        # one describe() line per record, the cause first
        assert err[1].strip() == err[0].removeprefix("mpidrun: ")
        assert not any("Traceback" in line for line in err)

    def test_registry_mirrors_paper_programs(self):
        assert {"Sort", "WordCount", "TopK"} <= set(APPLICATIONS)

    @pytest.mark.parametrize("launcher", ["threads", "processes"])
    def test_launcher_flag_selects_the_backend(self, capsys, launcher):
        assert main([f"--launcher={launcher}", "-O", "3", "-A", "2",
                     "-M", "mapreduce", "-jar", "demos.jar",
                     "WordCount", "40"]) == 0
        out = capsys.readouterr().out
        assert "distinct" in out and "success=True" in out

    def test_launcher_flag_rejects_unknown_backend(self, capsys):
        assert main(["--launcher=fibers", "-O", "2", "-A", "2",
                     "-M", "common", "-jar", "demos.jar", "Sort", "20"]) != 0

    def test_launcher_flag_is_checked_without_building_a_runtime(self, monkeypatch):
        # a ProcessRuntime owns a router socket and a temp directory:
        # validating a name must not leave one behind
        from repro.cli import _extract_obs_flags
        from repro.mpi import runtime

        def built(self, *args, **kwargs):
            raise AssertionError("validation constructed a runtime")

        monkeypatch.setattr(runtime.ProcessRuntime, "__init__", built)
        _, conf, _ = _extract_obs_flags(["--launcher=processes"])
        assert conf == {"mpi.d.launcher": "processes"}
