"""Tests for the component logging helpers."""

import logging

from repro.common.logging import _apply_env, get_logger


class TestGetLogger:
    def test_namespacing(self):
        assert get_logger("core.engine").name == "repro.core.engine"
        assert get_logger("repro.mpi").name == "repro.mpi"

    def test_silent_by_default(self):
        logger = get_logger("test.silent")
        assert not logger.isEnabledFor(logging.DEBUG)

    def test_env_spec_bare_level(self):
        _apply_env("info")
        assert get_logger("anything").isEnabledFor(logging.INFO)
        _apply_env("warning")  # restore

    def test_env_spec_per_component(self):
        _apply_env("repro.test.x=debug, repro.test.y=error")
        assert get_logger("test.x").isEnabledFor(logging.DEBUG)
        assert not get_logger("test.y").isEnabledFor(logging.WARNING)

    def test_env_spec_garbage_ignored(self):
        _apply_env("repro.test.z=notalevel,,")  # must not raise
        _apply_env("")

    def _capture(self, component):
        """Attach a list-collecting handler (the stream handler caches the
        original stderr, so capsys cannot observe it)."""
        records = []

        class ListHandler(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = ListHandler()
        get_logger(component).addHandler(handler)
        return records, handler

    def test_records_reach_handler(self):
        records, handler = self._capture("test.cap")
        _apply_env("repro.test.cap=debug")
        try:
            get_logger("test.cap").debug("traced %d", 42)
            assert "traced 42" in records
        finally:
            _apply_env("repro.test.cap=warning")
            get_logger("test.cap").removeHandler(handler)

    def test_engine_emits_debug_trace(self):
        from repro.core import DataMPIJob, Mode, mpidrun

        records, handler = self._capture("core.engine")
        _apply_env("repro.core.engine=debug")
        try:
            job = DataMPIJob(
                "traced", lambda ctx: ctx.send("k", 1),
                lambda ctx: list(ctx.recv_iter()), 1, 1, mode=Mode.MAPREDUCE,
            )
            assert mpidrun(job, nprocs=1, raise_on_error=True).success
            text = "\n".join(records)
            assert "start O task 0" in text
            assert "end A task 0" in text
        finally:
            _apply_env("repro.core.engine=warning")
            get_logger("core.engine").removeHandler(handler)


class TestTraceLevelAndReentrancy:
    def test_trace_level_registered_below_debug(self):
        from repro.common.logging import TRACE

        assert TRACE < logging.DEBUG
        assert logging.getLevelName(TRACE) == "TRACE"

    def test_env_spec_trace_alias(self):
        from repro.common.logging import TRACE

        _apply_env("repro.test.tr=trace")
        assert get_logger("test.tr").isEnabledFor(TRACE)
        _apply_env("repro.test.tr=warning")

    def test_configuration_is_reentrant(self):
        root = logging.getLogger("repro")

        def ours():
            return [
                h for h in root.handlers
                if getattr(h, "_repro_handler", False)
            ]

        get_logger("test.reenter")
        assert len(ours()) == 1
        # repeated in-process launches must not stack handlers
        get_logger("test.reenter.again")
        assert len(ours()) == 1
        # an external teardown strips the handler; the next logger call
        # restores exactly one
        for handler in ours():
            root.removeHandler(handler)
        assert not ours()
        get_logger("test.reenter.restored")
        assert len(ours()) == 1
