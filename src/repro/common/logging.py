"""Lightweight component logging.

The engines are heavily threaded; when something hangs, printf debugging
fights the interleaving.  ``get_logger`` returns stdlib loggers with a
consistent ``repro.<component>`` namespace, a thread-name-carrying
format, and an environment switch so test runs stay silent by default:

    REPRO_LOG=debug pytest tests/core -k streaming
    REPRO_LOG=repro.core.scheduler=debug python examples/quickstart.py

The second form sets per-component levels (comma-separated).  Beyond the
stdlib levels there is ``TRACE`` (numerically 5, below ``DEBUG``) — the
span-debug level the flight recorder's instrumentation sites log at;
``REPRO_LOG=trace`` switches it on.

Configuration is re-entrant: repeated in-process ``mpidrun`` calls (or a
test harness that tears the root logger down between runs) re-attach
exactly one stream handler instead of stacking duplicates.
"""

from __future__ import annotations

import logging
import os
import sys
import threading

_FORMAT = "%(asctime)s %(levelname).1s %(name)s [%(threadName)s] %(message)s"
_configured = False
_lock = threading.Lock()

#: span-debug level for very chatty instrumentation (below DEBUG)
TRACE = 5
logging.addLevelName(TRACE, "TRACE")

#: names ``getattr(logging, ...)`` cannot resolve
_LEVEL_ALIASES = {"TRACE": TRACE}


def _resolve_level(name: str) -> int | None:
    name = name.strip().upper()
    if name in _LEVEL_ALIASES:
        return _LEVEL_ALIASES[name]
    level = getattr(logging, name, None)
    return level if isinstance(level, int) else None


def _configure_root() -> None:
    """Idempotent *and* re-entrant: attaches our handler exactly once,
    re-attaching it when an external reset stripped the root logger."""
    global _configured
    with _lock:
        root = logging.getLogger("repro")
        attached = any(
            getattr(h, "_repro_handler", False) for h in root.handlers
        )
        if _configured and attached:
            return
        if not attached:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
            handler._repro_handler = True  # type: ignore[attr-defined]
            root.addHandler(handler)
        root.propagate = False
        if not _configured:
            root.setLevel(logging.WARNING)
            _apply_env(os.environ.get("REPRO_LOG", ""))
        _configured = True


def _apply_env(spec: str) -> None:
    """Parse ``REPRO_LOG``: a bare level, or ``name=level`` pairs."""
    if not spec:
        return
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, level_name = part.partition("=")
            target = logging.getLogger(name.strip())
        else:
            level_name = part
            target = logging.getLogger("repro")
        level = _resolve_level(level_name)
        if level is not None:
            target.setLevel(level)


def get_logger(component: str) -> logging.Logger:
    """A logger named ``repro.<component>`` under the shared configuration."""
    _configure_root()
    name = component if component.startswith("repro") else f"repro.{component}"
    return logging.getLogger(name)
