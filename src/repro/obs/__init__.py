"""Observability: the flight recorder threaded through the whole stack.

The pieces, all designed to cost nothing when off:

* :mod:`repro.obs.tracer` — nestable spans, instant events and counter
  samples recorded per thread into lock-free (thread-local) buffers.
  The process-wide singleton :data:`~repro.obs.tracer.TRACER` is what
  the instrumented layers (transport, shuffle, sorter, engine,
  checkpoint) talk to; its ``enabled`` flag is the only thing a
  disabled hot path ever touches.
* :mod:`repro.obs.journal` — the per-job JSONL event journal and the
  Chrome ``chrome://tracing`` / Perfetto ``trace.json`` exporter.  A
  traced rank samples its own process CPU and RSS as tracer counters on
  its lane: the Fig-11-style utilization series.
* :mod:`repro.obs.telemetry` — the live telemetry plane: the
  driver-side :class:`TelemetryHub` that files each rank's
  :class:`~repro.core.metrics.WorkerMetrics` record, as its pulse
  carries it, and merges the records into cluster rollups behind a
  Prometheus/RPC endpoint (see docs/OBSERVABILITY.md and ``repro top``).

The counters themselves live in :mod:`repro.core.metrics`: one record
per rank, of which every report here is a view.

:mod:`repro.obs.inspect` turns a journal back into the paper's tables:
per-phase time breakdown, top-N slowest tasks, failure timeline.
"""

from repro.obs.tracer import TRACER, Tracer
from repro.obs.journal import (
    Journal,
    JournalWriter,
    export_chrome,
    read_journal,
    to_chrome_trace,
)
from repro.obs.telemetry import TelemetryHub

__all__ = [
    "TRACER",
    "TelemetryHub",
    "Tracer",
    "Journal",
    "JournalWriter",
    "export_chrome",
    "read_journal",
    "to_chrome_trace",
]
