"""The S4 application runtime: nodes, key routing, adapters."""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Type

from repro.core.partition import hash_partitioner
from repro.s4.pe import Event, ProcessingElement

_SHUTDOWN = object()


class S4Node:
    """One processing node: an input queue drained by a worker thread."""

    def __init__(self, node_id: int, app: "S4App") -> None:
        self.node_id = node_id
        self.app = app
        self.inbox: "queue.Queue[Any]" = queue.Queue()
        #: (stream, key) -> PE instance
        self.instances: dict[tuple[str, Any], ProcessingElement] = {}
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"s4-node-{node_id}"
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            item = self.inbox.get()
            if item is _SHUTDOWN:
                for pe in self.instances.values():
                    pe.on_shutdown()
                return
            event: Event = item
            try:
                for stream, prototype in self.app.subscriptions(event.stream):
                    pe = self._instance(stream, prototype, event.key)
                    pe._dispatch(event)
                self.app.note_latency(event)
            finally:
                # cascaded emits inside _dispatch were counted before this
                # decrement, so the pending count can never dip to zero
                # while downstream events are still in flight
                self.app._event_done()

    def _instance(
        self, stream: str, prototype: Type[ProcessingElement], key: Any
    ) -> ProcessingElement:
        ident = (stream, key)
        pe = self.instances.get(ident)
        if pe is None:
            pe = prototype(key)
            pe.attach(self.app.inject)
            self.instances[ident] = pe
        return pe

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)


class S4App:
    """A running S4 application.

    >>> app = S4App(num_nodes=2)
    >>> app.subscribe("words", CounterPE)
    >>> app.inject("words", "cat", 1)   # adapter side
    >>> app.shutdown()
    """

    def __init__(self, num_nodes: int = 2) -> None:
        self._subs: dict[str, list[tuple[str, Type[ProcessingElement]]]] = {}
        self._latency_sink: Callable[[float], None] | None = None
        self._lock = threading.Lock()
        self._quiet = threading.Condition(self._lock)
        self._pending = 0
        self.events_injected = 0
        self.nodes = [S4Node(i, self) for i in range(num_nodes)]

    # -- topology -------------------------------------------------------------
    def subscribe(self, stream: str, prototype: Type[ProcessingElement]) -> None:
        """Register a PE prototype on a stream."""
        self._subs.setdefault(stream, []).append((stream, prototype))

    def subscriptions(self, stream: str) -> list[tuple[str, Type[ProcessingElement]]]:
        return self._subs.get(stream, [])

    def on_latency(self, sink: Callable[[float], None]) -> None:
        """Install an end-to-end latency observer (seconds per event)."""
        self._latency_sink = sink

    def note_latency(self, event: Event) -> None:
        if self._latency_sink is not None:
            import time

            self._latency_sink(time.perf_counter() - event.created_at)

    # -- data path ------------------------------------------------------------
    def inject(self, stream: str, key: Any, value: Any) -> None:
        """Adapter/PE entry point: route an event to its node by key hash."""
        if stream not in self._subs:
            return  # no subscribers; S4 drops the event
        node = self.nodes[hash_partitioner(key, value, len(self.nodes))]
        with self._lock:
            self._pending += 1
            self.events_injected += 1
        node.inbox.put(Event(stream, key, value))

    def _event_done(self) -> None:
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._quiet.notify_all()

    # -- lifecycle ----------------------------------------------------------------
    def shutdown(self, timeout: float = 30.0) -> None:
        """Quiesce (drain cascading events), deliver on_shutdown, stop nodes."""
        import time

        deadline = time.monotonic() + timeout
        with self._lock:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("S4 app did not quiesce")
                self._quiet.wait(remaining)
        for node in self.nodes:
            node.inbox.put(_SHUTDOWN)
        for node in self.nodes:
            node.join(timeout)
