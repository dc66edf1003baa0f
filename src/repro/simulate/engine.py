"""A generator-based discrete-event simulation core (simpy-lite).

Processes are Python generators that ``yield`` events; the simulator
advances a virtual clock through a priority queue.  Everything is
deterministic: same processes + same seed ⇒ identical timelines.

An event runs its callbacks (:meth:`Event.then`) when it fires.  A
waiting process is one such callback, and so is the bookkeeping of
:class:`AllOf` and of the resources, which therefore need no helper
processes of their own.

>>> sim = Simulator()
>>> def proc():
...     yield sim.timeout(5.0)
...     return sim.now
>>> p = sim.process(proc())
>>> sim.run()
>>> p.value
5.0
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable

from repro.common.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)
        return self

    def then(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(value)`` when the event fires, or now if it has."""
        if self.triggered:
            fn(self.value)
        else:
            self._callbacks.append(fn)


class AllOf(Event):
    """Fires when every child event has fired."""

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed()
        for event in events:
            event.then(self._count_down)

    def _count_down(self, _value: Any) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


class Process(Event):
    """A running generator; also an event that fires at completion."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self.generator = generator
        sim._schedule(self._step, None)

    def _step(self, sent: Any) -> None:
        try:
            yielded = self.generator.send(sent)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(yielded, Event):
            raise SimulationError(
                f"process yielded {type(yielded).__name__}, expected an Event"
            )
        yielded.then(self._resume)

    def _resume(self, value: Any) -> None:
        self.sim._schedule(self._step, value)


class Simulator:
    """The event loop and virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], Any], Any]] = []
        self._counter = itertools.count()
        self._steps = 0

    # -- event constructors ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event = Event(self)
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), event.succeed, value)
        )
        return event

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        return AllOf(self, events)

    # -- scheduling internals -------------------------------------------------------
    def _schedule(self, fn: Callable[[Any], Any], value: Any) -> None:
        heapq.heappush(self._queue, (self.now, next(self._counter), fn, value))

    # -- the loop ----------------------------------------------------------------------
    def run(self, until: float | None = None, max_steps: int = 20_000_000) -> None:
        """Drain the event queue (optionally stopping at virtual ``until``)."""
        while self._queue:
            at, _, fn, value = heapq.heappop(self._queue)
            if until is not None and at > until:
                self.now = until
                heapq.heappush(self._queue, (at, next(self._counter), fn, value))
                return
            if at < self.now:
                raise SimulationError("time went backwards")
            self.now = at
            fn(value)
            self._steps += 1
            if self._steps > max_steps:
                raise SimulationError(
                    f"simulation exceeded {max_steps} steps (runaway model?)"
                )
