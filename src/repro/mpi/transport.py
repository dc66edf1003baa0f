"""Message transport: per-rank endpoints with MPI matching semantics.

Each global rank owns an :class:`Endpoint`.  Senders deposit
:class:`Envelope` objects directly into the destination endpoint (eager
protocol); receives match against ``(context, source, tag)`` with
wildcard support.

How envelopes *move* between ranks is pluggable.  :class:`Transport` is
the seam: runtimes deposit through it and fetch mailboxes from it, never
touching a peer's :class:`Endpoint` directly.  :class:`LocalTransport`
below is the zero-copy in-process implementation (every rank's mailbox
lives in this interpreter; a deposit is a dict hit + ``deque.append``).
:mod:`repro.mpi.socket_transport` adds the process-per-rank
implementation, where remote deposits are pickled and framed over a
local socket to a driver-side router.  The :class:`Endpoint` matching
engine is shared by both — only delivery differs.

Matching is MPI's, with its two queues.  An arriving envelope completes
the earliest *posted* receive it fits — a ``concurrent.futures.Future``
that the depositing thread completes, waking that receiver and no other.
Otherwise it waits in the *unexpected* queue for the next receive posted
that fits it.  A blocking ``recv``, an ``irecv``, a blocking ``probe``
(which takes nothing) and a listener (which stays posted) are all posted
receives, so receives are matched in the order they were posted.

The unexpected queue is indexed: every distinct ``(context, source,
tag)`` triple gets its own FIFO sub-queue, so the exact-match common case
(collective and control traffic) is an O(1) dict hit + ``popleft``.
Wildcard receives (``ANY_SOURCE``/``ANY_TAG``) pick the lowest-``seq``
head across the matching sub-queues, which keeps MPI's non-overtaking
rule between the indexed and wildcard paths: for a given (source,
context, tag) messages are matched in send order.

A runtime-wide abort flag fails every posted receive so one failing rank
cannot deadlock the world.

Chaos testing hooks into the deposit path: every transport carries an
optional :class:`FaultInjector` that can drop, delay, duplicate, or
truncate matching messages, and can *sever* a global rank entirely (all
its traffic silently vanishes, simulating a dead or partitioned
process).  Faults are deterministic — rules match by count, never by
random draw — so chaos tests are reproducible.
"""

from __future__ import annotations

import itertools
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.common.errors import MPIAbort, MPIError
from repro.common.logging import get_logger
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Status
from repro.obs.tracer import TRACER as _T

_log = get_logger("mpi.transport")

_seq = itertools.count()


class Envelope:
    """One in-flight message."""

    __slots__ = (
        "context", "source", "tag", "payload", "nbytes", "seq", "matched",
        "origin",
    )

    def __init__(
        self,
        context: int,
        source: int,
        tag: int,
        payload: Any,
        nbytes: int,
        origin: int = -1,
    ) -> None:
        self.context = context
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.seq = next(_seq)
        #: global endpoint rank of the sender (-1 when unknown); ``source``
        #: is the communicator-local rank, this is the runtime-wide identity
        #: used by fault-injection rules and failure diagnostics
        self.origin = origin
        #: a synchronous send's completion (``issend`` sets it); None for
        #: every other envelope
        self.matched: futures.Future | None = None

    def matches(self, context: int, source: int, tag: int) -> bool:
        return (
            self.context == context
            and (source == ANY_SOURCE or self.source == source)
            and (tag == ANY_TAG or self.tag == tag)
        )

    def taken(self) -> None:
        """A receive took this envelope: complete its synchronous send."""
        if self.matched is not None:
            self.matched.set_result(None)

    def status(self) -> Status:
        return Status(self.source, self.tag, self.nbytes)


class AbortFlag:
    """Runtime-wide abort latch shared by every endpoint: the one signal
    that wakes every waiter, through the callbacks :meth:`watch` collects."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._watchers: list[Callable[[], None]] = []
        self.reason: str = ""
        self.errorcode: int = 0

    def is_set(self) -> bool:
        return self._event.is_set()

    def trip(self, reason: str, errorcode: int = 1) -> None:
        """Latch the first reason, then run every watcher once."""
        with self._lock:
            if self._event.is_set():
                return
            self.reason = reason
            self.errorcode = errorcode
            self._event.set()
            watchers, self._watchers = self._watchers, []
        for callback in watchers:
            callback()

    def watch(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once when the flag trips — at once if it has."""
        with self._lock:
            if not self._event.is_set():
                self._watchers.append(callback)
                return
        callback()

    def check(self) -> None:
        if self._event.is_set():
            raise MPIAbort(self.errorcode, self.reason)


class TruncatedPayload:
    """Marker wrapping a payload mangled by a ``truncate`` fault.

    Receivers that unpack structured payloads should treat this as wire
    corruption and fail loudly instead of interpreting garbage.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:
        return f"<TruncatedPayload of {type(self.original).__name__}>"


_FAULT_ACTIONS = ("drop", "delay", "duplicate", "truncate", "kill_rank")


@dataclass
class FaultRule:
    """One deterministic fault: a selector plus an action.

    Selector fields that are ``None`` match anything; ``origin``/``dest``
    are *global* endpoint ranks.  ``skip_first`` lets the first N matching
    messages through unharmed, and ``max_matches`` bounds how many
    messages the action is applied to — a rule with ``max_matches=2``
    models a transient fault that heals after two hits.

    ``kill_rank`` rules SIGKILL the OS process hosting ``target`` (or the
    matching envelope's origin rank when ``target`` is ``None``) — a real
    hard kill, not a cooperative sever, so recovery tests exercise the
    actual no-goodbye disconnect path.  Only the process backend can
    honor it (the runtime installs the kill hook); elsewhere it is a
    counted no-op.
    """

    action: str
    tag: int | None = None
    context: int | None = None
    origin: int | None = None
    dest: int | None = None
    #: extra predicate over the envelope (payload inspection etc.)
    match: Callable[[Envelope], bool] | None = None
    skip_first: int = 0
    max_matches: int | None = None
    delay_seconds: float = 0.0
    #: kill_rank only: global rank whose host process is SIGKILLed
    target: int | None = None
    #: messages that matched the selector / had the action applied
    hits: int = 0
    applied: int = 0

    def __post_init__(self) -> None:
        if self.action not in _FAULT_ACTIONS:
            raise MPIError(
                f"unknown fault action {self.action!r}; use one of {_FAULT_ACTIONS}"
            )

    def selects(self, dest_rank: int, envelope: Envelope) -> bool:
        return (
            (self.tag is None or envelope.tag == self.tag)
            and (self.context is None or envelope.context == self.context)
            and (self.origin is None or envelope.origin == self.origin)
            and (self.dest is None or dest_rank == self.dest)
            and (self.match is None or self.match(envelope))
        )


class FaultInjector:
    """Deterministic transport chaos: drop/delay/duplicate/truncate/sever.

    Installed runtime-wide (``MPIRuntime(fault_injector=...)`` or
    ``mpidrun(..., fault_injector=...)``); every :meth:`Transport.deposit`
    consults it before routing.  The first eligible rule wins.  Rule
    hit counters persist across job restarts, so a ``max_matches`` rule
    naturally models a transient fault the retry no longer sees.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rules: list[FaultRule] = []
        self._severed: set[int] = set()
        self.counts: dict[str, int] = {a: 0 for a in _FAULT_ACTIONS}
        self.counts["sever"] = 0
        #: audit trail: (action, origin, dest, context, tag) per applied fault
        self.events: list[tuple[str, int, int, int, int]] = []
        #: kill hook installed by the process runtime: global rank -> bool
        #: (SIGKILLed the hosting process)
        self.kill_callback: Callable[[int], bool] | None = None

    # -- configuration ------------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        with self._lock:
            self.rules.append(rule)
        return rule

    def drop(self, **selector: Any) -> FaultRule:
        return self.add_rule(FaultRule("drop", **selector))

    def delay(self, seconds: float, **selector: Any) -> FaultRule:
        return self.add_rule(FaultRule("delay", delay_seconds=seconds, **selector))

    def duplicate(self, **selector: Any) -> FaultRule:
        return self.add_rule(FaultRule("duplicate", **selector))

    def truncate(self, **selector: Any) -> FaultRule:
        return self.add_rule(FaultRule("truncate", **selector))

    def kill_rank(self, target: int | None = None, **selector: Any) -> FaultRule:
        """SIGKILL the process hosting ``target`` (default: the matching
        envelope's origin) when the selector fires.  Process backend only."""
        return self.add_rule(FaultRule("kill_rank", target=target, **selector))

    def sever(self, *ranks: int) -> None:
        """Cut global rank(s) off: all their traffic, both directions,
        silently disappears (a crashed or partitioned process)."""
        with self._lock:
            self._severed.update(ranks)

    def restore(self, *ranks: int) -> None:
        with self._lock:
            self._severed.difference_update(ranks)

    @property
    def severed(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._severed)

    # -- the hook -----------------------------------------------------------
    def apply(self, dest_rank: int, envelope: Envelope) -> list[Envelope]:
        """Called on the sending thread; returns the envelopes to deliver
        (empty = dropped).  May sleep for ``delay`` faults."""
        with self._lock:
            if envelope.origin in self._severed or dest_rank in self._severed:
                self.counts["sever"] += 1
                self._record("sever", dest_rank, envelope)
                return []
            rule = None
            for candidate in self.rules:
                if not candidate.selects(dest_rank, envelope):
                    continue
                candidate.hits += 1
                if candidate.hits <= candidate.skip_first:
                    continue
                if (
                    candidate.max_matches is not None
                    and candidate.applied >= candidate.max_matches
                ):
                    continue
                candidate.applied += 1
                rule = candidate
                break
            if rule is not None:
                self.counts[rule.action] += 1
                self._record(rule.action, dest_rank, envelope)
        if rule is None:
            return [envelope]
        if rule.action == "kill_rank":
            # the envelope itself is delivered untouched: the fault is the
            # SIGKILL, fired outside the lock (the hook may log/trace)
            victim = rule.target if rule.target is not None else envelope.origin
            if self.kill_callback is not None:
                self.kill_callback(victim)
            else:
                _log.warning(
                    "kill_rank rule fired for rank %d but no kill hook is "
                    "installed (thread backend?); envelope delivered", victim,
                )
            return [envelope]
        if rule.action == "drop":
            return []
        if rule.action == "delay":
            # sleeping in the depositing thread preserves per-channel FIFO
            # order: delivery is slowed, never reordered
            time.sleep(rule.delay_seconds)
            return [envelope]
        if rule.action == "duplicate":
            copy = Envelope(
                envelope.context,
                envelope.source,
                envelope.tag,
                envelope.payload,
                envelope.nbytes,
                origin=envelope.origin,
            )
            return [envelope, copy]
        # truncate: mangle the payload in place so receivers see corruption
        envelope.payload = TruncatedPayload(envelope.payload)
        envelope.nbytes = max(0, envelope.nbytes // 2)
        return [envelope]

    def _record(self, action: str, dest_rank: int, envelope: Envelope) -> None:
        self.events.append(
            (action, envelope.origin, dest_rank, envelope.context, envelope.tag)
        )
        # chaos firings land on the same timeline as the failures they cause
        if _T.enabled:
            _T.instant(
                f"fault.{action}", cat="fault",
                args={
                    "origin": envelope.origin, "dest": dest_rank,
                    "context": envelope.context, "tag": envelope.tag,
                },
            )


class _Posted(futures.Future):
    """A posted receive, or a blocking probe (``take`` false): completed
    by the thread that deposits the first envelope it fits — a receive
    with the envelope, a probe with its :class:`Status`."""

    def __init__(self, context: int, source: int, tag: int, take: bool) -> None:
        super().__init__()
        self.context, self.source, self.tag, self.take = context, source, tag, take


class Endpoint:
    """Mailbox of one global rank: the posted and the unexpected queue.

    All state is guarded by one lock; a posted receive is completed
    outside it.  The unexpected queue maps each ``(context, source, tag)``
    key to a FIFO deque of envelopes (removed from the index when drained,
    so wildcard scans only visit keys with pending traffic).  An envelope
    enters it only when no posted receive fits, and a receive is posted
    only when nothing queued fits, so the two never hold a pair that
    matches.  A ``(context, tag)`` with a listener (:meth:`listen`) is a
    receive that stays posted ahead of every other: its envelopes go to
    the handler as they arrive, whichever receive was posted first.
    """

    def __init__(self, rank: int, abort: AbortFlag) -> None:
        self.rank = rank
        self.abort = abort
        self._lock = threading.Lock()
        #: the unexpected queue: (context, source, tag) -> FIFO of envelopes
        self._queues: dict[tuple[int, int, int], deque[Envelope]] = {}
        #: posted receives and blocking probes, in post order
        self._posted: list[_Posted] = []
        #: (context, tag) -> handler of every envelope deposited there
        self._listeners: dict[tuple[int, int], Callable[[Envelope], None]] = {}
        #: currently queued envelopes
        self._pending = 0
        #: cumulative payload bytes deposited into this mailbox
        self._bytes_in = 0

    # -- sender side --------------------------------------------------------
    def deposit(self, envelope: Envelope) -> None:
        """Called by the thread that delivers a message: the sender's, or
        the wire reader's.  The receive the envelope completes, or its
        listener's handler, runs on this thread, outside the lock."""
        fits: list[_Posted] = []
        with self._lock:
            self._bytes_in += envelope.nbytes
            handler = self._listeners.get((envelope.context, envelope.tag))
            if handler is None:
                if self._posted:
                    fits = self._fits(envelope)
                if not fits or not fits[-1].take:
                    key = (envelope.context, envelope.source, envelope.tag)
                    q = self._queues.get(key)
                    if q is None:
                        self._queues[key] = q = deque()
                    q.append(envelope)
                    self._pending += 1
            if _T.enabled:
                _T.counter(f"transport.r{self.rank}.pending", self._pending)
                _T.counter(f"transport.r{self.rank}.bytes", self._bytes_in)
        if handler is not None:
            envelope.taken()
            handler(envelope)
            return
        for posted in fits:
            if posted.take:
                envelope.taken()
                posted.set_result(envelope)
            else:
                posted.set_result(envelope.status())

    def _fits(self, envelope: Envelope) -> list[_Posted]:
        """Unpost, in post order, the probes ``envelope`` completes up to
        the earliest receive it completes, that receive last (lock held)."""
        fits = []
        for posted in self._posted:
            if envelope.matches(posted.context, posted.source, posted.tag):
                fits.append(posted)
                if posted.take:
                    break
        for posted in fits:
            self._posted.remove(posted)
        return fits

    def listen(
        self, context: int, tag: int, handler: Callable[[Envelope], None] | None
    ) -> list[Envelope]:
        """From now on, hand every envelope deposited on ``(context, tag)``
        to ``handler``, on the depositing thread, instead of matching it;
        returns the ones already queued there, in arrival order, for the
        caller to handle first.  ``None`` makes the tag queue again.  A
        handler that sent could deadlock a wire reader on its own socket:
        it must not."""
        with self._lock:
            if handler is None:
                self._listeners.pop((context, tag), None)
                return []
            self._listeners[context, tag] = handler
            backlog: list[Envelope] = []
            for key in [k for k in self._queues if k[0] == context and k[2] == tag]:
                backlog.extend(self._queues.pop(key))
            self._pending -= len(backlog)
        backlog.sort(key=lambda envelope: envelope.seq)
        for envelope in backlog:
            envelope.taken()
        return backlog

    def wake(self) -> None:
        """Fail every posted receive and probe with the abort (runs when
        the abort flag trips)."""
        with self._lock:
            posted, self._posted = self._posted, []
        for receive in posted:
            receive.set_exception(MPIAbort(self.abort.errorcode, self.abort.reason))

    # -- matching ---------------------------------------------------------------
    def _match(
        self, context: int, source: int, tag: int, pop: bool
    ) -> Envelope | None:
        """Find (and optionally remove) the first matching queued envelope
        (lock held)."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (context, source, tag)
            q = self._queues.get(key)
            if not q:
                return None
            if not pop:
                return q[0]
            envelope = q.popleft()
            self._pending -= 1
            if not q:
                del self._queues[key]
            return envelope
        # wildcard path: the earliest matching message is the lowest-seq
        # head among matching sub-queues (each sub-queue is seq-ordered)
        best_q: deque[Envelope] | None = None
        best: Envelope | None = None
        best_key = None
        for key, q in self._queues.items():
            if key[0] != context:
                continue
            if source != ANY_SOURCE and key[1] != source:
                continue
            if tag != ANY_TAG and key[2] != tag:
                continue
            head = q[0]
            if best is None or head.seq < best.seq:
                best, best_q, best_key = head, q, key
        if best is None or not pop:
            return best
        assert best_q is not None
        best_q.popleft()
        self._pending -= 1
        if not best_q:
            del self._queues[best_key]
        return best

    def _match_or_post(
        self, context: int, source: int, tag: int, take: bool, block: bool = True
    ) -> Envelope | _Posted | None:
        """The queued envelope that fits (removed when ``take``); else,
        when ``block``, a receive or probe newly posted for it."""
        with self._lock:
            self.abort.check()
            envelope = self._match(context, source, tag, pop=take)
            if envelope is not None or not block:
                return envelope
            posted = _Posted(context, source, tag, take)
            self._posted.append(posted)
            return posted

    # -- receiver side -------------------------------------------------------
    def receive(
        self, context: int, source: int = ANY_SOURCE, tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Envelope:
        """Take the first queued envelope that fits, else post a receive
        and wait for it; ``timeout`` withdraws it and raises
        :class:`TimeoutError` — unless it matched meanwhile."""
        found = self._match_or_post(context, source, tag, take=True)
        if isinstance(found, Envelope):
            found.taken()
            return found
        trace_t0 = _T.clock() if _T.enabled else 0.0
        try:
            envelope = found.result(timeout)
        except futures.TimeoutError:
            if self.withdraw(found):
                raise TimeoutError(
                    f"recv(context={context}, source={source}, "
                    f"tag={tag}) timed out on rank {self.rank}"
                ) from None
            envelope = found.result()
        if _T.enabled:
            _T.complete(
                "transport.recv.wait", trace_t0, _T.clock() - trace_t0,
                cat="transport", args={"source": source, "tag": tag},
            )
        return envelope

    def post(self, context: int, source: int, tag: int) -> futures.Future:
        """Post a receive (``irecv``): the Future of the envelope it takes,
        already complete when one was queued."""
        found = self._match_or_post(context, source, tag, take=True)
        if isinstance(found, _Posted):
            return found
        found.taken()
        done: futures.Future = futures.Future()
        done.set_result(found)
        return done

    def withdraw(self, posted: futures.Future) -> bool:
        """Unpost a receive nothing has matched yet: it completes with
        None.  False when it had matched meanwhile (or was never posted)."""
        with self._lock:
            try:
                self._posted.remove(posted)
            except ValueError:
                return False
        posted.set_result(None)
        return True

    def probe(
        self, context: int, source: int = ANY_SOURCE, tag: int = ANY_TAG,
        block: bool = True,
    ) -> Status | None:
        """Peek for a matching message without consuming it; a blocking
        probe is a posted receive that takes nothing."""
        found = self._match_or_post(context, source, tag, take=False, block=block)
        if isinstance(found, _Posted):
            return found.result()
        return None if found is None else found.status()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"pending": self._pending, "bytes_in": self._bytes_in,
                    "posted": len(self._posted)}


class Transport(ABC):
    """How envelopes move between global ranks.

    A runtime owns exactly one transport.  Communicators deposit through
    :meth:`deposit` and receive from the mailbox :meth:`mailbox` returns;
    they never reach into a peer's endpoint directly, which is what makes
    the rank substrate (threads vs. processes) swappable underneath them.

    Every transport hosts the mailboxes of the ranks that live in its
    interpreter and applies the runtime's fault injector where a message
    enters it; an implementation only says where a message for a given
    rank goes (:meth:`_route`).
    """

    def __init__(
        self,
        abort_flag: AbortFlag,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.abort_flag = abort_flag
        self.fault_injector = fault_injector
        self._lock = threading.Lock()
        self._endpoints: dict[int, Endpoint] = {}
        abort_flag.watch(self.wake_all)

    def register(self, gid: int) -> Endpoint:
        """Create (or return) the mailbox for a rank hosted *here*."""
        with self._lock:
            endpoint = self._endpoints.get(gid)
            if endpoint is None:
                endpoint = self._endpoints[gid] = Endpoint(gid, self.abort_flag)
            return endpoint

    def mailbox(self, gid: int) -> Endpoint:
        """The local mailbox of global rank ``gid`` (receive side)."""
        try:
            return self._endpoints[gid]
        except KeyError:
            raise MPIError(
                f"global rank {gid} has no mailbox in this process (only "
                f"the process hosting a rank may receive for it)"
            ) from None

    def local_endpoints(self) -> Iterable[Endpoint]:
        """Every mailbox hosted in this interpreter."""
        with self._lock:
            return list(self._endpoints.values())

    def deposit(self, dest: int, envelope: Envelope) -> None:
        """Deliver ``envelope`` to global rank ``dest``, wherever it runs.
        Called by the *sender's* thread, which is also where injected
        faults happen (a ``delay`` sleeps here, preserving FIFO order)."""
        injector = self.fault_injector
        if injector is None:
            self._route(dest, envelope)
            return
        for out in injector.apply(dest, envelope):
            self._route(dest, out)

    @abstractmethod
    def _route(self, dest: int, envelope: Envelope) -> None:
        """Move one envelope, already past fault injection, to ``dest``."""

    def wake_all(self) -> None:
        """Wake every blocked receiver everywhere; runs when the abort
        flag trips."""
        for endpoint in self.local_endpoints():
            endpoint.wake()

    def shutdown(self) -> None:
        """Release transport resources (sockets, worker links...)."""


class LocalTransport(Transport):
    """The in-process implementation: every rank's mailbox lives here.

    A deposit is a direct call into the destination endpoint — zero
    copies, no serialization.
    """

    def _route(self, dest: int, envelope: Envelope) -> None:
        self.mailbox(dest).deposit(envelope)
