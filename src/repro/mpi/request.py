"""Non-blocking communication requests.

Every request wraps a ``concurrent.futures.Future``.  ``isend`` is
complete at once under the eager protocol (the payload is already in the
destination mailbox); ``issend`` completes when a receive takes the
envelope; ``irecv`` *posts* a receive (:meth:`Endpoint.post`), whose
Future the depositing thread completes with the envelope it matched — in
post order, with no progress thread and no polling.  ``waitany`` waits on
the Futures themselves.
"""

from __future__ import annotations

from concurrent import futures
from typing import Any, Sequence

from repro.mpi.datatypes import Status
from repro.mpi.transport import Endpoint, Envelope

_DONE: futures.Future = futures.Future()
_DONE.set_result(None)


class Request:
    """Base request; already complete (used for eager isend)."""

    #: what the request completes with; ``waitany`` waits on it
    future: futures.Future = _DONE

    def __init__(self, status: Status | None = None) -> None:
        self._status = status or Status()

    def test(self) -> tuple[bool, Any]:
        """(done, payload) without blocking."""
        if not self.future.done():
            return False, None
        return True, self.wait()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete, return the received payload (None for
        sends); ``timeout`` raises ``TimeoutError`` and leaves it pending."""
        self.future.result(timeout)
        return None

    def cancel(self) -> None:
        """Cancel if possible (no-op once complete)."""

    @property
    def status(self) -> Status:
        return self._status


class SendRequest(Request):
    """Synchronous-mode send request: completes when a receive takes the
    envelope."""

    def __init__(self, envelope: Envelope) -> None:
        super().__init__(envelope.status())
        self.future = envelope.matched


class RecvRequest(Request):
    """A posted receive; ``cancel`` withdraws it if nothing matched it yet
    (it then completes with no payload)."""

    def __init__(
        self, endpoint: Endpoint, context: int, source: int, tag: int
    ) -> None:
        super().__init__()
        self._endpoint = endpoint
        self.future = endpoint.post(context, source, tag)

    def wait(self, timeout: float | None = None) -> Any:
        envelope = self.future.result(timeout)
        if envelope is None:  # withdrawn
            return None
        self._status = envelope.status()
        return envelope.payload

    def cancel(self) -> None:
        self._endpoint.withdraw(self.future)


def waitall(requests: Sequence[Request]) -> list[Any]:
    """Wait for every request; returns payloads in request order."""
    return [req.wait() for req in requests]


def testall(requests: Sequence[Request]) -> tuple[bool, list[Any] | None]:
    """All-done test; payloads only when everything completed."""
    results = []
    for req in requests:
        done, payload = req.test()
        if not done:
            return False, None
        results.append(payload)
    return True, results


def waitany(requests: Sequence[Request]) -> tuple[int, Any]:
    """Block until some request completes; returns (index, payload) of the
    first complete one."""
    futures.wait([req.future for req in requests], return_when=futures.FIRST_COMPLETED)
    index = next(i for i, req in enumerate(requests) if req.future.done())
    return index, requests[index].wait()
