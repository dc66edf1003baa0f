"""Intercommunicators: two disjoint groups exchanging messages.

DataMPI's ``mpidrun`` talks to its working processes over an
intercommunicator (paper §IV-B, Figure 4): the driver is one group, the
workers the other, and the channel carries control-protocol RPC.

The intercomm shares one message context between the two sides — legal
because intercommunicator traffic is always cross-group, so a message's
source rank is unambiguous.  A merge context is reserved at creation so
``merge()`` needs no extra negotiation round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.records import _size_of
from repro.mpi.comm import Receiving
from repro.mpi.request import Request
from repro.mpi.transport import Envelope

if TYPE_CHECKING:
    from repro.mpi.comm import Intracomm
    from repro.mpi.runtime import MPIRuntime


class Intercomm(Receiving):
    """One side of an intercommunicator.

    ``side`` 0 is the spawning/parent group, 1 the spawned/child group;
    it selects the merge ordering (parent ranks first, like
    ``MPI_Intercomm_merge`` with ``high`` on the children).
    """

    def __init__(
        self,
        runtime: "MPIRuntime",
        context: int,
        local_group: tuple[int, ...],
        remote_group: tuple[int, ...],
        rank: int,
        side: int,
        name: str = "intercomm",
    ) -> None:
        self.runtime = runtime
        self.context = context
        self.local_group = local_group
        self.remote_group = remote_group
        self._rank = rank
        self.side = side
        self.name = name

    # -- introspection ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self.local_group)

    @property
    def remote_size(self) -> int:
        return len(self.remote_group)

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py-compatible
        return self._rank

    def Get_size(self) -> int:  # noqa: N802
        return self.size

    def Get_remote_size(self) -> int:  # noqa: N802
        return self.remote_size

    def __repr__(self) -> str:
        return (
            f"<Intercomm {self.name} side={self.side} rank={self._rank}"
            f" local={self.size} remote={self.remote_size}>"
        )

    def _my_endpoint(self):
        return self.runtime.mailbox(self.local_group[self._rank])

    # -- point-to-point (dest/source are REMOTE ranks; receives: Receiving) ---
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._deposit(obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        return Request(self._deposit(obj, dest, tag).status())

    def _deposit(self, obj: Any, dest: int, tag: int) -> Envelope:
        envelope = Envelope(
            self.context, self._rank, tag, obj, _size_of(obj),
            origin=self.local_group[self._rank],
        )
        self.runtime.deposit(self.remote_group[dest], envelope)
        return envelope

    # -- merge ----------------------------------------------------------------
    def merge(self) -> "Intracomm":
        """Merge both groups into one intracommunicator.

        Parent-side (side 0) ranks come first.  The merged contexts were
        reserved when the intercomm was created, so no negotiation is
        needed — every rank computes the same result locally.
        """
        from repro.mpi.comm import Intracomm

        if self.side == 0:
            group = self.local_group + self.remote_group
            rank = self._rank
        else:
            group = self.remote_group + self.local_group
            rank = len(self.remote_group) + self._rank
        return Intracomm(
            self.runtime,
            self.context + 2,
            group,
            rank,
            name=f"{self.name}.merged",
        )
