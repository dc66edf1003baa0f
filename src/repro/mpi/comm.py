"""Intracommunicators: point-to-point and collective operations.

A :class:`Intracomm` instance is *per rank* (each rank thread holds its
own), carrying the rank's index, the group (tuple of global endpoint
ids) and two context ids: one for user point-to-point traffic, one for
internal/collective traffic.  Collectives agree on tags via a per-comm
sequence number — legal because MPI requires all ranks to issue
collectives on a communicator in the same order.

Collective algorithms follow the classic implementations: binomial-tree
broadcast, linear gather/scatter/reduce (rank-ordered folding keeps
non-commutative ops correct), dissemination barrier, and eager
all-to-all.
"""

from __future__ import annotations

from concurrent import futures
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import MPIError
from repro.common.records import _size_of
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Op, Status
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.transport import Endpoint, Envelope

if TYPE_CHECKING:
    from repro.mpi.intercomm import Intercomm
    from repro.mpi.runtime import MPIRuntime


class Receiving:
    """The receive side both communicator kinds share: matched on this
    rank's mailbox under the communicator's point-to-point ``context``
    (``source`` is a rank of the remote group on an intercommunicator)."""

    context: int

    def _my_endpoint(self) -> Endpoint:
        raise NotImplementedError

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Blocking matched receive; returns the payload object."""
        envelope = self._my_endpoint().receive(
            self.context, source, tag, timeout=timeout
        )
        if status is not None:
            status.source, status.tag, status.count = (
                envelope.source, envelope.tag, envelope.nbytes
            )
        return envelope.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        return RecvRequest(self._my_endpoint(), self.context, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        status = self._my_endpoint().probe(self.context, source, tag, block=True)
        assert status is not None
        return status

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        return self._my_endpoint().probe(self.context, source, tag, block=False)


class Intracomm(Receiving):
    """An intra-communicator bound to one rank."""

    def __init__(
        self,
        runtime: "MPIRuntime",
        context: int,
        group: tuple[int, ...],
        rank: int,
        name: str = "comm",
    ) -> None:
        self.runtime = runtime
        self.context = context  # p2p context; context+1 is collective space
        self.group = group
        self._rank = rank
        self.name = name
        self._coll_seq = 0
        #: set on spawned worlds: intercomm back to the parent
        self.parent: "Intercomm | None" = None

    # -- introspection ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self.group)

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py-compatible
        return self._rank

    def Get_size(self) -> int:  # noqa: N802
        return self.size

    def Get_parent(self) -> "Intercomm | None":  # noqa: N802
        return self.parent

    def __repr__(self) -> str:
        return f"<Intracomm {self.name} rank={self._rank}/{self.size}>"

    def _global(self, rank: int) -> int:
        try:
            return self.group[rank]
        except IndexError:
            raise MPIError(
                f"rank {rank} out of range for {self.name} (size {self.size})"
            ) from None

    def _my_endpoint(self):
        # receives always match against *this* rank's mailbox, which is
        # local on every backend; sends go through runtime.deposit so the
        # transport can route them to wherever the destination rank runs
        return self.runtime.mailbox(self.group[self._rank])

    # -- point-to-point -----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Standard-mode send (eager: buffers and returns immediately)."""
        self._deposit(self.context, obj, dest, tag)

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: returns only after the receiver matched it."""
        self.issend(obj, dest, tag).wait()

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; complete immediately under the eager protocol."""
        envelope = self._deposit(self.context, obj, dest, tag)
        return Request(envelope.status())

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Synchronous-mode non-blocking send: completes once a receive
        took the message."""
        envelope = self._deposit(self.context, obj, dest, tag, futures.Future())
        return SendRequest(envelope)

    def listen(
        self, tag: int, handler: Callable[[Envelope], None] | None
    ) -> list[Envelope]:
        """Handle every message on ``tag`` as it arrives, on the thread that
        delivers it, instead of queueing it for a ``recv``; returns those
        already queued, in arrival order.  ``None`` queues again.  The
        handler must not send (:meth:`Endpoint.listen`)."""
        return self._my_endpoint().listen(self.context, tag, handler)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Any:
        self.isend(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    def abort(self, errorcode: int = 1, reason: str = "MPI_Abort") -> None:
        """Kill the whole runtime; peers blocked in MPI calls raise MPIAbort."""
        self.runtime.abort(reason, errorcode)

    def _deposit(
        self, context: int, obj: Any, dest: int, tag: int,
        matched: futures.Future | None = None,
    ) -> Envelope:
        if tag < 0:
            raise MPIError(f"negative user tag {tag}")
        envelope = Envelope(
            context, self._rank, tag, obj, _size_of(obj),
            origin=self.group[self._rank],
        )
        envelope.matched = matched
        self.runtime.deposit(self._global(dest), envelope)
        return envelope

    # -- internal (collective-context) p2p -----------------------------------
    def _coll_send(self, obj: Any, dest: int, tag: int) -> None:
        envelope = Envelope(
            self.context + 1, self._rank, tag, obj, _size_of(obj),
            origin=self.group[self._rank],
        )
        self.runtime.deposit(self._global(dest), envelope)

    def _coll_recv(self, source: int, tag: int) -> Any:
        return (
            self._my_endpoint().receive(self.context + 1, source, tag).payload
        )

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    # -- collectives ----------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2(p)) rounds."""
        tag = self._next_coll_tag()
        size, rank = self.size, self._rank
        if size == 1:
            return
        mask = 1
        while mask < size:
            self._coll_send(None, (rank + mask) % size, tag)
            self._coll_recv((rank - mask) % size, tag)
            mask <<= 1

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Binomial-tree broadcast; every rank returns root's object."""
        tag = self._next_coll_tag()
        size, rank = self.size, self._rank
        if size == 1:
            return obj
        relrank = (rank - root) % size
        mask = 1
        while mask < size:
            if relrank & mask:
                src = (relrank - mask + root) % size
                obj = self._coll_recv(src, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if relrank + mask < size:
                dst = (relrank + mask + root) % size
                self._coll_send(obj, dst, tag)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Linear gather; root returns the rank-ordered list."""
        tag = self._next_coll_tag()
        if self._rank != root:
            self._coll_send(obj, root, tag)
            return None
        result: list[Any] = [None] * self.size
        result[root] = obj
        for src in range(self.size):
            if src != root:
                result[src] = self._coll_recv(src, tag)
        return result

    def scatter(self, objs: Sequence[Any] | None = None, root: int = 0) -> Any:
        """Root distributes ``objs[i]`` to rank i."""
        tag = self._next_coll_tag()
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise MPIError(
                    f"scatter needs exactly {self.size} items at root, got "
                    f"{None if objs is None else len(objs)}"
                )
            for dst in range(self.size):
                if dst != root:
                    self._coll_send(objs[dst], dst, tag)
            return objs[root]
        return self._coll_recv(root, tag)

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Op, root: int = 0) -> Any | None:
        """Rank-ordered fold at root (correct for non-commutative ops)."""
        values = self.gather(obj, root=root)
        if values is None:
            return None
        return op.reduce_all(values)

    def allreduce(self, obj: Any, op: Op) -> Any:
        reduced = self.reduce(obj, op, root=0)
        return self.bcast(reduced, root=0)

    def scan(self, obj: Any, op: Op) -> Any:
        """Inclusive prefix reduction along rank order."""
        tag = self._next_coll_tag()
        partial = obj
        if self._rank > 0:
            upstream = self._coll_recv(self._rank - 1, tag)
            partial = op(upstream, obj)
        if self._rank + 1 < self.size:
            self._coll_send(partial, self._rank + 1, tag)
        return partial

    def exscan(self, obj: Any, op: Op) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None`` (undefined
        in MPI; None is this library's explicit rendering)."""
        tag = self._next_coll_tag()
        upstream = None
        if self._rank > 0:
            upstream = self._coll_recv(self._rank - 1, tag)
        if self._rank + 1 < self.size:
            downstream = obj if upstream is None else op(upstream, obj)
            self._coll_send(downstream, self._rank + 1, tag)
        return upstream

    def reduce_scatter(self, objs: Sequence[Any], op: Op) -> Any:
        """Element-wise reduce of each rank's vector, then scatter: rank i
        returns ``op``-fold of ``objs[i]`` across all ranks."""
        if len(objs) != self.size:
            raise MPIError(
                f"reduce_scatter needs exactly {self.size} items, got {len(objs)}"
            )
        columns = self.alltoall(list(objs))
        return op.reduce_all(columns)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Each rank sends ``objs[i]`` to rank i; returns the received row.

        This is the "relaxed all-to-all pattern" underpinning the bipartite
        shuffle (paper §IV-D); eager sends make it deadlock-free.
        """
        tag = self._next_coll_tag()
        if len(objs) != self.size:
            raise MPIError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )
        for dst in range(self.size):
            if dst != self._rank:
                self._coll_send(objs[dst], dst, tag)
        result: list[Any] = [None] * self.size
        result[self._rank] = objs[self._rank]
        for src in range(self.size):
            if src != self._rank:
                result[src] = self._coll_recv(src, tag)
        return result

    # -- communicator management ----------------------------------------------
    def split(self, color: int | None, key: int = 0) -> "Intracomm | None":
        """Partition the communicator by ``color``; order by ``(key, rank)``.

        ``color=None`` mirrors ``MPI_UNDEFINED``: the rank gets no new
        communicator but still participates in the collective exchange.
        """
        tag = self._next_coll_tag()
        info = self.allgather((color, key, self._rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in info if c == color
        )  # (key, parent rank) pairs
        parent_ranks = [r for _, r in members]
        new_rank = parent_ranks.index(self._rank)
        leader = parent_ranks[0]
        if self._rank == leader:
            context = self.runtime.allocate_context()
            for member in parent_ranks[1:]:
                self._coll_send(context, member, tag)
        else:
            context = self._coll_recv(leader, tag)
        new_group = tuple(self._global(r) for r in parent_ranks)
        return Intracomm(
            self.runtime,
            context,
            new_group,
            new_rank,
            name=f"{self.name}.split({color})",
        )

    def dup(self) -> "Intracomm":
        new = self.split(color=0, key=self._rank)
        assert new is not None
        new.name = f"{self.name}.dup"
        return new

    def free(self) -> None:
        """Release the communicator (mailboxes are GC'd with the runtime)."""

    # -- dynamic process management ---------------------------------------------
    def spawn(
        self,
        fn: Callable[..., Any],
        nprocs: int,
        args: tuple = (),
        name: str = "spawned",
    ) -> "Intercomm":
        """Collectively spawn ``nprocs`` child ranks running ``fn(child_comm,
        *args)``; returns the parent side of the intercommunicator.

        Mirrors ``MPI_Comm_spawn``: children see their own world communicator
        whose ``parent`` attribute is the child side of the intercomm
        (paper §IV-B: working processes "are also connected with their
        parent, mpidrun, by an intercommunicator").
        """
        from repro.mpi.intercomm import Intercomm

        tag = self._next_coll_tag()
        if self._rank == 0:
            child_group, inter_context = self.runtime.launch_children(
                fn, nprocs, args, parent_group=self.group, name=name
            )
            payload = (child_group, inter_context)
            for dst in range(1, self.size):
                self._coll_send(payload, dst, tag)
        else:
            child_group, inter_context = self._coll_recv(0, tag)
        return Intercomm(
            self.runtime,
            inter_context,
            local_group=self.group,
            remote_group=child_group,
            rank=self._rank,
            side=0,
            name=f"{name}.parent",
        )
