"""The MPI_D programming interface (paper Tables I & II, Listing 1).

Python rendering of the Java binding used in the paper::

    conf = {MPI_D_Constants.KEY_CLASS: "java.lang.String",
            MPI_D_Constants.VALUE_CLASS: "java.lang.String"}
    MPI_D.Init(args, MPI_D.Mode.COMMON, conf)
    if MPI_D.COMM_BIPARTITE_O is not None:
        rank = MPI_D.Comm_rank(MPI_D.COMM_BIPARTITE_O)
        size = MPI_D.Comm_size(MPI_D.COMM_BIPARTITE_O)
        for key in load_keys(rank, size):
            MPI_D.Send(key, "")
    elif MPI_D.COMM_BIPARTITE_A is not None:
        kv = MPI_D.Recv()
        while kv is not None:
            output(kv[0], kv[1])
            kv = MPI_D.Recv()
    MPI_D.Finalize()

The three pairs of basic functions are exactly Table I; the optional
user functions of Table II (``MPI_D_COMPARE``, ``MPI_D_PARTITION``,
``MPI_D_COMBINE``) are supplied on the job object (or via ``conf``) and
invoked by the library.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.common.errors import DataMPIError, MPI_D_Exception  # noqa: F401 re-export
from repro.core import context as _context
from repro.core.constants import Mode, MPI_D_Constants  # noqa: F401 re-export
from repro.core.context import BipartiteComm


class _MPIDMeta(type):
    """Metaclass exposing the bipartite communicators as class attributes.

    They are thread-local underneath: each task thread sees only its own
    communicator, and exactly one of O/A is non-None — the dichotomic
    feature of the bipartite model.
    """

    @property
    def COMM_BIPARTITE_O(cls) -> BipartiteComm | None:  # noqa: N802
        ctx = _context.CURRENT.ctx
        if ctx is None or ctx.kind != "O":
            return None
        return ctx.comm

    @property
    def COMM_BIPARTITE_A(cls) -> BipartiteComm | None:  # noqa: N802
        ctx = _context.CURRENT.ctx
        if ctx is None or ctx.kind != "A":
            return None
        return ctx.comm


class MPI_D(metaclass=_MPIDMeta):
    """Static facade, mirroring the Java binding's ``MPI_D`` class."""

    Mode = Mode
    Constants = MPI_D_Constants

    # -- Table I: init/finalize ------------------------------------------------
    @staticmethod
    def Init(  # noqa: N802
        args: list[str] | None = None,
        mode: Mode | None = None,
        conf: Mapping[str, Any] | None = None,
    ) -> None:
        """Initialize the task execution environment.

        Under ``mpidrun`` the environment (communicators, buffers,
        scheduling) already exists when the task function runs; ``Init``
        validates the binding and marks the context live, mirroring the
        paper's semantics where ``MPI_D_INIT`` creates
        ``COMM_BIPARTITE_O`` for O tasks and ``COMM_BIPARTITE_A`` for A
        tasks.
        """
        ctx = _context.current()
        if ctx.initialized:
            raise DataMPIError("MPI_D.Init called twice in one task")
        ctx.initialized = True

    @staticmethod
    def Finalize() -> None:  # noqa: N802
        """Finalize the task environment (flushes checkpoints)."""
        ctx = _context.current()
        if not ctx.initialized:
            raise DataMPIError("MPI_D.Finalize without MPI_D.Init")
        ctx.finalized = True

    # -- Table I: naming -----------------------------------------------------------
    @staticmethod
    def Comm_rank(comm: BipartiteComm) -> int:  # noqa: N802
        """Rank of this task within ``comm`` (a *task* rank)."""
        if comm is None:
            raise DataMPIError("Comm_rank on a null communicator")
        return comm.rank

    @staticmethod
    def Comm_size(comm: BipartiteComm) -> int:  # noqa: N802
        """Total number of tasks in ``comm``."""
        if comm is None:
            raise DataMPIError("Comm_size on a null communicator")
        return comm.size

    # -- Table I: key-value communication ---------------------------------------------
    @staticmethod
    def Send(key: Any, value: Any) -> None:  # noqa: N802
        """Emit a key-value pair; no destination argument — the library
        partitions and moves the data implicitly (the dynamic feature)."""
        _context.current().send(key, value)

    @staticmethod
    def Recv() -> tuple[Any, Any] | None:  # noqa: N802
        """Receive the next pair for this task, or None when exhausted."""
        return _context.current().recv()
