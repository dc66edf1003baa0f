"""Exception hierarchy for the whole reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch at the granularity they care about.  ``MPI_D_Exception`` is kept as
an alias of :class:`DataMPIError` to mirror the paper's Listing 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


#: every kind a :class:`FailureRecord` may carry, most to blame first: a
#: task's own failure outranks the liveness symptom it caused ("heartbeat"),
#: which outranks "respawn" (surgical recovery exhausted) and the rank /
#: "wire" (stream severed mid-frame) records it follows, then generic
#: timeout and abort noise
FAILURE_KINDS = ("task", "heartbeat", "respawn", "rank", "wire", "timeout", "abort")


@dataclass
class FailureRecord:
    """Structured description of one detected failure.

    Built once, by whoever detects the failure — the worker engine (a
    task attempt failing), the supervising driver (a heartbeat deadline
    expiring, a respawn budget running out), the MPI runtime or its
    router (a rank dying, a severed stream, a timeout, an abort) — and
    handed to the runtime, the only road a record travels; ``mpidrun``
    files them on ``JobResult.failures`` so a caller can see exactly
    which worker, task and attempt went down and why.
    """

    kind: str = "abort"  # one of FAILURE_KINDS
    worker: int = -1  # worker/rank index within its world (-1 unknown)
    phase: str = ""  # "O" / "A" for task failures, world name otherwise
    task_id: int = -1
    round_no: int = -1
    attempt: int = 0  # job attempt (1-based); 0 = for mpidrun to stamp
    error: str = ""
    traceback: str = ""
    where: str = ""  # thread/world name for rank-level failures

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; one of {FAILURE_KINDS}"
            )

    def describe(self) -> str:
        parts = [self.kind]
        if self.worker >= 0:
            parts.append(f"worker {self.worker}")
        if self.task_id >= 0:
            parts.append(f"{self.phase or '?'} task {self.task_id}")
        if self.attempt > 0:
            parts.append(f"attempt {self.attempt}")
        head = " ".join(parts)
        return f"[{head}] {self.error}" if self.error else f"[{head}]"

    def as_dict(self) -> dict:
        """The journal/tracer view: every field but the two long ones."""
        view = asdict(self)
        del view["traceback"], view["where"]
        return view


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration key is missing, malformed, or inconsistent."""


class SerializationError(ReproError):
    """A value could not be serialized or deserialized."""


class MPIError(ReproError):
    """Error inside the from-scratch MPI substrate (``repro.mpi``)."""


class MPIAbort(MPIError):
    """Raised in every rank when one rank calls ``comm.abort``."""

    def __init__(self, errorcode: int = 1, message: str = "MPI_Abort"):
        super().__init__(f"{message} (errorcode={errorcode})")
        self.errorcode = errorcode


class DataMPIError(ReproError):
    """Error raised by the DataMPI core library (``repro.core``)."""


#: Alias matching the paper's Java binding exception name (Listing 1).
MPI_D_Exception = DataMPIError


class HDFSError(ReproError):
    """Error from the mini-HDFS substrate."""


class RPCError(ReproError):
    """RPC call failed (timeout, connection refused, handler raised)."""


class CheckpointError(DataMPIError):
    """Checkpoint could not be written, read, or reconciled."""


class JobFailedError(ReproError):
    """A job (or one attempt of it) failed; the one carrier of records.

    ``failures`` holds the :class:`FailureRecord` objects naming the
    precise cause(s) — which worker, which task, which attempt: the
    driver raises it with the record it built, ``mpidrun(raise_on_error=
    True)`` with everything its ledger filed.
    """

    def __init__(self, message: str = "", failures: list | None = None):
        super().__init__(message)
        self.failures: list[FailureRecord] = list(failures or [])


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""
