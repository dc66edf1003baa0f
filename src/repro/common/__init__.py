"""Shared utilities used by every subsystem of the DataMPI reproduction.

This package holds the pieces that are deliberately framework-agnostic:
size/time units, the typed :class:`~repro.common.config.Configuration`
object (mirroring Hadoop's ``Configuration``/DataMPI's ``conf``), the
key-value record primitives that travel through every pipeline, small
statistics helpers used by the evaluation harness, and the exception
hierarchy.
"""

from repro.common.config import Configuration
from repro.common.logging import get_logger
from repro.common.errors import (
    CheckpointError,
    ConfigurationError,
    DataMPIError,
    FailureRecord,
    HDFSError,
    JobFailedError,
    MPIError,
    ReproError,
    RPCError,
    SerializationError,
)
from repro.common.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    TB,
    format_duration,
    parse_bytes,
)

__all__ = [
    "Configuration",
    "get_logger",
    "ReproError",
    "DataMPIError",
    "MPIError",
    "HDFSError",
    "RPCError",
    "SerializationError",
    "ConfigurationError",
    "CheckpointError",
    "JobFailedError",
    "FailureRecord",
    "KB",
    "MB",
    "GB",
    "TB",
    "KiB",
    "MiB",
    "GiB",
    "format_duration",
    "parse_bytes",
]
