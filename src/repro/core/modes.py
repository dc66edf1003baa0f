"""Mode profiles (§IV-A "Profile").

"Each communication mode has a kind of profile, which contains a set of
typical configurations and related extensions to the DataMPI core.  For
example, the MapReduce mode requires the intermediate data to be sorted
by keys, while the Streaming mode may not need this feature.  The
Iteration mode needs the communication to be bi-directional."

A profile is just a defaults layer under the user ``conf``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.common.config import Configuration
from repro.common.units import KiB, MiB
from repro.core.constants import Mode, MPI_D_Constants as K

#: every default, written once: ``profile_for`` layers this table under the
#: mode profile and the user conf, so readers pass no fallback of their own.
#: The path-like keys (KEY_CLASS, VALUE_CLASS, LOCAL_DIR, FT_DIR, JOB_ID,
#: TRACE_PATH, TELEMETRY_ENDPOINT_FILE, DOCTOR_PATH) have none: unset means
#: "derive one", which only their reader can
_SHARED_DEFAULTS: dict[str, Any] = {
    K.SERIALIZER: "writable",
    K.SPL_PARTITION_BYTES: 32 * KiB,
    K.SHUFFLE_BATCH_BYTES: 256 * KiB,
    K.SHUFFLE_RAW: False,
    K.MERGE_THRESHOLD_BLOCKS: 8,  # inert, see constants.py
    K.MEMORY_CACHE_BYTES: 64 * MiB,
    K.FT_ENABLED: False,
    K.FT_INTERVAL_RECORDS: 10_000,
    K.JOB_MAX_RESTARTS: 0,
    K.TASK_MAX_ATTEMPTS: 4,
    K.RESTART_BACKOFF_SECONDS: 0.1,
    K.HEARTBEAT_DEADLINE_SECONDS: 15.0,
    K.PLANE_TIMEOUT_SECONDS: 120.0,
    K.RANK_MAX_RESPAWNS: 0,
    K.RANK_REDELIVERY_BYTES: 64 * MiB,
    K.LAUNCHER: "threads",
    K.TRACE_ENABLED: False,
    K.TELEMETRY_ENABLED: False,
    K.TELEMETRY_INTERVAL_SECONDS: 0.25,
    K.PROFILE_HZ: 0.0,  # off; --profile writes obs.profiler.DEFAULT_HZ
    K.DOCTOR_ENABLED: False,
    K.DOCTOR_STALL_SECONDS: 5.0,
    K.INJECT_CRASH_AFTER_RECORDS: -1,
    K.INJECT_CRASH_TASK: 0,
}

_PROFILE_DEFAULTS: dict[Mode, dict[str, Any]] = {
    # Common: SPMD, sorted exchange so the Listing-1 Sort works out of the box
    Mode.COMMON: {
        K.SORT: True,
        K.PIPELINED_DELIVERY: False,
    },
    # MapReduce: sorted, strictly one-way O->A
    Mode.MAPREDUCE: {
        K.SORT: True,
        K.PIPELINED_DELIVERY: False,
    },
    # Iteration: no sorting required (bi-directional rounds are the mode
    # itself, ``job.mode is Mode.ITERATION``, not a setting)
    Mode.ITERATION: {
        K.SORT: False,
        K.PIPELINED_DELIVERY: False,
    },
    # Streaming: unsorted, pairs delivered while O tasks still run; a
    # small flush threshold bounds a block's bytes, STREAM_LINGER_SECONDS
    # its age
    Mode.STREAMING: {
        K.SORT: False,
        K.PIPELINED_DELIVERY: True,
        K.SPL_PARTITION_BYTES: 2 * KiB,
    },
}

#: Streaming mode seals what a sending task holds every this many seconds,
#: full or not: a record waits for a clock, not for neighbours, whatever
#: the rate and the key skew.  A constant, not an ``mpi.d.*`` key: latency
#: is what the mode is for and no caller wants another value
#: (CHANGES.md's streaming-clock entry measured 2, 4 and 8 ms).
STREAM_LINGER_SECONDS = 0.004


def profile_for(mode: Mode, user_conf: Mapping[str, Any] | None = None) -> Configuration:
    """Layer user configuration over the mode's profile defaults."""
    base = Configuration(_SHARED_DEFAULTS)
    profile = base.child(_PROFILE_DEFAULTS[mode])
    return profile.child(dict(user_conf or {}))


def default_of(key: str) -> Any:
    """``key``'s default outside any job, for what tests and benches build
    bare (a ``ShuffleService``, a ``Doctor``'s stall window)."""
    return _SHARED_DEFAULTS[key]


def mode_sorts(conf: Configuration) -> bool:
    return conf.get_bool(K.SORT)


def mode_is_pipelined(conf: Configuration) -> bool:
    return conf.get_bool(K.PIPELINED_DELIVERY)
