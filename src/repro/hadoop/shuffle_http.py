"""The TaskTracker shuffle server: Hadoop's HTTP proxy for map output.

"Each reduce task downloads the data from different maps by the proxies,
which are the built-in HTTP servers in TaskTrackers" (§IV-B).  The mini
version keeps the architecture — map output is *registered* with the
server on the map's host and *pulled* by reducers — while replacing
sockets with direct calls that account the transferred bytes, so the
proxy-based data movement (and its lack of reduce-side locality) is
observable in the counters.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.common.errors import DataMPIError
from repro.common.records import kv_bytes

KV = tuple[Any, Any]


class ShuffleServer:
    """Per-TaskTracker map-output store with HTTP-pull semantics."""

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self._lock = threading.Lock()
        #: (map_id, partition) -> sorted run
        self._segments: dict[tuple[int, int], list[KV]] = {}
        self.bytes_served = 0
        self.requests_served = 0

    def register_map_output(self, map_id: int, outputs: dict[int, list[KV]]) -> None:
        """Called by a finished map task on this host."""
        with self._lock:
            for partition, run in outputs.items():
                self._segments[(map_id, partition)] = run

    def fetch(self, map_id: int, partition: int) -> list[KV]:
        """One reducer HTTP GET: returns the segment (possibly empty)."""
        with self._lock:
            run = self._segments.get((map_id, partition), [])
            self.requests_served += 1
            self.bytes_served += sum(kv_bytes(k, v) for k, v in run)
            return run


class ShuffleDirectory:
    """Job-wide registry: which host served each map (completion events)."""

    def __init__(self, servers: list[ShuffleServer]) -> None:
        self.servers = servers
        self._lock = threading.Lock()
        self._map_hosts: dict[int, int] = {}

    def announce_completion(self, map_id: int, host_id: int) -> None:
        """JobTracker records the map-completion event reducers poll for."""
        with self._lock:
            self._map_hosts[map_id] = host_id

    def host_of(self, map_id: int) -> int:
        with self._lock:
            try:
                return self._map_hosts[map_id]
            except KeyError:
                raise DataMPIError(f"map {map_id} has not completed") from None

    def fetch(self, map_id: int, partition: int) -> tuple[list[KV], int]:
        """Reducer-side pull: resolve the host, fetch; returns (run, host)."""
        host = self.host_of(map_id)
        return self.servers[host].fetch(map_id, partition), host
