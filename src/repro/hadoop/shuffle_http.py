"""The TaskTracker shuffle server: Hadoop's HTTP proxy for map output.

"Each reduce task downloads the data from different maps by the proxies,
which are the built-in HTTP servers in TaskTrackers" (§IV-B).  A map
writes each partition's segment to its job's local directory and
*registers* the file with the server on its host; a reducer's GET
*pulls* the segment by reading that file back as the bytes the map
wrote.  Sockets are replaced by direct calls that account the bytes
read, so the proxy-based data movement (and its lack of reduce-side
locality) is observable in each server's ``requests_served`` and
``bytes_served``.
"""

from __future__ import annotations

import threading

from repro.common.errors import DataMPIError, SerializationError
from repro.core.sorter import SpillFile
from repro.serde.batch import RecordBatch


class ShuffleServer:
    """Per-TaskTracker index of map-output files with HTTP-pull semantics."""

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self._lock = threading.Lock()
        #: (map_id, partition) -> the segment on local disk (None: empty)
        self._segments: dict[tuple[int, int], SpillFile | None] = {}
        self.bytes_served = 0
        self.requests_served = 0

    def register_map_output(
        self, map_id: int, segments: dict[int, SpillFile | None]
    ) -> None:
        """Called by a finished map task on this host."""
        with self._lock:
            for partition, segment in segments.items():
                self._segments[(map_id, partition)] = segment

    def fetch(self, map_id: int, partition: int) -> RecordBatch | None:
        """One reducer HTTP GET: the segment's bytes, or ``None`` for an
        empty partition (still a request served)."""
        with self._lock:
            segment = self._segments.get((map_id, partition))
            self.requests_served += 1
        if segment is None:
            return None
        with open(segment.path, "rb") as f:
            data = f.read()
        if len(data) != segment.nbytes:
            raise SerializationError(
                f"segment {segment.path} holds {len(data)} of {segment.nbytes} bytes")
        with self._lock:
            self.bytes_served += len(data)
        return RecordBatch(data, segment.count, segment.raw)


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

    def fetch(self, map_id: int, partition: int) -> RecordBatch | None:
        """Reducer-side pull: resolve the map's host, fetch from its server."""
        return self.servers[self.host_of(map_id)].fetch(map_id, partition)
