"""Hadoop job definition and result types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.common.errors import DataMPIError
from repro.core.partition import Partitioner, hash_partitioner
from repro.hadoop.io_formats import KeyValueTextOutputFormat, TextInputFormat
from repro.serde.comparators import Compare

Mapper = Callable[[Any, Any, Callable[[Any, Any], None]], None]
Reducer = Callable[[Any, list[Any], Callable[[Any, Any], None]], None]
Combiner = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass
class HadoopJob:
    """One MapReduce job over mini-HDFS paths."""

    name: str
    input_path: str
    output_path: str
    mapper: Mapper
    reducer: Reducer
    num_reduces: int
    combiner: Combiner | None = None
    partitioner: Partitioner = hash_partitioner
    comparator: Compare | None = None
    input_format: Any = field(default_factory=TextInputFormat)
    output_format: Any = field(default_factory=KeyValueTextOutputFormat)
    #: io.sort.mb analogue, bytes: the map's per-partition flush size in
    #: its SendPartitionList and the memory budget of each RunStore, map
    #: side and reduce side, past which sorted runs spill to local disk
    sort_buffer_bytes: int = 1 << 20

    def validate(self) -> None:
        if self.num_reduces < 1:
            raise DataMPIError("num_reduces must be >= 1")
        if self.sort_buffer_bytes < 1024:
            raise DataMPIError("sort buffer unreasonably small")


@dataclass
class PhaseTimeline:
    """Start/end stamps per task, for progress plots (Figure 9 analogue)."""

    starts: dict[str, float] = field(default_factory=dict)
    ends: dict[str, float] = field(default_factory=dict)

    def record_start(self, task: str, t: float) -> None:
        self.starts[task] = t

    def record_end(self, task: str, t: float) -> None:
        self.ends[task] = t

    def duration(self) -> float:
        if not self.ends:
            return 0.0
        return max(self.ends.values()) - min(self.starts.values())


@dataclass
class HadoopCounters:
    """The classic job counters."""

    map_input_records: int = 0
    map_output_records: int = 0
    map_output_bytes: int = 0
    combine_output_records: int = 0
    spilled_records: int = 0
    spill_files: int = 0
    reduce_shuffle_bytes: int = 0
    shuffle_fetches: int = 0
    reduce_input_records: int = 0
    reduce_output_records: int = 0
    data_local_maps: int = 0
    rack_remote_maps: int = 0

    @property
    def map_locality(self) -> float:
        total = self.data_local_maps + self.rack_remote_maps
        return self.data_local_maps / total if total else 1.0


@dataclass
class HadoopJobResult:
    name: str
    success: bool
    counters: HadoopCounters = field(default_factory=HadoopCounters)
    map_timeline: PhaseTimeline = field(default_factory=PhaseTimeline)
    reduce_timeline: PhaseTimeline = field(default_factory=PhaseTimeline)
    output_files: list[str] = field(default_factory=list)
    error: str = ""
