"""Hadoop job definition."""

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
