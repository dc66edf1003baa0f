"""Serialization substrate.

DataMPI's Java binding supports "the serialization mechanisms of both Java
(Serializable and primitives) and Hadoop (Writable)" (paper §III-B).  This
package provides the Python equivalents: a Writable-style binary protocol
(:mod:`repro.serde.writable`), a pickle backend, raw-byte comparators, and
a registry resolving ``KEY_CLASS``/``VALUE_CLASS`` configuration strings to
types.
"""

from repro.serde.batch import (
    RecordBatch,
    batch_from_pairs,
    concat_batches,
    sort_batch,
)
from repro.serde.io import DataInput, DataOutput
from repro.serde.registry import resolve_type
from repro.serde.serialization import (
    PickleSerializer,
    Serializer,
    WritableSerializer,
    get_serializer,
)
from repro.serde.writable import (
    BooleanWritable,
    BytesWritable,
    DoubleWritable,
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    VIntWritable,
    Writable,
)

__all__ = [
    "RecordBatch",
    "batch_from_pairs",
    "concat_batches",
    "sort_batch",
    "DataInput",
    "DataOutput",
    "Writable",
    "Text",
    "IntWritable",
    "LongWritable",
    "VIntWritable",
    "FloatWritable",
    "DoubleWritable",
    "BooleanWritable",
    "BytesWritable",
    "NullWritable",
    "Serializer",
    "WritableSerializer",
    "PickleSerializer",
    "get_serializer",
    "resolve_type",
]
