"""Type registry resolving ``KEY_CLASS``/``VALUE_CLASS`` strings to types.

The paper's Listing 1 configures ``conf.put(KEY_CLASS,
java.lang.String.class.getName())``; this module is the Python analogue.
Both fully-qualified Java-ish names (for fidelity with the paper's example
code) and short Python names are accepted, and user classes may register
themselves.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.serde import writable as w

_REGISTRY: dict[str, type] = {}


def register_type(name: str, cls: type, *aliases: str) -> None:
    """Register ``cls`` under ``name`` (and optional aliases)."""
    for key in (name, *aliases):
        _REGISTRY[key] = cls


def resolve_type(spec: str | type | None) -> type | None:
    """Resolve a configuration value into a concrete Python type.

    Accepts ``None`` (pass-through), an actual type, or a registered name.
    """
    if spec is None or isinstance(spec, type):
        return spec
    try:
        return _REGISTRY[spec]
    except KeyError:
        raise ConfigurationError(f"unknown key/value class: {spec!r}") from None


# -- built-in registrations ------------------------------------------------
register_type("java.lang.String", str, "str", "string", "Text.raw")
register_type("java.lang.Integer", int, "int", "integer")
register_type("java.lang.Long", int, "long")
register_type("java.lang.Double", float, "float", "double")
register_type("java.lang.Boolean", bool, "bool", "boolean")
register_type("bytes", bytes, "byte[]")

register_type("org.apache.hadoop.io.Text", w.Text, "Text")
register_type("org.apache.hadoop.io.IntWritable", w.IntWritable, "IntWritable")
register_type("org.apache.hadoop.io.VIntWritable", w.VIntWritable, "VIntWritable")
register_type("org.apache.hadoop.io.LongWritable", w.LongWritable, "LongWritable")
register_type("org.apache.hadoop.io.FloatWritable", w.FloatWritable, "FloatWritable")
register_type(
    "org.apache.hadoop.io.DoubleWritable", w.DoubleWritable, "DoubleWritable"
)
register_type(
    "org.apache.hadoop.io.BooleanWritable", w.BooleanWritable, "BooleanWritable"
)
register_type("org.apache.hadoop.io.BytesWritable", w.BytesWritable, "BytesWritable")
register_type("org.apache.hadoop.io.NullWritable", w.NullWritable, "NullWritable")
