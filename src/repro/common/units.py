"""Byte and time unit helpers.

Networking hardware is specified in decimal units (1 GigE = 10**9 bit/s)
while storage and memory sizing in the paper uses binary units (an HDFS
block of "256 MB" is 256 * 2**20 bytes).  Both families are exported so
call sites can say exactly what they mean.
"""

from __future__ import annotations

import re

# Decimal (SI) byte units -- used for network rates.
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# Binary (IEC) byte units -- used for memory, blocks, file sizes.
KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40

#: bits per byte, for converting link speeds (Gbps) to byte rates.
BITS_PER_BYTE = 8

_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
    "t": TiB,
    "tb": TiB,
    "tib": TiB,
}

_PARSE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_bytes(text: str | int | float) -> int:
    """Parse a human size string (``"256MB"``, ``"1.5 GiB"``) into bytes.

    Integers/floats pass through unchanged (rounded).  Suffixes are
    interpreted as binary units, matching Hadoop's configuration
    conventions (``io.sort.mb`` etc.).
    """
    if isinstance(text, (int, float)):
        return int(text)
    m = _PARSE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse byte size: {text!r}")
    value, suffix = m.groups()
    try:
        mult = _SUFFIXES[suffix.lower()]
    except KeyError:
        raise ValueError(f"unknown byte suffix {suffix!r} in {text!r}") from None
    return int(float(value) * mult)


def format_duration(seconds: float) -> str:
    """Render seconds as a compact human duration (``"1h02m"``, ``"312 s"``)."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.1f} s"
    minutes, sec = divmod(seconds, 60.0)
    if minutes < 120:
        return f"{int(minutes)}m{sec:04.1f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"


def gbps_to_bytes_per_sec(gbps: float) -> float:
    """Convert a link speed in gigabit/s to bytes/s (decimal gigabits)."""
    return gbps * GB / BITS_PER_BYTE
