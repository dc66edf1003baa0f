"""Typed configuration object shared by Hadoop-like and DataMPI code paths.

The paper's ``MPI_D_INIT`` accepts a ``conf`` map whose reserved keys
(``KEY_CLASS``/``VALUE_CLASS`` etc.) select serialization types, and each
mode "defines a group of configurations" that advanced users may override.
:class:`Configuration` is a thin dict wrapper with typed getters, defaults
layering, and byte-size parsing, mirroring Hadoop's ``Configuration``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.common.errors import ConfigurationError
from repro.common.units import parse_bytes

_MISSING = object()


class Configuration(Mapping[str, Any]):
    """A layered, typed key-value configuration.

    A configuration may be constructed over a ``defaults`` layer; lookups
    fall through to it, writes always land in the top layer.  This mirrors
    how a DataMPI *mode profile* supplies defaults that the user ``conf``
    overrides (paper §III-A).
    """

    def __init__(
        self,
        values: Mapping[str, Any] | None = None,
        *,
        defaults: "Configuration | Mapping[str, Any] | None" = None,
    ) -> None:
        self._values: dict[str, Any] = dict(values or {})
        self._defaults = defaults

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        if key in self._values:
            return self._values[key]
        if self._defaults is not None and key in self._defaults:
            return self._defaults[key]
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        seen = set()
        for key in self._values:
            seen.add(key)
            yield key
        if self._defaults is not None:
            for key in self._defaults:
                if key not in seen:
                    yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, key: object) -> bool:
        return key in self._values or (
            self._defaults is not None and key in self._defaults
        )

    def __repr__(self) -> str:
        return f"Configuration({dict(self)!r})"

    # -- mutation ---------------------------------------------------------
    def set(self, key: str, value: Any) -> "Configuration":
        """Set ``key`` in the top layer; returns self for chaining."""
        self._values[key] = value
        return self

    def update(self, other: Mapping[str, Any]) -> "Configuration":
        self._values.update(other)
        return self

    def child(self, values: Mapping[str, Any] | None = None) -> "Configuration":
        """A new configuration layered on top of this one."""
        return Configuration(values, defaults=self)

    def flat(self) -> dict[str, Any]:
        """Collapse all layers into a plain dict (top layer wins)."""
        return {key: self[key] for key in self}

    # -- typed getters ----------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def get_int(self, key: str, default: int | object = _MISSING) -> int:
        return int(self._typed(key, default))

    def get_float(self, key: str, default: float | object = _MISSING) -> float:
        return float(self._typed(key, default))

    def get_bool(self, key: str, default: bool | object = _MISSING) -> bool:
        value = self._typed(key, default)
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ConfigurationError(f"{key}={value!r} is not a boolean")
        return bool(value)

    def get_bytes(self, key: str, default: int | str | object = _MISSING) -> int:
        """Get a byte size; string values accept suffixes (``"256MB"``)."""
        return parse_bytes(self._typed(key, default))

    def get_str(self, key: str, default: str | object = _MISSING) -> str:
        return str(self._typed(key, default))

    def _typed(self, key: str, default: Any) -> Any:
        try:
            return self[key]
        except KeyError:
            if default is _MISSING:
                raise ConfigurationError(
                    f"required configuration key missing: {key!r}"
                ) from None
            return default
