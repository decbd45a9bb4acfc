"""Key-value scan configuration files.

One ``key = value`` pair per line; ``#`` starts a comment; keys are exactly
the :class:`lgqpd.scan.ScanConfig` field names.  ``plane``, ``route``, ``s1``
and ``s2`` are required, everything else falls back to the dataclass default.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .scan import ScanConfig

_FIELDS = {f.name: f for f in dataclasses.fields(ScanConfig)}
_INT_FIELDS = {f.name for f in dataclasses.fields(ScanConfig) if f.type == "int"}
_STR_FIELDS = {f.name for f in dataclasses.fields(ScanConfig) if f.type == "str"}
_REQUIRED = ("plane", "route", "s1", "s2")


class ConfigError(ValueError):
    """Unparseable or invalid configuration; carries a 1-based line/column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.line = line
        self.column = column


def parse_scan_config(text: str) -> ScanConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, len(raw) - len(raw.lstrip()) + 1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        col = raw.index(key) + 1 if key and key in raw else 1
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", lineno, col)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno, col)
        value = value_part.strip()
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, raw.index("=") + 2)
        try:
            if key in _STR_FIELDS:
                values[key] = value
            elif key in _INT_FIELDS:
                values[key] = int(value)
            else:
                values[key] = float(value)
        except ValueError:
            kind = "string" if key in _STR_FIELDS else ("integer" if key in _INT_FIELDS else "number")
            raise ConfigError(f"cannot parse {value!r} as {kind} for {key!r}",
                              lineno, raw.index(value, raw.index("=")) + 1) from None
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        return ScanConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scan_config(path) -> ScanConfig:
    return parse_scan_config(Path(path).read_text(encoding="utf-8"))

