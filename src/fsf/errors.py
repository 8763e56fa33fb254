"""Exception hierarchy, and the checked constructor for untrusted mappings."""

from __future__ import annotations

import dataclasses
import typing


class FsfError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(FsfError):
    """Array shapes or extents violate an operation's contract."""


class ParameterError(FsfError):
    """A scalar argument is outside its legal range."""


class DataError(FsfError):
    """A corpus, manifest, or dataset is unusable (missing class, empty, ...)."""


class NumericError(FsfError):
    """A computation produced NaN/Inf or otherwise diverged."""


class ConfigError(FsfError):
    """An experiment configuration is malformed."""


class FormatError(FsfError):
    """A serialized file (checkpoint, image) is corrupt or unsupported."""


_JSON_KINDS = (int, float, str, bool, list, dict)


def check_type(value, kind: type, where: str, error: type):
    """Return ``value`` if it is JSON of type ``kind``: an int fills a float, a bool no number."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{where} must be {kind.__name__}, got {value!r:.60}")
    return value


def build(cls, section, where: str, error: type):
    """Construct dataclass ``cls`` from an untrusted mapping.

    The dataclass is the schema: keys must be its fields, fields annotated
    int/float/str/bool/list/dict must hold that JSON type, and any rejection
    by the constructor itself is re-raised as ``error``.
    """
    check_type(section, dict, where, error)
    hints = typing.get_type_hints(cls)
    unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise error(f"unknown key(s) {sorted(unknown)} in {where}")
    for key, value in section.items():
        if hints[key] in _JSON_KINDS:
            check_type(value, hints[key], f"{where}.{key}", error)
    try:
        return cls(**section)
    except (ParameterError, TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from exc
