"""Exception types shared across the package, and the config field check
that raises them."""

import dataclasses
import sys


class PacnError(Exception):
    """Base class for all package errors."""


class ConfigError(PacnError):
    """A model/layer configuration is internally inconsistent."""


class UsageError(PacnError):
    """An operation was called with arguments violating its contract."""


class IngestionError(PacnError):
    """An input file could not be read or parsed."""


class TrainingError(PacnError):
    """Training hit a non-recoverable numerical condition."""


def _is_number(value) -> bool:
    # bool is an int subclass but never a number here; the bound also
    # rejects NaN, infinities and ints too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_field_types(config) -> None:
    """Raise ``ConfigError`` unless every field of a config dataclass holds a
    value of its default's kind: bool, int, finite number, str, tuple of
    finite numbers, or a nested config (checked the same way)."""
    for f in dataclasses.fields(config):
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(default):
            if not isinstance(value, type(default)):
                raise ConfigError(f"{f.name} must be an object")
            check_field_types(value)
            continue
        if isinstance(default, bool):
            ok, kind = isinstance(value, bool), "a boolean"
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
            kind = "an integer"
        elif isinstance(default, float):
            ok, kind = _is_number(value), "a finite number"
        elif isinstance(default, tuple):
            ok = isinstance(value, tuple) and all(map(_is_number, value))
            kind = "a list of finite numbers"
        else:
            ok, kind = isinstance(value, type(default)), type(default).__name__
        if not ok:
            raise ConfigError(f"{f.name} must be {kind}, "
                              f"got {type(value).__name__}")
