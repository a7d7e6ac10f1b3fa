"""Exception types shared across the package, and the text reader, JSON
config loader and field check that raise them."""

import dataclasses
import json
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


def read_text(path, error=IngestionError) -> str:
    """The whole file at ``path`` decoded as UTF-8; a bad byte raises
    ``error`` naming its offset in the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: "
                    f"{exc.reason})") from None


def _is_number(value) -> bool:
    # bool is an int subclass but never a number here; the bound also
    # rejects NaN, infinities and ints too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _default(f: dataclasses.Field):
    return (f.default if f.default_factory is dataclasses.MISSING
            else f.default_factory())


def check_field_types(config) -> None:
    """Raise ``ConfigError`` unless every field of a config dataclass holds a
    value of its default's kind: bool, int, finite number, str, tuple of
    finite numbers, or a nested config (checked the same way)."""
    for f in dataclasses.fields(config):
        default = _default(f)
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


def _build(cls, raw, what: str):
    """Config dataclass ``cls`` from a decoded JSON object, unvalidated."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        default = _default(fields[name])
        if dataclasses.is_dataclass(default):
            value = _build(type(default), value, name)
        elif isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


class JsonConfig:
    """JSON round trip for a config dataclass with a ``validate`` method.

    Every malformed document, unknown field or undecodable file raises
    ``ConfigError``; nested config dataclasses are read from JSON objects.
    """

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return _build(cls, raw, "config").validate()

    @classmethod
    def from_file(cls, path):
        return cls.from_json(read_text(path, ConfigError))
