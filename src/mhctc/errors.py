"""Exception types shared across the package, the integer- and real-field checks, and text input."""

import math
from pathlib import Path


class MhctcError(Exception):
    """Base class for all package errors."""


class InvalidLabel(MhctcError):
    """A transcription contains an index outside [1, n_symbols]."""


class InvalidInput(MhctcError):
    """Malformed numeric input (non-finite values, unnormalized rows, ...)."""


class InfeasibleAlignment(MhctcError):
    """The transcription cannot be aligned to the available frames."""


class ShapeError(MhctcError):
    """Array shape does not match the model or operation contract."""


class DivergedError(MhctcError):
    """Training produced a non-finite loss."""


class TooShort(MhctcError):
    """Waveform shorter than one analysis frame."""


class ConfigError(MhctcError):
    """Invalid or inconsistent configuration."""


def check_ints(minimum, many=False, **values):
    """Raise ConfigError unless every value is an int >= minimum.

    With ``many`` every value is a tuple or list of such ints instead. The
    caller says which: a list given for a scalar field is refused, as is
    a scalar given for a list.
    """
    kind = "positive" if minimum == 1 else "non-negative"
    what = f"{kind} integers" if many else f"a {kind} integer"
    for name, value in values.items():
        items = value if many else (value,)
        if not isinstance(items, (tuple, list)) or any(
                type(v) is not int or v < minimum for v in items):
            raise ConfigError(f"{name} must be {what}, got {value!r}")


def check_reals(minimum=-math.inf, strict=False, **values):
    """Raise ConfigError unless every value is a finite real number >= minimum (> when strict)."""
    for name, value in values.items():
        real = isinstance(value, (int, float)) and type(value) is not bool and math.isfinite(value)
        if not real or value < minimum or (strict and value == minimum):
            bound = f" {'>' if strict else '>='} {minimum}" if minimum > -math.inf else ""
            raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")


def read_text(path):
    """The contents of a UTF-8 text file; ConfigError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
