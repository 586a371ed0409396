"""Exception types shared across the package, the kinds of config fields, and JSON input.

Each config field declares its kind in its annotation, e.g. ``hidden: Positive = 128``;
the class's ``__post_init__`` calls ``check_fields``, then checks its cross-field rules.
An input error names its file, then its record, through ``source`` scopes.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from sys import float_info
from typing import Annotated, Callable, NamedTuple


class MhctcError(Exception):
    """Base class for all package errors."""


class ConfigError(MhctcError):
    """Invalid or inconsistent configuration or input; ``cli`` exits 2 on any kind of it."""


class InvalidLabel(ConfigError):
    """A label that is not an integer index in [1, n_symbols]."""


class InvalidInput(ConfigError):
    """Malformed numeric input (non-finite values, unnormalized rows, ...)."""


class InfeasibleAlignment(MhctcError):
    """The transcription cannot be aligned to the available frames."""


class ShapeError(MhctcError):
    """Array shape does not match the model or operation contract."""


class TooLarge(MhctcError):
    """A model too large to allocate."""


class DivergedError(MhctcError):
    """Training produced a non-finite loss."""


class TooShort(MhctcError):
    """Waveform shorter than one analysis frame."""


class Kind(NamedTuple):
    """What a config field holds, made by ``ints``, ``reals``, ``choices`` or ``instance``.

    ``problem(item)`` says what a bad item must be, and is None for a good one.
    With ``many`` the field is a list of such items, kept as a tuple.
    """

    problem: Callable
    many: bool = False


def ints(low, high=math.inf, many=False):
    """Ints from ``low`` (0 or 1) to ``high``."""
    sign = "positive" if low else "non-negative"
    what = f"{sign} integers" if many else f"a {sign} integer"
    kind = Kind(lambda v: what if type(v) is not int or v < low else _at_most(v, high), many)
    return Annotated[tuple if many else int, kind]


def reals(low=-math.inf, high=math.inf, strict=False):
    """Finite real numbers, ints included, from ``low`` (above it when ``strict``) to ``high``."""
    bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""

    def problem(v):
        # an int beyond the float range is refused too: arithmetic with a float would overflow
        fine = (isinstance(v, (int, float)) and type(v) is not bool and abs(v) <= float_info.max
                and (v > low if strict else v >= low))
        return _at_most(v, high) if fine else f"a finite number{bound}"
    return Annotated[float, Kind(problem)]


def _at_most(v, high):
    return f"at most {high}" if v > high else None


def choices(options, many=False):
    """One of ``options``."""
    names = " or ".join(map(repr, options))
    kind = Kind(lambda v: None if v in options else f"a list of {names}" if many else names, many)
    return Annotated[tuple if many else str, kind]


def instance(cls, what):
    """An instance of ``cls``, called ``what`` in messages."""
    return Annotated[cls, Kind(lambda v: None if isinstance(v, cls) else what)]


Positive = ints(1)
NonNegative = ints(0)


def check_value(name, value, kind):
    """``value`` if it is of ``kind`` (a list made a tuple); ConfigError naming ``name`` if not.

    ``kind`` is an annotation that ``ints``, ``reals``, ``choices`` or ``instance`` made.
    A list given for a scalar is refused, as is a scalar given for a list.
    """
    kind = kind.__metadata__[0]
    if kind.many:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        value = tuple(value)  # a JSON config gives lists
    for item in value if kind.many else (value,):
        problem = kind.problem(item)
        if problem:
            raise ConfigError(f"{name} must be {problem}, got {value!r}")
    return value


def check_fields(config):
    """Check every field of dataclass ``config`` against the kind its annotation declares."""
    for f in fields(config):
        object.__setattr__(config, f.name, check_value(f.name, getattr(config, f.name), f.type))


@contextmanager
def source(name):
    """Put ``<name>: `` in front of the message of any ConfigError raised inside the block.

    The same error object is raised on, so its class, exit code and ``__cause__`` stay;
    nested scopes read ``file: record: message``. Other errors pass through unchanged.
    """
    try:
        yield
    except ConfigError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def read_json(path):
    """The value a UTF-8 JSON file holds; ConfigError if it is not one.

    Read it inside the caller's ``source(path)`` scope, which names the file.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # a RecursionError: arrays or objects nested deeper than the parser's stack
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        what = "UTF-8 text" if isinstance(exc, UnicodeDecodeError) else "JSON"
        raise ConfigError(f"not {what}: {exc}") from exc
