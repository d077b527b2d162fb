"""Error types shared across the package.

Every failure mode is a signaled exception, never a sentinel value.
"""

import functools


class HIntegralError(Exception):
    """Base class for all package errors."""


class UndefinedSumError(HIntegralError):
    """Adding two values with equal dimension and second coordinates {+inf, -inf}."""


class UnknownSetError(HIntegralError):
    """A set primitive is not part of the space it is evaluated in."""


class NonDisjointError(HIntegralError):
    """Structural overlap detected between pieces that must be disjoint."""


class UnsupportedExpressionError(HIntegralError):
    """A function or set left the closed expression grammar."""


class UnsupportedScenarioError(HIntegralError):
    """A deficiency scenario cannot be reduced to an exact simple integral."""


class ParseError(HIntegralError):
    """Malformed input text or scenario file."""


def json_loader(load):
    """Make a ``*_from_json`` loader raise :class:`ParseError` for input
    with a missing key or a value of the wrong shape."""

    @functools.wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"{load.__name__}: {type(exc).__name__}: {exc}") from exc

    return checked


def json_object(value, what: str):
    """``value`` if it is a JSON object; anything else is a ParseError naming ``what``."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {value!r}")
    return value


def json_list(value, what: str):
    """``value`` if it is a JSON array.  Anything else is a ParseError; a
    string in particular would otherwise be read one character at a time."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value
