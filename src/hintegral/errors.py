"""Error types shared across the package, and :func:`json_field`, the field reader of every
``*_from_json`` reader.  Every failure mode is a signaled exception, never a sentinel value;
a domain check of input (a negative weight) raises :class:`ParseError` with its own text."""

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


class ParseError(HIntegralError, ValueError):
    """Malformed input; a ValueError too, as a constructor refuses a bad argument with it."""


def json_loader(load):
    """Make a ``*_from_json`` loader raise :class:`ParseError`, naming it, for what its reads let through."""

    @functools.wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except ParseError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"{load.__name__}: {type(exc).__name__}: {exc}") from exc

    return checked


# each JSON type a field may be required to have, as a refusal names it
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}
_NEEDED = object()


def json_field(obj, key, owner: str, kind: type = object, default=_NEEDED):
    """``obj[key]``, or ``default`` if it is missing, from the JSON object ``owner`` names
    (``obj`` itself when key is None), of the JSON type ``kind``.  Else a ParseError:
    ``<owner> must be an object, got …``, ``<owner> needs "<key>"`` or ``<key> (or the
    owner) must be <kind>, got …``; a string is never read one character at a time."""
    if key is None:
        value = obj
    elif not isinstance(obj, dict):
        raise ParseError(f"{owner} must be an object, got {obj!r}")
    elif (value := obj.get(key, default)) is _NEEDED:
        raise ParseError(f'{owner} needs "{key}"')
    if kind is not object and not isinstance(value, kind):
        raise ParseError(f"{owner if key is None else key} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value
