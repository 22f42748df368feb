"""Exception hierarchy.

Every refusal of outside input (a config, a world or program file, a dataset, a
predictions file, a symbol or a command) raises a subclass of
:class:`MannerforgeError`.  The CLI maps these, and OSError, to exit code 1 with
an `error[Type]: message` line; any other exception is a bug and shows its traceback.
"""
from __future__ import annotations

from math import isfinite
from sys import float_info


class MannerforgeError(Exception):
    """Base class for all domain errors."""


class ConfigError(MannerforgeError, ValueError):
    """A value breaks a documented constraint: a config field, a split spec, a world,
    a command, a symbol or a heading.  It is a ValueError too, so argparse's type
    check and callers that catch ValueError read it as before."""


# require's kinds that are no type, each as its refusal names it.
NUMBER = "a number"
STRINGS = "a list of strings"
INT_PAIR = "two integers"
_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def require(key: str, value, kind):
    """`value` if it is of `kind`, else ConfigError("<key> must be <kind's name>, not <value!r>").
    A kind is one of int, str, dict and list, of exactly that type (so True is no integer);
    a tuple of the allowed values, all of one type (so True is no size); NUMBER, an int a
    float can hold or a finite float (NaN passes no comparison, and a sum with a float
    overflows at a larger int); or STRINGS or INT_PAIR, a list or tuple of strings or of two
    integers, handed back as a tuple."""
    if type(kind) is tuple:
        if type(value) is type(kind[0]) and value in kind:
            return value
        raise ConfigError(f"{key} must be one of {kind}, not {value!r}")
    if kind == NUMBER:
        if type(value) is float and not isfinite(value):
            raise ConfigError(f"{key} must be a finite number, not {value!r}")
        if type(value) is int and abs(value) > float_info.max:
            raise ConfigError(f"{key} must be a number a float can hold, not an integer this large")
        if type(value) in (int, float):
            return value
    elif kind in (STRINGS, INT_PAIR):
        item = str if kind == STRINGS else int
        if (type(value) in (list, tuple) and all(type(v) is item for v in value)
                and (kind == STRINGS or len(value) == 2)):
            return tuple(value)
    elif type(value) is kind:
        return value
    raise ConfigError(f"{key} must be {_TYPE_NAMES.get(kind, kind)}, not {value!r}")


# --- gridworld ---------------------------------------------------------------

class OutOfBounds(MannerforgeError):
    """A movement would leave the grid."""


class Blocked(MannerforgeError):
    """A push or pull would move the object into an occupied cell."""


class IllegalInteraction(MannerforgeError):
    """Push or pull attempted while the agent is not on the target's cell."""


class AlloSymbolPresent(MannerforgeError):
    """The executor received an allocentric symbol."""


class NoReferent(MannerforgeError):
    """No object matches the command's noun phrase."""


class AmbiguousReferent(MannerforgeError):
    """More than one object matches the command's noun phrase."""


class ExhaustedRetries(MannerforgeError):
    """The situation sampler could not place a uniquely describable target."""


# --- adverb DSL --------------------------------------------------------------

class DepthExceeded(MannerforgeError):
    """A program requires more rewrite passes than the allowed depth."""


class DuplicateLhs(MannerforgeError):
    """Two rewrite rules share a left-hand side."""


class ParseError(MannerforgeError):
    """Malformed program text."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# --- meta grammar ------------------------------------------------------------

class Unclassifiable(MannerforgeError):
    """A program satisfies no adverb type's structural invariant."""


class RejectBudgetExceeded(MannerforgeError):
    """Registry sampling hit the consecutive-rejection budget."""


# --- oracle pipeline ---------------------------------------------------------

class UnknownAdverb(MannerforgeError):
    """A command's adverb resolves to no known program."""


# --- dataset forge -----------------------------------------------------------

class UnknownConfigKey(MannerforgeError):
    """A forge config names a key that no config field has."""


class RetryExhausted(MannerforgeError):
    """An adverb/world combination could not be realized on this grid."""


class InsufficientExamples(MannerforgeError):
    """A split spec needs more matching examples than the corpus contains."""


class SchemaMismatch(MannerforgeError):
    """A persisted dataset uses an unsupported schema version."""


class DigestMismatch(MannerforgeError):
    """A persisted file does not match its manifest digest, or the manifest does not
    list a digest for exactly the dataset's files, or its registry_digest is not the
    registry file's."""


class MalformedRecord(MannerforgeError):
    """A record line could not be decoded."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


# --- evaluation harness ------------------------------------------------------

class MissingPrediction(MannerforgeError):
    """A test index has no prediction."""


class DuplicatePrediction(MannerforgeError):
    """A test index has more than one prediction."""


class UnknownIndex(MannerforgeError):
    """A prediction or a lookup references an index outside the dataset."""


class UnknownSplit(MannerforgeError):
    """An evaluation names a split the dataset does not define."""
