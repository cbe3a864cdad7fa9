"""Exception types shared across the package, and the one check of field values."""

import math
from typing import Callable, NamedTuple


class BraceLearnError(Exception):
    """Base class for all errors raised by bracelearn."""


class ValidationError(BraceLearnError, ValueError):
    """An input value violates a precondition; ``field`` is its dotted path, if known."""

    def __init__(self, message, *, field=None):
        super().__init__(message)
        self.field = field


class ShapeError(ValidationError):
    """Array dimensions are inconsistent with the operation's contract."""


class DegenerateDataError(ValidationError):
    """Data has no usable spread, or its normalization passes the float range."""


class InsufficientDataError(ValidationError):
    """Too few samples for the requested lookback or split."""


class ConfigError(ValidationError):
    """An experiment config file is malformed or contains unknown keys."""


class DivergenceError(BraceLearnError, RuntimeError):
    """Numerical state blew up during integration, training or a cell step.

    ``index`` is the sample index for simulator divergence, ``epoch`` the
    epoch index for training divergence; ``losses`` holds the loss of
    every epoch that finished before training diverged.
    """

    def __init__(self, message, *, index=None, epoch=None, losses=()):
        super().__init__(message)
        self.index = index
        self.epoch = epoch
        self.losses = list(losses)


class WorkerError(BraceLearnError, RuntimeError):
    """A worker process ended before it returned the result of its task."""


class ModelFormatError(ValidationError):
    """A serialized model file is missing or has a malformed field."""


class Rule(NamedTuple):
    """A condition a field value must meet: ``<field> must be <text>``."""

    text: str
    holds: Callable[[object], bool]
    error: type[ValidationError] = ValidationError


def _finite(value) -> bool:
    """Whether ``value`` is a finite float; an int past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: A finite real number.
FINITE = Rule("finite", _finite)

#: A finite real number > 0.
POSITIVE = Rule("finite and > 0", lambda value: _finite(value) and value > 0)


def at_least(low: float) -> Rule:
    """A finite real number >= ``low``."""
    return Rule(f"finite and >= {low:g}", lambda value: _finite(value) and value >= low)


def between(low: float, high: float) -> Rule:
    """A real number in ``[low, high]``."""
    return Rule(f"in [{low:g}, {high:g}]", lambda value: low <= value <= high)


def count(low: int) -> Rule:
    """An integer >= ``low``; any int is finite, even one past the float range."""
    return Rule(f">= {low}", lambda value: value >= low)


def check(obj, **rules: Rule) -> None:
    """Raise the rule's error for the first field of ``obj`` that breaks its rule.

    The error names the field in its message and in ``field``, to which
    ``model.load_fields`` prefixes the dotted path of the mapping it read
    in the ValidationError it raises; the file reader that called it then
    names the file and sets the type. Every rule rejects nan.
    """
    for name, rule in rules.items():
        value = getattr(obj, name)
        if not rule.holds(value):
            raise rule.error(f"{name} must be {rule.text}, got {value}", field=name)
