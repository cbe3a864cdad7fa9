"""Exception types shared across the package."""


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
    """Data has no usable spread (constant series, zero range)."""


class InsufficientDataError(ValidationError):
    """Too few samples for the requested lookback or split."""


class ConfigError(ValidationError):
    """An experiment config file is malformed or contains unknown keys."""


class NumericError(BraceLearnError, ArithmeticError):
    """A computation produced a non-finite value."""


class DivergenceError(BraceLearnError, RuntimeError):
    """Numerical state blew up during integration or training.

    ``index`` is the sample index for simulator divergence, ``epoch`` the
    epoch index for training divergence; ``losses`` holds the loss of
    every epoch that finished before training diverged.
    """

    def __init__(self, message, *, index=None, epoch=None, losses=()):
        super().__init__(message)
        self.index = index
        self.epoch = epoch
        self.losses = list(losses)


class ModelFormatError(ValidationError):
    """A serialized model file is missing or has a malformed field."""
