"""Data preparation: temporal split, z-score normalization, windowing.

The displacement series is the model input and the force series the
target. The first half of the record (in time) is the training set; the
second half is held out. Normalization statistics come from the training
half only, and windows slide over the normalized series with stride one,
each window predicting the force at its own last step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FINITE, POSITIVE, DegenerateDataError, InsufficientDataError, ValidationError, check, count,
)
from .oracle import Series


#: A standard deviation to divide by: a zero one means the data has no spread.
_SPREAD = POSITIVE._replace(error=DegenerateDataError)


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std used to normalize displacement (x) and force (y)."""

    mean_x: float
    std_x: float
    mean_y: float
    std_y: float

    def __post_init__(self):
        check(self, mean_x=FINITE, mean_y=FINITE, std_x=_SPREAD, std_y=_SPREAD)


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding windows of normalized inputs with last-step-aligned targets.

    ``inputs`` has shape (num_windows, lookback, input_dim) and
    ``targets`` shape (num_windows,); window w covers source samples
    ``w .. w+lookback-1`` and its target is the normalized force at
    sample ``w + lookback - 1``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    lookback: int
    input_dim: int

    def __post_init__(self):
        check(self, lookback=count(1), input_dim=count(1))
        if self.inputs.shape != (len(self.targets), self.lookback, self.input_dim):
            raise ValidationError(
                f"inputs shape {self.inputs.shape} inconsistent with "
                f"{len(self.targets)} targets, lookback {self.lookback}, "
                f"input_dim {self.input_dim}"
            )
        if len(self.targets) < 1:
            raise ValidationError("dataset must contain at least one window")

    @property
    def num_windows(self) -> int:
        return len(self.targets)


def _check_pair(x: Series, y: Series) -> None:
    if len(x) != len(y):
        raise ValidationError(f"series length mismatch: {len(x)} vs {len(y)}")
    if x.dt != y.dt:
        raise ValidationError(f"series dt mismatch: {x.dt} vs {y.dt}")


def split_point(n: int) -> int:
    """Index of the first held-out sample of an n-sample record: ceil(n/2)."""
    return (n + 1) // 2


def split_half(x: Series, y: Series):
    """Split both series at ``split_point``: the first ceil(N/2) samples train.

    Returns ((train_x, train_y), (test_x, test_y)); order is preserved and
    nothing is shuffled.
    """
    _check_pair(x, y)
    n = len(x)
    if n < 4:
        raise ValidationError(f"need at least 4 samples to split, got {n}")
    cut = split_point(n)
    train = tuple(replace(s, values=s.values[:cut]) for s in (x, y))
    test = tuple(replace(s, values=s.values[cut:], t0=s.t0 + cut * s.dt) for s in (x, y))
    return train, test


def fit_norm(train_x: Series, train_y: Series) -> NormStats:
    """Compute per-channel mean and population standard deviation."""
    _check_pair(train_x, train_y)
    std_x = float(np.std(train_x.values))
    std_y = float(np.std(train_y.values))
    if std_x == 0.0:
        raise DegenerateDataError("displacement series is constant; cannot normalize")
    if std_y == 0.0:
        raise DegenerateDataError("force series is constant; cannot normalize")
    return NormStats(
        mean_x=float(np.mean(train_x.values)),
        std_x=std_x,
        mean_y=float(np.mean(train_y.values)),
        std_y=std_y,
    )


def window(x: Series, y: Series, stats: NormStats, lookback: int) -> WindowedDataset:
    """Normalize and slice both series into overlapping lookback windows."""
    _check_pair(x, y)
    if lookback < 1:
        raise ValidationError(f"lookback must be >= 1, got {lookback}")
    n = len(x)
    if n < lookback:
        raise InsufficientDataError(
            f"series has {n} samples but lookback is {lookback}"
        )
    xn = (x.values - stats.mean_x) / stats.std_x
    yn = (y.values - stats.mean_y) / stats.std_y
    inputs = sliding_window_view(xn, lookback)[:, :, np.newaxis].copy()
    targets = yn[lookback - 1 :].copy()
    return WindowedDataset(inputs=inputs, targets=targets, lookback=lookback, input_dim=1)


def denormalize(pred, stats: NormStats) -> np.ndarray:
    """Map normalized force values back to physical units."""
    return np.asarray(pred, dtype=np.float64) * stats.std_y + stats.mean_y
