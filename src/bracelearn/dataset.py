"""Data preparation: temporal split, z-score normalization, windowing.

The displacement series is the model input and the force series the
target. The first half of the record (in time) is the training set; the
second half is held out. Normalization statistics come from the training
half only, and windows slide over the normalized series with stride one,
each window predicting the force at its own last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FINITE, POSITIVE, DegenerateDataError, InsufficientDataError, ValidationError, check, count,
)
from .oracle import Series, check_pair


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
    sample ``w + lookback - 1``. The three sizes are read from the
    arrays' shapes, so they cannot disagree with them.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 3 or len(self.inputs) != len(self.targets):
            raise ValidationError(
                f"inputs shape {self.inputs.shape} is not (num_windows, lookback, "
                f"input_dim) for {len(self.targets)} targets"
            )
        check(self, num_windows=count(1), lookback=count(1), input_dim=count(1))

    @property
    def num_windows(self) -> int:
        return len(self.targets)

    @property
    def lookback(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[2]


def split_point(n: int) -> int:
    """Index of the first held-out sample of an n-sample record: ceil(n/2)."""
    return (n + 1) // 2


def split_half(x: Series, y: Series):
    """Split both series at ``split_point``: the first ceil(N/2) samples train.

    Returns ((train_x, train_y), (test_x, test_y)); order is preserved and
    nothing is shuffled.
    """
    check_pair(x, y)
    n = len(x)
    if n < 4:
        raise InsufficientDataError(f"need at least 4 samples to split, got {n}")
    cut = split_point(n)
    train = tuple(replace(s, values=s.values[:cut]) for s in (x, y))
    test = tuple(replace(s, values=s.values[cut:], t0=s.t0 + cut * s.dt) for s in (x, y))
    return train, test


def fit_norm(train_x: Series, train_y: Series) -> NormStats:
    """Compute per-channel mean and population standard deviation.

    A constant channel, or one whose standard deviation overflows the
    float range, raises DegenerateDataError naming its column.
    """
    check_pair(train_x, train_y)
    stats = []
    for series in (train_x, train_y):
        # values too large to square are rejected, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = float(np.mean(series.values)), float(np.std(series.values))
        if std == 0.0:
            raise DegenerateDataError(f"{series.unit} series is constant; cannot normalize")
        if not math.isfinite(std):  # an overflowing mean overflows the deviation too
            raise DegenerateDataError(
                f"{series.unit} column: its standard deviation overflows the float range",
                field=series.unit,
            )
        stats += [mean, std]
    return NormStats(*stats)


def window(x: Series, y: Series, stats: NormStats, lookback: int) -> WindowedDataset:
    """Normalize and slice both series into overlapping lookback windows.

    A series that ``stats`` scale past the float range raises
    DegenerateDataError, naming the statistic in ``field``.
    """
    check_pair(x, y)
    if lookback < 1:
        raise ValidationError(f"lookback must be >= 1, got {lookback}")
    n = len(x)
    if n < lookback:
        raise InsufficientDataError(
            f"series has {n} samples but lookback is {lookback}"
        )
    # statistics too narrow for this record overflow: rejected, not warned about
    with np.errstate(over="ignore"):
        xn = (x.values - stats.mean_x) / stats.std_x
        yn = (y.values - stats.mean_y) / stats.std_y
    for series, scaled, std in ((x, xn, "std_x"), (y, yn, "std_y")):
        if not np.isfinite(scaled).all():
            message = f"{series.unit} normalized by {std} {getattr(stats, std)!r} overflows"
            raise DegenerateDataError(message, field=std)
    inputs = sliding_window_view(xn, lookback)[:, :, np.newaxis].copy()
    targets = yn[lookback - 1 :].copy()
    return WindowedDataset(inputs=inputs, targets=targets)


def denormalize(pred, stats: NormStats) -> np.ndarray:
    """Map normalized force values back to physical units."""
    return np.asarray(pred, dtype=np.float64) * stats.std_y + stats.mean_y
