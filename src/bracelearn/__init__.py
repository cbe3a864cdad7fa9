"""Learning structural-brace hysteresis with from-scratch LSTM networks.

The package generates synthetic cyclic-test data from a degrading
hysteresis law, prepares lookback-windowed training arrays, trains
stacked LSTM models with exact backpropagation through time, sweeps a
grid of architectures, and scores predictions with range-normalized
RMSE.
"""

from .dataset import NormStats, WindowedDataset, denormalize, fit_norm, split_half, window
from .errors import (
    BraceLearnError,
    ConfigError,
    DegenerateDataError,
    DivergenceError,
    InsufficientDataError,
    ModelFormatError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .lstm import (
    CellParams,
    CellState,
    NetworkParams,
    cell_forward,
    grad_check,
    init_network,
    predict,
)
from .model import ModelConfig, TrainedModel, load_model, save_model
from .oracle import (
    BoucWenParams,
    LoadingProtocol,
    Series,
    generate_protocol,
    simulate,
    simulate_trace,
    specimen_a,
    specimen_b,
)
from .sweep import DEFAULT_GRID, SweepReport, emit_predictions, fit_model, run_sweep
from .training import TrainConfig, TrainReport, nrmse, train

__version__ = "0.1.0"

__all__ = [
    "BoucWenParams",
    "BraceLearnError",
    "CellParams",
    "CellState",
    "ConfigError",
    "DEFAULT_GRID",
    "DegenerateDataError",
    "DivergenceError",
    "InsufficientDataError",
    "LoadingProtocol",
    "ModelConfig",
    "ModelFormatError",
    "NetworkParams",
    "NormStats",
    "NumericError",
    "Series",
    "ShapeError",
    "SweepReport",
    "TrainConfig",
    "TrainReport",
    "TrainedModel",
    "ValidationError",
    "WindowedDataset",
    "cell_forward",
    "denormalize",
    "emit_predictions",
    "fit_model",
    "fit_norm",
    "generate_protocol",
    "grad_check",
    "init_network",
    "load_model",
    "nrmse",
    "predict",
    "run_sweep",
    "save_model",
    "simulate",
    "simulate_trace",
    "specimen_a",
    "specimen_b",
    "split_half",
    "train",
    "window",
]
