"""Model bundle: architecture row, trained-model container, JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import NormStats
from .errors import ModelFormatError, ValidationError
from .lstm import CellParams, NetworkParams, predict

FORMAT_VERSION = 1

_GATE_BLOCKS = (
    "Wx_i", "Wx_f", "Wx_o", "Wx_g",
    "Wh_i", "Wh_f", "Wh_o", "Wh_g",
    "b_i", "b_f", "b_o", "b_g",
)


@dataclass(frozen=True)
class ModelConfig:
    """One row of the hyperparameter grid: width, depth, window length."""

    name: str
    neurons: int
    hidden_layers: int
    lookback: int

    def __post_init__(self):
        if not self.name:
            raise ValidationError("model name must be non-empty")
        for attr in ("neurons", "hidden_layers", "lookback"):
            if getattr(self, attr) < 1:
                raise ValidationError(f"{attr} must be >= 1, got {getattr(self, attr)}")


@dataclass
class TrainedModel:
    """Network weights plus the config and normalization that produced them."""

    net: NetworkParams
    config: ModelConfig
    stats: NormStats

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Normalized-force predictions for normalized input windows."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3 or windows.shape[1] != self.config.lookback:
            raise ValidationError(
                f"windows must be (num, {self.config.lookback}, input_dim), "
                f"got {windows.shape}"
            )
        return predict(self.net, windows)


def _model_dict(model: TrainedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model": {
            "name": model.config.name,
            "neurons": model.config.neurons,
            "hidden_layers": model.config.hidden_layers,
            "lookback": model.config.lookback,
        },
        "normalization": {
            "mean_x": model.stats.mean_x,
            "std_x": model.stats.std_x,
            "mean_y": model.stats.mean_y,
            "std_y": model.stats.std_y,
        },
        "parameters": {
            "cells": [
                {name: getattr(cell, name).tolist() for name in _GATE_BLOCKS}
                for cell in model.net.cells
            ],
            "W_out": model.net.W_out.tolist(),
            "b_out": float(model.net.b_out[0]),
        },
    }


def save_model(path, model: TrainedModel) -> None:
    """Write the model as a single versioned JSON document."""
    with open(path, "w") as handle:
        json.dump(_model_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(
            f"model file is missing field '{where}.{key}'" if where else
            f"model file is missing field '{key}'",
            field=f"{where}.{key}" if where else key,
        )
    return mapping[key]


def _convert(mapping: dict, key: str, where: str, kind):
    """``kind`` applied to a required field; a value it rejects is named."""
    value = _require(mapping, key, where)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"model field '{where}.{key}' is malformed: {exc}", field=f"{where}.{key}"
        ) from exc


def _integer(value) -> int:
    """A JSON integer; a bool or a non-integral number is rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def load_model(path) -> TrainedModel:
    """Read a model JSON document back into a TrainedModel."""
    path = Path(path)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc

    version = _require(doc, "format_version", "")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads "
            f"version {FORMAT_VERSION}",
            field="format_version",
        )
    model_doc = _require(doc, "model", "")
    config = ModelConfig(
        name=_require(model_doc, "name", "model"),
        neurons=_convert(model_doc, "neurons", "model", _integer),
        hidden_layers=_convert(model_doc, "hidden_layers", "model", _integer),
        lookback=_convert(model_doc, "lookback", "model", _integer),
    )
    norm_doc = _require(doc, "normalization", "")
    stats = NormStats(
        mean_x=_convert(norm_doc, "mean_x", "normalization", float),
        std_x=_convert(norm_doc, "std_x", "normalization", float),
        mean_y=_convert(norm_doc, "mean_y", "normalization", float),
        std_y=_convert(norm_doc, "std_y", "normalization", float),
    )
    params_doc = _require(doc, "parameters", "")
    cells_doc = _require(params_doc, "cells", "parameters")
    if not isinstance(cells_doc, list):
        raise ModelFormatError(
            "model field 'parameters.cells' must be a list of cells",
            field="parameters.cells",
        )
    if len(cells_doc) != config.hidden_layers:
        raise ModelFormatError(
            f"model declares {config.hidden_layers} hidden layers but the file "
            f"holds {len(cells_doc)} cells",
            field="parameters.cells",
        )
    cells = []
    for index, cell_doc in enumerate(cells_doc):
        blocks = {
            name: _convert(cell_doc, name, f"parameters.cells[{index}]", _float_array)
            for name in _GATE_BLOCKS
        }
        try:
            cells.append(CellParams(**blocks))
        except ValidationError as exc:
            raise ModelFormatError(
                f"parameters.cells[{index}] is malformed: {exc}",
                field=f"parameters.cells[{index}]",
            ) from exc
    w_out = _convert(params_doc, "W_out", "parameters", _float_array)
    b_out = np.array([_convert(params_doc, "b_out", "parameters", float)])
    try:
        net = NetworkParams(cells=cells, W_out=w_out, b_out=b_out)
    except ValidationError as exc:
        raise ModelFormatError(
            f"parameters are malformed: {exc}", field="parameters"
        ) from exc
    if net.hidden_size != config.neurons:
        raise ModelFormatError(
            f"model declares {config.neurons} neurons but weights are sized "
            f"{net.hidden_size}",
            field="parameters",
        )
    return TrainedModel(net=net, config=config, stats=stats)
