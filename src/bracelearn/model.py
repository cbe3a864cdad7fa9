"""Model bundle: architecture row, trained-model container, JSON persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import NormStats
from .errors import ModelFormatError, ValidationError
from .lstm import CellParams, NetworkParams, predict

FORMAT_VERSION = 1


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
        "model": dataclasses.asdict(model.config),
        "normalization": dataclasses.asdict(model.stats),
        "parameters": {
            "cells": [
                {f.name: getattr(cell, f.name).tolist() for f in dataclasses.fields(cell)}
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


def _require(mapping: dict, key: str, where: str = ""):
    path = f"{where}.{key}" if where else key
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(f"model file is missing field '{path}'", field=path)
    return mapping[key]


def _integer(value) -> int:
    """An integer; a bool, a string or a fraction is rejected, and 6.0 is 6."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite number; a bool, a string, nan or inf is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _reals(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of finite numbers, got {value!r}")
    return tuple(map(_real, value))


def _float_array(value) -> np.ndarray:
    """A rectangular (nested) list of numbers; a string, null or all-bool array is rejected."""
    array = np.asarray(value)
    if array.dtype.kind not in "if":
        raise ValueError(f"expected an array of numbers, got {array.dtype} entries")
    return np.asarray(array, dtype=np.float64)


#: How ``load_fields`` converts a field, by its dataclass annotation.
_KINDS = {
    int: _integer,
    float: _real,
    str: _text,
    tuple[float, ...]: _reals,
    np.ndarray: _float_array,
}


def _convert_field(kind, value, path: str, error: type[ValidationError]):
    try:
        return kind(value)
    # OverflowError: math.isfinite of an integer beyond the float range
    except (ValueError, OverflowError) as exc:
        raise error(f"{path}: {exc}", field=path) from None


def load_fields(cls, raw, where: str, error: type[ValidationError]):
    """Build dataclass ``cls`` from ``raw``, a mapping read from a file.

    Every field is converted by its annotation (``_KINDS``); a missing
    field without a default, an unknown key, a malformed value or a value
    that ``cls`` itself rejects raises ``error`` naming the dotted path,
    such as ``training.batch_size`` or ``parameters.cells[0].Wh_f``.
    """
    if not isinstance(raw, dict):
        raise error(f"{where}: expected a mapping, got {type(raw).__name__}", field=where)
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            raise error(f"{where}.{key}: unknown field", field=f"{where}.{key}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        path = f"{where}.{f.name}"
        if f.name in raw:
            values[f.name] = _convert_field(_KINDS[hints[f.name]], raw[f.name], path, error)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise error(f"{path}: missing field", field=path)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise error(f"{where}: {exc}", field=where) from exc


def load_model(path) -> TrainedModel:
    """Read a model JSON document back into a TrainedModel."""
    path = Path(path)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc

    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads version {FORMAT_VERSION}",
            field="format_version",
        )
    config = load_fields(ModelConfig, _require(doc, "model"), "model", ModelFormatError)
    stats = load_fields(NormStats, _require(doc, "normalization"), "normalization", ModelFormatError)
    params_doc = _require(doc, "parameters")
    cells_doc = _require(params_doc, "cells", "parameters")
    if not isinstance(cells_doc, list):
        raise ModelFormatError(
            "model field 'parameters.cells' must be a list of cells",
            field="parameters.cells",
        )
    cells = [
        load_fields(CellParams, cell_doc, f"parameters.cells[{index}]", ModelFormatError)
        for index, cell_doc in enumerate(cells_doc)
    ]
    w_out = _convert_field(
        _float_array, _require(params_doc, "W_out", "parameters"),
        "parameters.W_out", ModelFormatError,
    )
    b_out = _convert_field(
        _real, _require(params_doc, "b_out", "parameters"),
        "parameters.b_out", ModelFormatError,
    )
    try:
        net = NetworkParams(cells=cells, W_out=w_out, b_out=np.array([b_out]))
    except ValidationError as exc:
        raise ModelFormatError(f"parameters are malformed: {exc}", field="parameters") from exc
    if (net.num_layers, net.hidden_size) != (config.hidden_layers, config.neurons):
        raise ModelFormatError(
            f"model declares {config.hidden_layers} hidden layers of {config.neurons} "
            f"neurons but the file holds {net.num_layers} of {net.hidden_size}",
            field="parameters",
        )
    return TrainedModel(net=net, config=config, stats=stats)
