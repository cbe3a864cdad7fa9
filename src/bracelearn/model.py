"""Model bundle: architecture row, trained-model container, JSON persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import NormStats, denormalize
from .errors import ModelFormatError, ValidationError, check, count
from .lstm import CellParams, NetworkParams, parameter_count, predict

FORMAT_VERSION = 1

#: The most parameters a network may have: about 8 times Model 3c's
#: 253,001. ``ModelConfig`` checks the count before anything is
#: allocated. At the cap a model file is about 44 MB, and a one-epoch
#: ``train`` of the widest such network (705 neurons, one layer, lookback
#: 30) on a 521-sample record peaks at about 302 MB and takes about 8 s
#: on two x86-64 cores. The cap bounds the parameters only: a step's
#: activations grow with neurons x layers x lookback, so a deep, narrow
#: network under it can still need far more memory.
MAX_PARAMETERS = 2_000_000

#: The most activations ``gradcheck`` may draw one window for: lookback x
#: neurons x layers, checked before anything is drawn. The default (5 x 4
#: x 2 = 40) and Model 3c (30 x 40 x 20 = 24,000) are far below it. At
#: the cap the window's tape, its gradients and a predict of it bring the
#: process to about 170 MB (lookback 25,000, 40 neurons, one layer; x86-64).
MAX_WINDOW_ACTIVATIONS = 1_000_000


@dataclass(frozen=True)
class ModelConfig:
    """One row of the hyperparameter grid: width, depth, window length."""

    name: str
    neurons: int
    hidden_layers: int
    lookback: int

    def __post_init__(self):
        if not self.name:
            raise ValidationError("model name must be non-empty", field="name")
        check(self, neurons=count(1), hidden_layers=count(1), lookback=count(1))
        size = parameter_count(self.neurons, self.hidden_layers)
        if size > MAX_PARAMETERS:
            raise ValidationError(
                f"neurons {self.neurons} x hidden_layers {self.hidden_layers} gives {size} "
                f"parameters, more than the {MAX_PARAMETERS} allowed",
                field="neurons",
            )


@dataclass
class TrainedModel:
    """Network weights plus the config and normalization that produced them."""

    net: NetworkParams
    config: ModelConfig
    stats: NormStats

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Force, in the record's units, predicted for each normalized input window."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3 or windows.shape[1] != self.config.lookback:
            raise ValidationError(
                f"windows must be (num, {self.config.lookback}, input_dim), "
                f"got {windows.shape}"
            )
        return denormalize(predict(self.net, windows), self.stats)


@dataclass
class _Parameters:
    """The ``parameters`` section of a model file: a NetworkParams, ``b_out`` as a scalar."""

    cells: list[CellParams]
    W_out: np.ndarray
    b_out: float


@dataclass
class _ModelFile:
    """The model JSON v1 document, read by ``load_model`` and written by ``save_model``."""

    format_version: int
    model: ModelConfig
    normalization: NormStats
    parameters: _Parameters


def save_model(path, model: TrainedModel) -> None:
    """Write the model as a single versioned JSON document.

    The document is one line with its keys sorted, each array as its
    ``tolist()``; it is encoded in full before the file is opened.
    """
    params = _Parameters(model.net.cells, model.net.W_out, float(model.net.b_out[0]))
    tree = dataclasses.asdict(_ModelFile(FORMAT_VERSION, model.config, model.stats, params))
    text = json.dumps(tree, default=np.ndarray.tolist, sort_keys=True)
    with open(path, "w") as handle:
        handle.writelines((text, "\n"))


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


def _nested(kind) -> bool:
    """Whether ``load_fields`` descends into a field: a dataclass or a list/tuple of them."""
    return dataclasses.is_dataclass(kind) or typing.get_origin(kind) in (list, tuple) and (
        dataclasses.is_dataclass(typing.get_args(kind)[0])
    )


def _load(kind, value, path: str):
    """Convert one field's value by its annotation (``_KINDS`` for a scalar or array)."""
    if dataclasses.is_dataclass(kind):
        return load_fields(kind, value, path)
    if _nested(kind):  # a list or tuple of dataclasses
        if not isinstance(value, list) or not value:
            message = f"expected a non-empty list, got {value!r:.60}"
            raise ValidationError(f"{path}: {message}", field=path)
        item_cls = typing.get_args(kind)[0]
        items = (load_fields(item_cls, v, f"{path}[{i}]") for i, v in enumerate(value))
        return typing.get_origin(kind)(items)
    try:
        return _KINDS[kind](value)
    # OverflowError: math.isfinite of an integer beyond the float range
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: {exc}", field=path) from None


def load_fields(cls, raw, where: str):
    """Build dataclass ``cls`` from ``raw``, a mapping read from a file.

    Descends into every dataclass or list-of-dataclass field, so one call
    with ``where=""`` reads a whole file. A missing field without a default,
    an unknown key, a malformed value or a value that a dataclass rejects
    raises ValidationError naming the path, such as
    ``parameters.cells[0].Wh_f``, in its message and ``field``. Each file
    reader (``cli.load_config``, ``load_model``) catches it, prefixes its
    file's name and raises its own type. A null is malformed, except in a
    defaulted nested field (a config section or ``grid``), where it means
    the default.
    """
    if not isinstance(raw, dict):
        message = f"expected a mapping, got {type(raw).__name__}"
        raise ValidationError(f"{where or 'top level'}: {message}", field=where or None)
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            path = f"{where}.{key}" if where else str(key)
            raise ValidationError(f"{path}: unknown field", field=path)
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        path = f"{where}.{f.name}" if where else f.name
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if f.name not in raw or not required and raw[f.name] is None and _nested(hints[f.name]):
            if required:
                raise ValidationError(f"{path}: missing field", field=path)
        else:
            values[f.name] = _load(hints[f.name], raw[f.name], path)
    try:
        return cls(**values)
    except ValidationError as exc:
        path = ".".join(filter(None, (where, exc.field)))
        raise ValidationError(f"{path}: {exc}", field=path) from exc


def load_model(path) -> TrainedModel:
    """Read a model JSON document back into a TrainedModel.

    A malformed document raises ModelFormatError, whose message names the file.
    """
    path = Path(path)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    # ValueError: a JSONDecodeError, a UnicodeDecodeError or an integer past
    # Python's digit limit; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return _from_document(doc)
    except ValidationError as exc:
        raise ModelFormatError(f"{path}: {exc}", field=exc.field) from exc


def _from_document(doc) -> TrainedModel:
    """The TrainedModel that a parsed model JSON document describes."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version is not None and version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads version {FORMAT_VERSION}",
            field="format_version",
        )
    file = load_fields(_ModelFile, doc, "")
    config, params = file.model, file.parameters
    try:
        net = NetworkParams(cells=params.cells, W_out=params.W_out, b_out=np.array([params.b_out]))
    except ValidationError as exc:
        raise ModelFormatError(f"parameters are malformed: {exc}", field="parameters") from exc
    if (net.num_layers, net.hidden_size) != (config.hidden_layers, config.neurons):
        raise ModelFormatError(
            f"model declares {config.hidden_layers} hidden layers of {config.neurons} "
            f"neurons but the file holds {net.num_layers} of {net.hidden_size}",
            field="parameters",
        )
    return TrainedModel(net=net, config=config, stats=file.normalization)
