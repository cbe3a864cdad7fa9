"""Hyperparameter study: train every grid model on one dataset and compare.

The built-in grid spans three widths (5, 20, 40 neurons) and, for the
widest, three depths (5, 10, 20 layers) and three window lengths
(lookback 10, 30, 40). Each model trains independently with its own seed
derived from the master seed, so removing one model never changes
another's results.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle
from .dataset import denormalize, fit_norm, split_half, window
from .errors import DivergenceError, ValidationError
from .lstm import init_network, parameter_count
from .model import ModelConfig, TrainedModel
from .training import TrainConfig, TrainReport, train

#: The seven standard configurations: (name, neurons, hidden layers, lookback).
DEFAULT_GRID: tuple[ModelConfig, ...] = (
    ModelConfig("Model 1", 5, 5, 30),
    ModelConfig("Model 2", 20, 5, 30),
    ModelConfig("Model 3a", 40, 5, 30),
    ModelConfig("Model 3b", 40, 10, 30),
    ModelConfig("Model 3c", 40, 20, 30),
    ModelConfig("Model 3d", 40, 5, 10),
    ModelConfig("Model 3e", 40, 5, 40),
)

SUMMARY_COLUMNS = (
    "model", "neurons", "layers", "lookback",
    "train_nrmse", "test_nrmse", "epochs", "seconds",
)

DIVERGED = "diverged"


def derive_seed(master_seed: int, name: str) -> int:
    """Stable per-model seed: hash of the master seed and the model name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def fingerprint(path) -> str:
    """SHA-256 hex digest of a data file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class SweepEntry:
    """Result of one model's training run (or its failure)."""

    config: ModelConfig
    report: TrainReport | None = None
    model: TrainedModel | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "model": self.config.name,
            "neurons": self.config.neurons,
            "hidden_layers": self.config.hidden_layers,
            "lookback": self.config.lookback,
        }
        if self.model is not None:
            out["parameter_count"] = parameter_count(self.model.net)
        if self.failed:
            out["train_nrmse"] = DIVERGED
            out["test_nrmse"] = DIVERGED
            out["error"] = self.error
            if self.report is not None:
                out["epochs_run"] = self.report.epochs_run
        else:
            out.update(self.report.to_dict(include_timing=include_timing))
        return out


@dataclass
class SweepReport:
    """All grid entries plus the winning model and the data fingerprint."""

    entries: list[SweepEntry] = field(default_factory=list)
    best_model: str | None = None
    data_fingerprint: str = ""

    def entry(self, name: str) -> SweepEntry:
        for item in self.entries:
            if item.config.name == name:
                return item
        raise KeyError(name)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "best_model": self.best_model,
            "data_fingerprint": self.data_fingerprint,
            "entries": [e.to_dict(include_timing=include_timing) for e in self.entries],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2, sort_keys=True)


def fit_model(
    disp: oracle.Series,
    force: oracle.Series,
    config: ModelConfig,
    cfg: TrainConfig,
) -> tuple[TrainedModel, TrainReport]:
    """Run the full pipeline for one model config.

    Split 50/50, fit normalization on the training half, window both
    halves with the model's lookback, initialize with the derived
    per-model seed, train, and evaluate NRMSE on both halves in physical
    units.
    """
    (train_x, train_y), (test_x, test_y) = split_half(disp, force)
    stats = fit_norm(train_x, train_y)
    train_set = window(train_x, train_y, stats, config.lookback)
    test_set = window(test_x, test_y, stats, config.lookback)
    seed = derive_seed(cfg.seed, config.name)
    model_cfg = dataclasses.replace(cfg, seed=seed)
    net = init_network(config.neurons, config.hidden_layers, rng=np.random.default_rng(seed))
    net, report = train(net, train_set, model_cfg, test_set=test_set, stats=stats)
    return TrainedModel(net=net, config=config, stats=stats), report


def run_sweep(
    data_csv,
    grid: tuple[ModelConfig, ...] = DEFAULT_GRID,
    cfg: TrainConfig = TrainConfig(),
) -> SweepReport:
    """Train every grid model on the CSV dataset; never abort on one failure.

    A model whose training diverges is recorded with the ``diverged``
    sentinel and a message; the remaining models still run. The best
    model is the finished entry with the lowest test NRMSE.
    """
    disp, force = oracle.read_csv(data_csv)
    half = len(disp) // 2
    for config in grid:
        if config.lookback > half:
            raise ValidationError(
                f"{config.name}: lookback {config.lookback} exceeds half the "
                f"series length ({half})"
            )

    report = SweepReport(data_fingerprint=fingerprint(data_csv))
    for config in grid:
        try:
            trained, train_report = fit_model(disp, force, config, cfg)
            report.entries.append(
                SweepEntry(config=config, report=train_report, model=trained)
            )
        except DivergenceError as exc:
            partial = TrainReport(
                losses=exc.losses,
                epochs_run=exc.epoch if exc.epoch is not None else 0,
                seed=derive_seed(cfg.seed, config.name),
            )
            report.entries.append(
                SweepEntry(config=config, report=partial, error=str(exc))
            )

    finished = [e for e in report.entries if not e.failed]
    if finished:
        report.best_model = min(finished, key=lambda e: e.report.test_nrmse).config.name
    return report


def write_summary_csv(report: SweepReport, path, include_timing: bool = False) -> None:
    """Flat per-model summary; timing column is blank unless requested."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for entry in report.entries:
            cfg = entry.config
            if entry.failed:
                train_nrmse = test_nrmse = DIVERGED
            else:
                train_nrmse = repr(entry.report.train_nrmse)
                test_nrmse = repr(entry.report.test_nrmse)
            epochs = entry.report.epochs_run if entry.report is not None else ""
            seconds = (
                repr(entry.report.wall_seconds)
                if include_timing and entry.report is not None
                else ""
            )
            writer.writerow(
                [cfg.name, cfg.neurons, cfg.hidden_layers, cfg.lookback,
                 train_nrmse, test_nrmse, epochs, seconds]
            )


def emit_predictions(model: TrainedModel, data_csv, out_csv) -> None:
    """Write ``t,displacement,force_true,force_pred,split`` over the full series.

    Predictions cover every full window of the series; the first
    ``lookback - 1`` rows have no window ending there and carry an empty
    force_pred field. The split column tags each sample by the 50/50
    temporal split convention.
    """
    disp, force = oracle.read_csv(data_csv)
    lookback = model.config.lookback
    windows = window(disp, force, model.stats, lookback)
    preds = denormalize(model.predict(windows.inputs), model.stats)
    cut = (len(disp) + 1) // 2
    with open(out_csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "displacement", "force_true", "force_pred", "split"])
        for i in range(len(disp)):
            pred_field = repr(float(preds[i - lookback + 1])) if i >= lookback - 1 else ""
            writer.writerow(
                [
                    repr(i * disp.dt),
                    repr(float(disp.values[i])),
                    repr(float(force.values[i])),
                    pred_field,
                    "train" if i < cut else "test",
                ]
            )
