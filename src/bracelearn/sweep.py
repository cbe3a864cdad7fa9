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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle
from .dataset import WindowedDataset, denormalize, fit_norm, split_half, split_point, window
from .errors import DegenerateDataError, DivergenceError, InsufficientDataError
from .lstm import init_network
from .model import ModelConfig, TrainedModel
from .training import TrainConfig, TrainReport, nrmse, train

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

#: summary.csv's header, each column mapped to the ``SweepEntry.to_dict`` key it shows.
SUMMARY_COLUMNS = {
    "model": "model", "neurons": "neurons", "layers": "hidden_layers", "lookback": "lookback",
    "train_nrmse": "train_nrmse", "test_nrmse": "test_nrmse", "epochs": "epochs_run",
    "seconds": "wall_seconds",
}

DIVERGED = "diverged"


def derive_seed(master_seed: int, name: str) -> int:
    """Stable per-model seed: hash of the master seed and the model name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def fingerprint(raw: bytes) -> str:
    """SHA-256 hex digest of a data file's bytes."""
    return hashlib.sha256(raw).hexdigest()


@dataclass
class SweepEntry:
    """Result of one model's training run (or its failure)."""

    config: ModelConfig
    #: A diverged entry's report is partial: its losses and epochs run.
    report: TrainReport
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
            out["parameter_count"] = self.model.net.flat.size
        if self.failed:
            out["train_nrmse"] = DIVERGED
            out["test_nrmse"] = DIVERGED
            out["error"] = self.error
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
    #: The (displacement, force) record read from the CSV, for ``emit_predictions``.
    record: tuple[oracle.Series, oracle.Series] | None = field(default=None, repr=False)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "best_model": self.best_model,
            "data_fingerprint": self.data_fingerprint,
            "entries": [e.to_dict(include_timing=include_timing) for e in self.entries],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2, sort_keys=True)


def _check_record(config: ModelConfig, force: oracle.Series) -> None:
    """Check, before any training, that ``fit_model`` can score ``config``.

    Both halves of the record must hold a full window, and the force at
    the windows' last steps, which each half's NRMSE is measured against
    (``fit_model``'s ``targets[:head]`` and ``targets[cut:]``), must vary.
    """
    n = len(force)
    cut = split_point(n)
    half = n - cut  # the held-out half, never longer than the training half
    if config.lookback > half:
        raise InsufficientDataError(
            f"{config.name}: lookback {config.lookback} exceeds half the series length ({half})"
        )
    ends = force.values[config.lookback - 1 :]  # window w's target is ends[w]
    halves = {"training": ends[: cut - config.lookback + 1], "held-out": ends[cut:]}
    for name, targets in halves.items():
        if np.ptp(targets) == 0:
            raise DegenerateDataError(
                f"{config.name}: the force at the window ends of the {name} half has no "
                f"spread ({targets.size} samples); NRMSE is undefined"
            )


def predict_record(model: TrainedModel, data: WindowedDataset) -> np.ndarray:
    """Physical-unit force predicted for every window of a record, in order."""
    return denormalize(model.predict(data.inputs), model.stats)


def fit_model(
    disp: oracle.Series,
    force: oracle.Series,
    config: ModelConfig,
    cfg: TrainConfig,
) -> tuple[TrainedModel, TrainReport]:
    """Run the full pipeline for one model config.

    Fit normalization on the training half, window the whole record once
    and train, with the derived per-model seed, on the windows that end in
    the training half. One pass then predicts every window: the report's
    ``predictions``, whose slices give both halves' NRMSE in physical units.
    A run whose weights exploded without a non-finite loss, so that either
    NRMSE is not finite, raises DivergenceError like a diverged loss does.
    """
    (train_x, train_y), _ = split_half(disp, force)
    stats = fit_norm(train_x, train_y)
    _check_record(config, force)
    data = window(disp, force, stats, config.lookback)
    # window w ends at sample w + lookback - 1: the first ``head`` end in the
    # training half, and those from ``cut`` on lie wholly in the held-out half
    cut = split_point(len(disp))
    head = cut - config.lookback + 1
    train_set = dataclasses.replace(data, inputs=data.inputs[:head], targets=data.targets[:head])
    seed = derive_seed(cfg.seed, config.name)
    net = init_network(config.neurons, config.hidden_layers, rng=np.random.default_rng(seed))
    net, report = train(net, train_set, dataclasses.replace(cfg, seed=seed))
    model = TrainedModel(net=net, config=config, stats=stats)
    preds = report.predictions = predict_record(model, data)
    targets = denormalize(data.targets, stats)
    # an overflowing error is the divergence signal, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        report.train_nrmse = nrmse(preds[:head], targets[:head])
        report.test_nrmse = nrmse(preds[cut:], targets[cut:])
    if not (math.isfinite(report.train_nrmse) and math.isfinite(report.test_nrmse)):
        raise DivergenceError(
            f"NRMSE became non-finite after training (epochs run: {report.epochs_run})",
            epoch=report.epochs_run,
            losses=report.losses,
        )
    return model, report


def run_sweep(
    data_csv,
    grid: tuple[ModelConfig, ...] = DEFAULT_GRID,
    cfg: TrainConfig = TrainConfig(),
) -> SweepReport:
    """Train every grid model on the CSV dataset; never abort on one failure.

    A model whose training diverges is recorded with the ``diverged``
    sentinel and a message; the remaining models still run. The best
    model is the finished entry with the lowest test NRMSE. The report
    keeps the record it read for the prediction CSVs, and the fingerprint
    of the bytes it parsed.
    """
    raw = Path(data_csv).read_bytes()
    disp, force = oracle.read_csv(data_csv, raw)
    for config in grid:
        _check_record(config, force)

    report = SweepReport(data_fingerprint=fingerprint(raw), record=(disp, force))
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
    """Flat per-model summary: ``report.json``'s entries, ``SUMMARY_COLUMNS`` of each.

    A column the entry's ``to_dict`` omits is blank: seconds unless timing
    is requested, and for a diverged entry.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for entry in report.entries:
            row = entry.to_dict(include_timing=include_timing)
            writer.writerow([row.get(key, "") for key in SUMMARY_COLUMNS.values()])


def emit_predictions(model: TrainedModel, disp, force, preds, out_csv) -> None:
    """Write ``t,displacement,force_true,force_pred,split`` over the full record.

    ``preds`` is the force predicted for every window (``predict_record``);
    the first ``lookback - 1`` rows end no window and leave force_pred
    empty. The split column tags each sample by ``split_point``.
    """
    cut = split_point(len(disp))
    pred_fields = [""] * (model.config.lookback - 1) + list(map(repr, np.asarray(preds).tolist()))
    rows = zip(disp.values.tolist(), force.values.tolist(), pred_fields, strict=True)
    with open(out_csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "displacement", "force_true", "force_pred", "split"])
        for i, (x, f, pred) in enumerate(rows):
            split = "train" if i < cut else "test"
            writer.writerow([repr(disp.t0 + i * disp.dt), repr(x), repr(f), pred, split])
