"""Hyperparameter study: train every grid model on one dataset and compare.

The built-in grid spans three widths (5, 20, 40 neurons) and, for the
widest, three depths (5, 10, 20 layers) and three window lengths
(lookback 10, 30, 40). Each model trains independently with its own seed
derived from the master seed, so removing one model never changes
another's results.

When two or more CPUs are usable, the entries train in ``spawn`` worker
processes, one per usable CPU and at most one per entry, longest first.
Each worker starts with one BLAS thread and is bound to one CPU, so a
sweep writes the bytes of a one-BLAS-thread run whatever the caller's
BLAS setting. On one CPU the entries train inline, in the calling
process. Each spawned worker imports the caller's main module, so a
program that calls ``run_sweep`` must start its work under
``if __name__ == "__main__":``.

Each entry writes its own loss, model and prediction files (``entry_files``)
in the process that fitted it, as soon as it finishes, so a sweep that
stops early keeps the files of the entries that had finished. What
comes back to the caller is a ``SweepEntry``, which holds the entry's
report and parameter count but not its network. The caller writes
``report.json`` and ``summary.csv`` once every entry has finished.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lstm, oracle
from .dataset import denormalize, fit_norm, split_half, split_point, window
from .errors import (
    DegenerateDataError, DivergenceError, InsufficientDataError, ValidationError, WorkerError,
)
from .lstm import init_network
from .model import ModelConfig, TrainedModel, save_model
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

#: The longest file name, in bytes, that common file systems allow.
_NAME_MAX = 255

#: The environment a sweep worker starts with: BLAS on one thread.
_WORKER_ENVIRON = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")}


def derive_seed(master_seed: int, name: str) -> int:
    """Stable per-model seed: hash of the master seed and the model name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def entry_files(name: str) -> tuple[str, str, str]:
    """The loss, model and prediction file names a sweep writes for grid entry ``name``.

    Each holds the name's slug: lower case, with a dash for each space.
    """
    slug = name.lower().replace(" ", "-")
    return f"loss_{slug}.csv", f"model_{slug}.json", f"predictions_{slug}.csv"


def name_key(name: str) -> str:
    """What ``train --model`` matches: the name in lower case without spaces or dashes.

    So 'Model3a' and 'model-3a' are 'Model 3a'.
    """
    return name.lower().replace(" ", "").replace("-", "")


def check_grid_names(grid: tuple[ModelConfig, ...]) -> None:
    """Reject a grid whose entry files a sweep could not write, naming ``grid[i].name``.

    Each name must be a plain file name that the file system can encode,
    short enough that every ``entry_files`` name fits in ``_NAME_MAX`` bytes.
    No two names may share a ``name_key``, so no two entries write one
    file and ``train --model`` picks exactly one. Raises ValidationError.
    """
    keys = [name_key(model.name) for model in grid]
    for index, (model, key) in enumerate(zip(grid, keys)):
        where = f"grid[{index}].name"
        if any(char in model.name for char in "/\\\0"):
            message = f"{model.name!r} must be a plain file name, without '/', '\\' or NUL"
            raise ValidationError(f"{where} {message}", field=where)
        try:  # a YAML escape can give a lone surrogate, which no file name can hold
            longest = max(len(os.fsencode(file)) for file in entry_files(model.name))
        except UnicodeEncodeError:
            message = f"{model.name!r} cannot be encoded as a file name"
            raise ValidationError(f"{where} {message}", field=where) from None
        if longest > _NAME_MAX:
            message = f"is too long: its sweep files need {longest} bytes, over {_NAME_MAX}"
            raise ValidationError(f"{where} {message}", field=where)
        if key in keys[:index]:
            first = keys.index(key)
            raise ValidationError(
                f"grid[{first}] {grid[first].name!r} and {where} {model.name!r} "
                f"are ambiguous: both read as {key!r}",
                field=where,
            )


def write_loss_csv(path, losses) -> None:
    """Write the ``epoch,loss`` curve, one row per finished epoch."""
    with open(path, "w", newline="") as handle:
        handle.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            handle.write(f"{epoch},{loss!r}\n")


@dataclass
class SweepEntry:
    """One grid entry's result: its report and parameter count, or its failure.

    The trained network itself stays in the process that fitted it; load
    it from the entry's ``model_<slug>.json`` (``entry_files``).
    """

    config: ModelConfig
    #: A diverged entry's report is partial: its losses and epochs run.
    report: TrainReport
    #: The trained network's ``net.flat.size``; None for a diverged entry.
    parameter_count: int | None = None
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
        if self.parameter_count is not None:
            out["parameter_count"] = self.parameter_count
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
    data_fingerprint: str = ""

    @property
    def best_model(self) -> str | None:
        """Name of the finished entry with the lowest test NRMSE; None if every entry failed."""
        finished = [e for e in self.entries if not e.failed]
        return min(finished, key=lambda e: e.report.test_nrmse).config.name if finished else None

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "best_model": self.best_model,
            "data_fingerprint": self.data_fingerprint,
            "entries": [e.to_dict(include_timing=include_timing) for e in self.entries],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2, sort_keys=True)


def _halves(config: ModelConfig, force: oracle.Series) -> tuple[slice, slice]:
    """The windows ``fit_model`` trains on and holds out, checked before any training.

    Window w ends at sample ``w + lookback - 1``: the first slice holds
    the windows that end in the training half, the second those that lie
    wholly in the held-out half. Both halves must hold a full window, and
    the force at the windows' last steps, which each half's NRMSE is
    measured against, must vary.
    """
    n = len(force)
    cut = split_point(n)
    half = n - cut  # the held-out half, never longer than the training half
    if config.lookback > half:
        raise InsufficientDataError(
            f"{config.name}: lookback {config.lookback} exceeds half the series length ({half})"
        )
    fit, held_out = slice(cut - config.lookback + 1), slice(cut, None)
    ends = force.values[config.lookback - 1 :]  # window w's target is ends[w]
    for name, part in (("training", fit), ("held-out", held_out)):
        targets = ends[part]
        if np.ptp(targets) == 0:
            raise DegenerateDataError(
                f"{config.name}: the force at the window ends of the {name} half has no "
                f"spread ({targets.size} samples); NRMSE is undefined"
            )
    return fit, held_out


def fit_model(
    disp: oracle.Series,
    force: oracle.Series,
    config: ModelConfig,
    cfg: TrainConfig,
) -> tuple[TrainedModel, TrainReport, np.ndarray]:
    """Run the full pipeline for one model config: the model, its report and its predictions.

    Fit normalization on the training half, window the whole record once
    and train, with the derived per-model seed, on the first ``_halves``
    slice. One pass then predicts every window: the returned physical-unit
    force, whose two ``_halves`` slices give both halves' NRMSE. A run
    whose weights exploded without a non-finite loss, so that either NRMSE
    is not finite, raises DivergenceError like a diverged loss does.
    """
    (train_x, train_y), _ = split_half(disp, force)
    stats = fit_norm(train_x, train_y)
    fit, held_out = _halves(config, force)
    data = window(disp, force, stats, config.lookback)
    train_set = dataclasses.replace(data, inputs=data.inputs[fit], targets=data.targets[fit])
    seed = derive_seed(cfg.seed, config.name)
    net = init_network(config.neurons, config.hidden_layers, rng=np.random.default_rng(seed))
    net, report = train(net, train_set, dataclasses.replace(cfg, seed=seed))
    model = TrainedModel(net=net, config=config, stats=stats)
    preds = model.predict(data.inputs)
    targets = denormalize(data.targets, stats)
    # an overflowing error is the divergence signal, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        report.train_nrmse = nrmse(preds[fit], targets[fit])
        report.test_nrmse = nrmse(preds[held_out], targets[held_out])
    if not (math.isfinite(report.train_nrmse) and math.isfinite(report.test_nrmse)):
        raise DivergenceError(
            f"NRMSE became non-finite after training (epochs run: {report.epochs_run})",
            epoch=report.epochs_run,
            losses=report.losses,
        )
    return model, report, preds


def _fit_entry(disp, force, config: ModelConfig, cfg: TrainConfig, out_dir: Path) -> SweepEntry:
    """Train one grid entry, in a worker or inline, write its files in ``out_dir`` and return it.

    A diverged run is a failed entry, which writes only its loss CSV; a
    finished one also writes its model JSON and prediction CSV. The first
    entry to finish creates ``out_dir``.
    """
    try:
        trained, report, preds = fit_model(disp, force, config, cfg)
        entry = SweepEntry(config=config, report=report, parameter_count=trained.net.flat.size)
    except DivergenceError as exc:
        entry = SweepEntry(config=config, report=TrainReport(losses=exc.losses), error=str(exc))
    loss_csv, model_json, predictions_csv = (out_dir / name for name in entry_files(config.name))
    out_dir.mkdir(exist_ok=True)
    write_loss_csv(loss_csv, entry.report.losses)
    if not entry.failed:
        save_model(model_json, trained)
        emit_predictions(trained, disp, force, preds, predictions_csv)
    return entry


def _cost(config: ModelConfig, samples: int) -> int:
    """An estimate of an entry's training time: neurons² × layers × lookback × windows."""
    windows = samples - config.lookback + 1
    return config.neurons**2 * config.hidden_layers * config.lookback * windows


def _start_worker(cpu: int | None) -> None:
    """Set up a worker process: the parent handles an interrupt, and ``cpu`` is its one CPU."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def _environ(values: dict[str, str]):
    """Set ``values`` in this process's environment, which processes it starts inherit."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _fit_in_workers(fit, grid, samples: int, workers: int) -> list[SweepEntry]:
    """Fit every grid entry of a ``samples``-long record in ``workers`` spawned processes.

    ``fit(config)`` fits one entry; the entries return in grid order.

    Each worker is a one-process executor, so a worker that dies fails
    exactly the entry it was training, and it gets its CPU as an
    initializer argument. The longest entry not yet started goes to the
    next idle worker. If an entry raises or the caller is interrupted,
    every worker is stopped and joined before the exception leaves.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("spawn")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    queue = sorted(range(len(grid)), key=lambda i: _cost(grid[i], samples), reverse=True)
    entries: list[SweepEntry | None] = [None] * len(grid)
    running = {}  # future -> (its executor, its grid index)
    before = set(multiprocessing.active_children())
    idle = [
        ProcessPoolExecutor(1, mp_context=context, initializer=_start_worker,
                            initargs=(cpus[k % len(cpus)],))
        for k in range(workers)
    ]
    pools = list(idle)
    finished = False
    try:
        # each worker reads its BLAS thread count as it starts, when it loads numpy
        with _environ(_WORKER_ENVIRON):
            while queue or running:
                while queue and idle:
                    pool, index = idle.pop(), queue.pop(0)
                    running[pool.submit(fit, grid[index])] = pool, index
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    pool, index = running.pop(future)
                    entries[index] = future.result()
                    idle.append(pool)
        finished = True
    except BrokenProcessPool:
        raise WorkerError(
            f"{grid[index].name}: its worker process ended abruptly; the sweep stopped"
        ) from None
    finally:
        if not finished:
            for process in set(multiprocessing.active_children()) - before:
                process.terminate()
        for pool in pools:
            pool.shutdown(cancel_futures=True)
    return entries


def run_sweep(
    data_csv,
    out_dir,
    grid: tuple[ModelConfig, ...] = DEFAULT_GRID,
    cfg: TrainConfig = TrainConfig(),
) -> SweepReport:
    """Train every grid model on the CSV dataset; never abort on one failure.

    A model whose training diverges is recorded with the ``diverged``
    sentinel and a message; the remaining models still run. The grid's
    names (``check_grid_names``) and the record's length and spread for
    each entry (``_halves``) are checked before any training. Each entry
    writes its files in ``out_dir`` as it finishes (see the module
    docstring), so a sweep that is rejected or stops before any entry
    finishes creates no directory. With two or more usable CPUs the
    models train in worker processes, and a worker that dies raises
    WorkerError. The report keeps the fingerprint of the bytes it parsed.
    """
    check_grid_names(grid)
    raw = Path(data_csv).read_bytes()
    disp, force = oracle.read_csv(data_csv, raw)
    for config in grid:
        _halves(config, force)

    report = SweepReport(data_fingerprint=hashlib.sha256(raw).hexdigest())
    fit = functools.partial(_fit_entry, disp, force, cfg=cfg, out_dir=Path(out_dir))
    cores = lstm._cores()
    if cores < 2:
        report.entries = [fit(config) for config in grid]
    else:
        report.entries = _fit_in_workers(fit, grid, len(force), min(cores, len(grid)))
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

    The first three fields are ``oracle.sample_rows``: the data CSV's row
    for a file ``oracle.write_csv`` wrote. For another file ``t`` is
    ``t0 + i * dt``, and the displacement and force keep their values
    but are printed by ``repr``, not copied as text.
    ``preds`` is the force predicted for every window (``TrainedModel.predict``);
    the first ``lookback - 1`` rows end no window and leave force_pred
    empty. The split column tags each sample by ``split_point``.
    """
    cut = split_point(len(disp))
    pred_fields = [""] * (model.config.lookback - 1) + list(map(repr, np.asarray(preds).tolist()))
    rows = zip(oracle.sample_rows(disp, force), pred_fields, strict=True)
    # csv.writer's bytes: its "\r\n" line ends, and no field needs quoting
    with open(out_csv, "w", newline="") as handle:
        handle.write("t,displacement,force_true,force_pred,split\r\n")
        handle.writelines(
            f"{t},{x},{f},{pred},{'train' if i < cut else 'test'}\r\n"
            for i, ((t, x, f), pred) in enumerate(rows)
        )
