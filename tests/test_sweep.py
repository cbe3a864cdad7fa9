"""Grid study: fidelity, independence, reporting, and prediction emission."""

import csv

import numpy as np
import pytest

from bracelearn import dataset, lstm, sweep, training
from bracelearn.errors import DegenerateDataError, ValidationError
from bracelearn.model import ModelConfig, TrainedModel
from bracelearn.sweep import (
    DEFAULT_GRID, derive_seed, emit_predictions, fit_model, run_sweep,
)
from bracelearn.training import TrainConfig
from conftest import IDENTITY_STATS

FAST_CFG = TrainConfig(max_epochs=2, batch_size=64, seed=0)


class TestGrid:
    def test_grid_fidelity(self):
        expected = [
            ("Model 1", 5, 5, 30),
            ("Model 2", 20, 5, 30),
            ("Model 3a", 40, 5, 30),
            ("Model 3b", 40, 10, 30),
            ("Model 3c", 40, 20, 30),
            ("Model 3d", 40, 5, 10),
            ("Model 3e", 40, 5, 40),
        ]
        assert [
            (m.name, m.neurons, m.hidden_layers, m.lookback) for m in DEFAULT_GRID
        ] == expected

    def test_derived_seeds_stable_and_distinct(self):
        seeds = {name: derive_seed(0, name) for name in ("Model 1", "Model 2", "Model 3a")}
        assert seeds == {name: derive_seed(0, name) for name in seeds}
        assert len(set(seeds.values())) == 3
        assert derive_seed(1, "Model 1") != derive_seed(0, "Model 1")


class TestFitModel:
    def test_report_nrmse_in_physical_units(self, default_data):
        # one full-record pass gives the same numbers as windowing each half
        disp, force = default_data
        model, report = fit_model(
            disp, force, ModelConfig("m", 6, 1, 10), TrainConfig(max_epochs=2, seed=34)
        )
        (tx, ty), (sx, sy) = dataset.split_half(disp, force)
        stats = dataset.fit_norm(tx, ty)
        assert model.stats == stats
        train_set = dataset.window(tx, ty, stats, 10)
        test_set = dataset.window(sx, sy, stats, 10)
        assert report.train_nrmse == training.evaluate_nrmse(model.net, train_set, stats)
        assert report.test_nrmse == training.evaluate_nrmse(model.net, test_set, stats)
        assert len(report.predictions) == len(disp) - 10 + 1
        assert "predictions" not in report.to_dict()


class TestRunSweep:
    def test_single_model_grid(self, tiny_csv):
        grid = (ModelConfig("Model 3d", 40, 5, 10),)
        report = run_sweep(tiny_csv, grid, FAST_CFG)
        assert len(report.entries) == 1
        assert report.best_model == "Model 3d"
        assert report.data_fingerprint == sweep.fingerprint(tiny_csv.read_bytes())
        entry = report.entries[0].to_dict()
        assert entry["parameter_count"] == report.entries[0].model.net.flat.size

    def test_best_model_is_minimum(self, tiny_csv):
        grid = (
            ModelConfig("small", 3, 1, 6),
            ModelConfig("smaller", 2, 1, 6),
        )
        report = run_sweep(tiny_csv, grid, FAST_CFG)
        finished = [e for e in report.entries if not e.failed]
        best = min(finished, key=lambda e: e.report.test_nrmse)
        assert report.best_model == best.config.name

    def test_isolation(self, tiny_csv):
        # dropping one model must not change another model's training
        grid_two = (ModelConfig("a", 3, 1, 6), ModelConfig("b", 4, 1, 6))
        grid_one = (ModelConfig("b", 4, 1, 6),)
        full = run_sweep(tiny_csv, grid_two, FAST_CFG)
        solo = run_sweep(tiny_csv, grid_one, FAST_CFG)
        assert full.entries[1].report.losses == solo.entries[0].report.losses

    def test_lookback_exceeding_half_rejected(self, tiny_csv):
        grid = (ModelConfig("too-long", 2, 1, 10_000),)
        with pytest.raises(ValidationError, match="lookback"):
            run_sweep(tiny_csv, grid, FAST_CFG)

    def test_one_window_held_out_rejected_before_training(self, tiny_csv, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(sweep, "train", no_training)
        # 361 samples: lookback 180 fills the held-out half with one window
        grid = (ModelConfig("edge", 2, 1, 180),)
        with pytest.raises(DegenerateDataError, match=r"held-out half has no spread \(1 samples"):
            run_sweep(tiny_csv, grid, FAST_CFG)

    def test_deterministic_reports(self, tiny_csv):
        grid = (ModelConfig("a", 3, 1, 6), ModelConfig("b", 4, 2, 8))
        first = run_sweep(tiny_csv, grid, FAST_CFG)
        second = run_sweep(tiny_csv, grid, FAST_CFG)
        assert first.to_json() == second.to_json()

    def test_diverged_entry_recorded_not_fatal(self, tiny_csv, monkeypatch):
        import dataclasses
        import math

        calls = []
        real_fit = sweep.fit_model

        def fake_fit(disp, force, config, cfg):
            calls.append(config.name)
            if config.name == "explodes":
                # one batch per epoch: epoch 0 finishes, then the huge step
                # overflows the loss of epoch 1
                cfg = dataclasses.replace(
                    cfg, learning_rate=1e200, clip_norm=0.0, batch_size=10**6
                )
            return real_fit(disp, force, config, cfg)

        monkeypatch.setattr(sweep, "fit_model", fake_fit)
        grid = (ModelConfig("explodes", 3, 1, 6), ModelConfig("fine", 3, 1, 6))
        report = run_sweep(tiny_csv, grid, FAST_CFG)
        assert calls == ["explodes", "fine"]
        failed = report.entries[0]
        assert failed.failed
        assert failed.to_dict()["test_nrmse"] == "diverged"
        assert "epoch 1" in failed.error
        # the partial report keeps the loss curve of the epochs that finished
        assert failed.report.epochs_run == 1
        assert len(failed.report.losses) == 1 and math.isfinite(failed.report.losses[0])
        assert report.best_model == "fine"


class TestSummaryCsv:
    def test_columns_and_rows(self, tiny_csv, tmp_path):
        grid = (ModelConfig("a", 3, 1, 6),)
        report = run_sweep(tiny_csv, grid, FAST_CFG)
        out = tmp_path / "summary.csv"
        sweep.write_summary_csv(report, out)
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(sweep.SUMMARY_COLUMNS)
        assert len(rows) == 2
        assert rows[1][0] == "a"
        assert rows[1][7] == ""  # timing excluded by default

    def test_timing_opt_in(self, tiny_csv, tmp_path):
        grid = (ModelConfig("a", 3, 1, 6),)
        report = run_sweep(tiny_csv, grid, FAST_CFG)
        out = tmp_path / "summary.csv"
        sweep.write_summary_csv(report, out, include_timing=True)
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert float(rows[1][7]) > 0.0


class FakeModel:
    """Pass-through double: 'predicts' the true force exactly."""

    def __init__(self, force_values, lookback):
        self.config = ModelConfig("fake", 1, 1, lookback)
        self.stats = IDENTITY_STATS
        self._force = force_values

    def predict(self, windows):
        assert windows.shape[1] == self.config.lookback
        return self._force[self.config.lookback - 1 :]


def emit(model, record, out):
    """Predict every window of ``record`` and write the prediction CSV."""
    disp, force = record
    data = sweep.window(disp, force, model.stats, model.config.lookback)
    emit_predictions(model, disp, force, model.predict(data.inputs), out)


class TestEmitPredictions:
    def test_pass_through_double_matches_truth(self, tiny_data, tmp_path):
        _, force = tiny_data
        fake = FakeModel(force.values, lookback=7)
        out = tmp_path / "pred.csv"
        emit(fake, tiny_data, out)
        with out.open() as handle:
            rows = list(csv.reader(handle))
        for row in rows[1 + 6 :]:
            assert row[3] == row[2]

    def test_row_count_and_empty_prefix(self, tiny_data, tmp_path):
        _, force = tiny_data
        lookback = 9
        fake = FakeModel(force.values, lookback)
        out = tmp_path / "pred.csv"
        emit(fake, tiny_data, out)
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "displacement", "force_true", "force_pred", "split"]
        assert len(rows) == len(force) + 1
        empties = [row for row in rows[1:] if row[3] == ""]
        assert len(empties) == lookback - 1
        assert all(row[3] == "" for row in rows[1 : lookback])

    def test_split_column_changes_once_at_midpoint(self, tiny_data, tmp_path):
        _, force = tiny_data
        fake = FakeModel(force.values, lookback=5)
        out = tmp_path / "pred.csv"
        emit(fake, tiny_data, out)
        with out.open() as handle:
            rows = list(csv.reader(handle))[1:]
        labels = [row[4] for row in rows]
        cut = (len(force) + 1) // 2
        changes = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
        assert changes == [cut]
        assert labels[0] == "train" and labels[-1] == "test"

    def test_trained_model_emission(self, tiny_data, tmp_path):
        disp, force = tiny_data
        from bracelearn.dataset import fit_norm, split_half

        (tx, ty), _ = split_half(disp, force)
        net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(50))
        trained = TrainedModel(
            net=net, config=ModelConfig("m", 3, 1, 6), stats=fit_norm(tx, ty)
        )
        out = tmp_path / "pred.csv"
        emit(trained, tiny_data, out)
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == len(force) + 1
        floats = [float(row[3]) for row in rows[6 + 1 :]]
        assert all(np.isfinite(floats))
