"""Grid study: fidelity, independence, reporting, prediction emission, workers."""

import csv
import hashlib
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
import yaml

from bracelearn import cli, dataset, lstm, oracle, sweep, training
from bracelearn.errors import DegenerateDataError, ValidationError
from bracelearn.model import ModelConfig, TrainedModel, load_model
from bracelearn.sweep import (
    DEFAULT_GRID, derive_seed, emit_predictions, fit_model, run_sweep,
)
from bracelearn.training import TrainConfig
from conftest import IDENTITY_STATS, UNWRITABLE_NAMES, package_environ

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
        model, report, preds = fit_model(
            disp, force, ModelConfig("m", 6, 1, 10), TrainConfig(max_epochs=2, seed=34)
        )
        (tx, ty), (sx, sy) = dataset.split_half(disp, force)
        stats = dataset.fit_norm(tx, ty)
        assert model.stats == stats
        train_set = dataset.window(tx, ty, stats, 10)
        test_set = dataset.window(sx, sy, stats, 10)
        assert report.train_nrmse == training.evaluate_nrmse(model.net, train_set, stats)
        assert report.test_nrmse == training.evaluate_nrmse(model.net, test_set, stats)
        assert len(preds) == len(disp) - 10 + 1
        assert "predictions" not in report.to_dict()


class TestRunSweep:
    def test_single_model_grid(self, tiny_csv, tmp_path):
        grid = (ModelConfig("Model 3d", 40, 5, 10),)
        report = run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
        assert len(report.entries) == 1
        assert report.best_model == "Model 3d"
        assert report.data_fingerprint == hashlib.sha256(tiny_csv.read_bytes()).hexdigest()
        entry = report.entries[0].to_dict()
        saved = load_model(tmp_path / "study" / "model_model-3d.json")
        assert entry["parameter_count"] == saved.net.flat.size

    @pytest.mark.parametrize("cores", [1, 2], ids=["inline", "workers"])
    def test_entries_carry_no_network(self, tiny_csv, tmp_path, monkeypatch, cores):
        # a pickled Model 3c network is about 6 MB; its entry is a report row
        monkeypatch.setattr(lstm, "_cores", lambda: cores)
        grid = (ModelConfig("3c-sized", 40, 20, 10), ModelConfig("small", 3, 1, 6))
        cfg = TrainConfig(max_epochs=1, seed=0)
        report = run_sweep(tiny_csv, tmp_path / "study", grid, cfg)
        assert max(len(pickle.dumps(entry)) for entry in report.entries) < 64 * 1024
        assert [entry.parameter_count for entry in report.entries] == [
            load_model(tmp_path / "study" / f"model_{name}.json").net.flat.size
            for name in ("3c-sized", "small")
        ]

    @pytest.mark.parametrize("name", UNWRITABLE_NAMES.values(), ids=UNWRITABLE_NAMES.keys())
    def test_unwritable_name_rejected_before_training(self, tiny_csv, tmp_path, name):
        grid = (ModelConfig("fine", 2, 1, 2), ModelConfig(name, 2, 1, 2))
        with pytest.raises(ValidationError) as excinfo:
            run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
        assert excinfo.value.field == "grid[1].name"
        assert not (tmp_path / "study").exists()

    def test_colliding_names_rejected_before_training(self, tiny_csv, tmp_path):
        # both would write model_m-a.json
        grid = (ModelConfig("m a", 2, 1, 2), ModelConfig("M-A", 2, 1, 2))
        with pytest.raises(ValidationError, match="'m a'.*'M-A'"):
            run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
        assert not (tmp_path / "study").exists()

    def test_best_model_is_minimum(self, tiny_csv, tmp_path):
        grid = (
            ModelConfig("small", 3, 1, 6),
            ModelConfig("smaller", 2, 1, 6),
        )
        report = run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
        finished = [e for e in report.entries if not e.failed]
        best = min(finished, key=lambda e: e.report.test_nrmse)
        assert report.best_model == best.config.name

    def test_isolation(self, tiny_csv, tmp_path):
        # dropping one model must not change another model's training
        grid_two = (ModelConfig("a", 3, 1, 6), ModelConfig("b", 4, 1, 6))
        grid_one = (ModelConfig("b", 4, 1, 6),)
        full = run_sweep(tiny_csv, tmp_path / "full", grid_two, FAST_CFG)
        solo = run_sweep(tiny_csv, tmp_path / "solo", grid_one, FAST_CFG)
        assert full.entries[1].report.losses == solo.entries[0].report.losses

    def test_lookback_exceeding_half_rejected(self, tiny_csv, tmp_path):
        grid = (ModelConfig("too-long", 2, 1, 10_000),)
        with pytest.raises(ValidationError, match="lookback"):
            run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)

    def test_one_window_held_out_rejected_before_training(self, tiny_csv, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(sweep, "train", no_training)
        # 361 samples: lookback 180 fills the held-out half with one window
        grid = (ModelConfig("edge", 2, 1, 180),)
        with pytest.raises(DegenerateDataError, match=r"held-out half has no spread \(1 samples"):
            run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)

    def test_deterministic_reports(self, tiny_csv, tmp_path):
        grid = (ModelConfig("a", 3, 1, 6), ModelConfig("b", 4, 2, 8))
        first = run_sweep(tiny_csv, tmp_path / "first", grid, FAST_CFG)
        second = run_sweep(tiny_csv, tmp_path / "second", grid, FAST_CFG)
        assert first.to_json() == second.to_json()

    def test_diverged_entry_recorded_not_fatal(self, tiny_csv, tmp_path, monkeypatch):
        import dataclasses

        monkeypatch.setattr(lstm, "_cores", lambda: 1)  # inline: a worker would not see the patch
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
        report = run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
        assert calls == ["explodes", "fine"]
        failed = report.entries[0]
        assert failed.failed
        assert failed.to_dict()["test_nrmse"] == "diverged"
        assert failed.parameter_count is None and "parameter_count" not in failed.to_dict()
        assert "epoch 1" in failed.error
        # the partial report keeps the loss curve of the epochs that finished
        assert failed.report.epochs_run == 1
        assert len(failed.report.losses) == 1 and math.isfinite(failed.report.losses[0])
        assert report.best_model == "fine"

    def test_diverged_entries_in_workers_keep_their_partial_losses(
        self, tiny_csv, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(lstm, "_cores", lambda: 2)
        # one batch per epoch: epoch 0 finishes, then the huge step overflows epoch 1's loss
        cfg = TrainConfig(max_epochs=2, learning_rate=1e200, clip_norm=0.0, batch_size=10**6)
        grid = (ModelConfig("a", 3, 1, 6), ModelConfig("b", 2, 1, 4))
        report = run_sweep(tiny_csv, tmp_path / "study", grid, cfg)
        assert [entry.config.name for entry in report.entries] == ["a", "b"]
        for entry in report.entries:
            assert entry.failed and "epoch 1" in entry.error
            assert entry.parameter_count is None and "parameter_count" not in entry.to_dict()
            assert entry.report.epochs_run == 1 and math.isfinite(entry.report.losses[0])
        assert report.best_model is None


#: Runs the CLI on argv[2:] in a fresh interpreter that sees argv[1] usable CPUs.
SWEEP_SCRIPT = """
import sys
from bracelearn import cli, lstm
lstm._cores = lambda: int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CAN_LIST_CHILDREN = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()


def start_cli(cores, argv, blas_threads=None):
    """The CLI in a subprocess of its own session; BLAS at its default unless ``blas_threads``."""
    env = {name: value for name, value in package_environ().items()
           if name not in THREAD_VARIABLES}
    if blas_threads is not None:
        env.update(dict.fromkeys(THREAD_VARIABLES, str(blas_threads)))
    return subprocess.Popen(
        [sys.executable, "-c", SWEEP_SCRIPT, str(cores), *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )


def sweep_config(path, grid, **training):
    path.write_text(yaml.safe_dump({"training": {"seed": 0, **training}, "grid": [
        {"name": name, "neurons": neurons, "hidden_layers": layers, "lookback": lookback}
        for name, neurons, layers, lookback in grid
    ]}))
    return str(path)


def alive(pid) -> bool:
    """Whether process ``pid`` runs: it exists and is not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def started_workers(pid, count, timeout=60.0) -> list[int]:
    """``pid``'s worker processes, once ``count`` of them run with SIGINT ignored."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = []
        for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split():
            try:
                cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
                status = Path(f"/proc/{child}/status").read_text()
            except OSError:
                continue
            ignored = int(status.split("SigIgn:")[1].split()[0], 16)
            if b"spawn_main" in cmdline and ignored & 1 << (signal.SIGINT - 1):
                workers.append(int(child))
        if len(workers) == count:
            return workers
        time.sleep(0.05)
    raise AssertionError(f"{count} workers did not start within {timeout} s")


@pytest.fixture()
def endless_sweep(tiny_csv, tmp_path):
    """A two-worker CLI sweep of two entries that train until stopped, and its workers."""
    config = sweep_config(tmp_path / "endless.yaml", [("a", 3, 1, 6), ("b", 2, 1, 4)],
                          max_epochs=10**9, early_stop_patience=10**9)
    process = start_cli(2, ["sweep", "--config", config, "--data", str(tiny_csv),
                            "--out-dir", str(tmp_path / "study")])
    try:
        yield process, started_workers(process.pid, 2)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()


class TestWorkers:
    """Grid entries train in spawned worker processes when two or more CPUs are usable."""

    GRID = [("a", 40, 2, 10), ("b", 20, 1, 8), ("c", 4, 1, 6)]

    def test_entries_go_out_longest_first(self):
        costs = {config.name: sweep._cost(config, 521) for config in DEFAULT_GRID}
        assert sorted(costs, key=costs.get, reverse=True) == [
            "Model 3c", "Model 3b", "Model 3e", "Model 3a", "Model 3d", "Model 2", "Model 1",
        ]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_worker_has_one_cpu_and_ignores_sigint(self):
        cpu = max(os.sched_getaffinity(0))
        with ProcessPoolExecutor(1, mp_context=get_context("spawn"),
                                 initializer=sweep._start_worker, initargs=(cpu,)) as pool:
            assert pool.submit(os.sched_getaffinity, 0).result(timeout=60) == {cpu}
            assert pool.submit(lstm._cores).result(timeout=60) == 1
            assert pool.submit(signal.getsignal, signal.SIGINT).result(timeout=60) == signal.SIG_IGN

    def test_sweep_bytes_match_the_inline_one_thread_run(self, tiny_csv, tmp_path):
        # Model "a" alone writes other bytes at 1 and 2 BLAS threads when trained inline
        config = sweep_config(tmp_path / "grid.yaml", self.GRID, max_epochs=2)
        runs = {"inline": (1, 1), "two-workers": (2, None), "three-workers": (3, None)}
        outputs = {}
        for name, (cores, blas_threads) in runs.items():
            out_dir = tmp_path / name
            process = start_cli(cores, ["sweep", "--config", config, "--data", str(tiny_csv),
                                        "--out-dir", str(out_dir)], blas_threads)
            _, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            outputs[name] = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert len(outputs["inline"]) == 2 + 3 * len(self.GRID)
        assert outputs["two-workers"] == outputs["inline"]
        assert outputs["three-workers"] == outputs["inline"]

    def test_removing_an_entry_changes_no_other_entry_files(self, tiny_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(lstm, "_cores", lambda: 2)
        environ = dict(os.environ)
        outputs = {}
        for name, grid in (("full", self.GRID), ("without-b", self.GRID[::2])):
            config = sweep_config(tmp_path / f"{name}.yaml", grid, max_epochs=2)
            out_dir = tmp_path / name
            assert cli.main(["sweep", "--config", config, "--data", str(tiny_csv),
                             "--out-dir", str(out_dir)]) == 0
            assert dict(os.environ) == environ  # the workers' BLAS setting is theirs alone
            outputs[name] = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        kept = {file: data for file, data in outputs["full"].items() if "_b." not in file}
        for file in ("report.json", "summary.csv"):
            del kept[file], outputs["without-b"][file]
        assert len(kept) == 6
        assert outputs["without-b"] == kept

    def test_worker_error_exits_like_the_inline_path(self, tmp_path, monkeypatch, capsys):
        # constant displacement over the training half: fit_norm rejects it inside the fit
        n = 200
        disp = np.where(np.arange(n) < n // 2, 0.0, np.sin(np.arange(n) / 5.0))
        data = tmp_path / "flat.csv"
        oracle.write_csv(data, oracle.Series(0.01, disp, "displacement"),
                         oracle.Series(0.01, np.cos(np.arange(n) / 7.0), "force"))
        config = sweep_config(tmp_path / "grid.yaml", [("a", 2, 1, 4), ("b", 3, 1, 4)])
        results = []
        for cores in (1, 2):
            monkeypatch.setattr(lstm, "_cores", lambda: cores)
            code = cli.main(["sweep", "--config", config, "--data", str(data),
                             "--out-dir", str(tmp_path / f"study-{cores}")])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        message = f"error: {data}: displacement series is constant; cannot normalize\n"
        assert results[0] == (2, message)

    @pytest.mark.skipif(not CAN_LIST_CHILDREN, reason="needs /proc/<pid>/task/<tid>/children")
    def test_killed_worker_ends_the_sweep_with_one_error_line(self, endless_sweep, tmp_path):
        process, workers = endless_sweep
        os.kill(workers[0], signal.SIGKILL)
        killed = time.monotonic()
        _, err = process.communicate(timeout=60)
        assert time.monotonic() - killed < 20
        assert process.returncode == 4
        (line,) = err.splitlines()
        assert re.fullmatch(r"error: [ab]: its worker process ended abruptly; the sweep stopped",
                            line)
        assert not [pid for pid in workers if alive(pid)]
        assert not (tmp_path / "study").exists()

    @pytest.mark.skipif(not CAN_LIST_CHILDREN, reason="needs /proc/<pid>/task/<tid>/children")
    def test_interrupt_stops_every_worker_with_no_worker_traceback(self, endless_sweep):
        process, workers = endless_sweep
        os.killpg(process.pid, signal.SIGINT)  # as a terminal's Ctrl-C reaches the whole group
        interrupted = time.monotonic()
        _, err = process.communicate(timeout=60)
        assert time.monotonic() - interrupted < 20
        assert process.returncode != 0
        assert err.count("Traceback") == 1
        assert err.rstrip().endswith("KeyboardInterrupt")
        assert not [pid for pid in workers if alive(pid)]


class TestSummaryCsv:
    def test_columns_and_rows(self, tiny_csv, tmp_path):
        grid = (ModelConfig("a", 3, 1, 6),)
        report = run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
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
        report = run_sweep(tiny_csv, tmp_path / "study", grid, FAST_CFG)
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

    @pytest.mark.parametrize("lookback", [1, 30])
    def test_bytes_are_csv_writers(self, tmp_path, lookback):
        values = np.array([-0.0, 1e-300, 5e300, -2.5, 0.1] * 8)
        disp = oracle.Series(dt=0.01, values=values, unit="displacement", t0=3.7)
        force = oracle.Series(dt=0.01, values=-values[::-1], unit="force", t0=3.7)
        preds = np.resize([-0.0, 1e-300, 5e300, -7.25, -1e-5], len(values) - lookback + 1)
        out, reference = tmp_path / "pred.csv", tmp_path / "reference.csv"
        emit_predictions(FakeModel(force.values, lookback), disp, force, preds, out)
        cut = dataset.split_point(len(values))
        fields = [""] * (lookback - 1) + [repr(p) for p in preds.tolist()]
        with open(reference, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "displacement", "force_true", "force_pred", "split"])
            for i, (x, f, p) in enumerate(zip(values.tolist(), force.values.tolist(), fields)):
                t = 3.7 + i * 0.01
                writer.writerow([repr(t), repr(x), repr(f), p, "train" if i < cut else "test"])
        assert out.read_bytes() == reference.read_bytes()

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
