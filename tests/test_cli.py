"""End-to-end CLI behavior: exit codes, artifacts, reproducibility."""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelearn import lstm, oracle
from bracelearn import sweep as sweep_mod
from bracelearn.cli import load_config, main
from bracelearn.dataset import NormStats
from bracelearn.errors import ConfigError
from bracelearn.model import ModelConfig, TrainedModel, save_model
from bracelearn.sweep import DEFAULT_GRID

TINY_PROTOCOL = {
    "delta_y": 0.1,
    "amplitude_factors": [1.0, 2.0, 3.0],
    "cycles_per_amplitude": 2,
    "points_per_cycle": 60,
}


def write_config(path, **sections):
    path.write_text(yaml.safe_dump(sections))
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    return write_config(
        tmp_path / "config.yaml",
        protocol=TINY_PROTOCOL,
        oracle={"substeps": 2},
        training={"max_epochs": 2, "seed": 0},
        grid=[
            {"name": "small", "neurons": 3, "hidden_layers": 1, "lookback": 6},
            {"name": "wide", "neurons": 4, "hidden_layers": 1, "lookback": 8},
        ],
    )


@pytest.fixture()
def tiny_cli_csv(tiny_config, tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_default_config_row_count(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5201 + 1
        assert "5201 samples" in capsys.readouterr().out

    def test_delta_y_override_scales_peak(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(
            ["generate", "--config", tiny_config, "--out", str(out), "--delta-y", "0.2"]
        ) == 0
        disp, _ = oracle.read_csv(out)
        assert disp.values.max() == pytest.approx(3.0 * 0.2)

    def test_delta_y_override_default_protocol(self, tmp_path):
        # default amplitude factors top out at 10x the yield displacement
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out), "--delta-y", "0.2"]) == 0
        disp, _ = oracle.read_csv(out)
        assert disp.values.max() == pytest.approx(2.0)

    def test_missing_output_directory(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "data.csv"
        assert main(["generate", "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "nope" in err

    def test_specimen_preset(self, tiny_config, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["generate", "--config", tiny_config, "--out", str(out_a), "--specimen", "a"]) == 0
        assert main(["generate", "--config", tiny_config, "--out", str(out_b), "--specimen", "b"]) == 0
        _, force_a = oracle.read_csv(out_a)
        _, force_b = oracle.read_csv(out_b)
        assert force_a.values.max() != force_b.values.max()

    def test_divergent_oracle_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.yaml",
            protocol={
                "delta_y": 1e4,
                "amplitude_factors": [4.0],
                "cycles_per_amplitude": 1,
                "points_per_cycle": 50,
            },
            oracle={"beta": 0.0, "gamma": -5.0, "n": 2.0, "substeps": 1},
        )
        assert main(["generate", "--config", config, "--out", str(tmp_path / "d.csv")]) == 3
        assert "sample" in capsys.readouterr().err


    def test_overflowing_peak_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "d.csv"), "--delta-y", "1e308"])
        assert code == 2
        assert "delta_y" in capsys.readouterr().err

    def test_overflowing_rate_exits_3_without_warnings(self, tmp_path, capsys):
        # the peak 1e308 is finite, but the finite-difference rate is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--out", str(tmp_path / "d.csv"), "--delta-y", "1e307"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: hysteresis state became non-finite") and "Warning" not in err

    def test_overflowing_force_exits_2_without_file_or_warnings(self, tmp_path, capsys):
        # the state stays finite, but k times the displacement does not
        config = write_config(
            tmp_path / "c.yaml", oracle={"k": 1.0e308, "alpha": 1.0}, protocol={"delta_y": 10.0}
        )
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--config", config, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "force values must be finite" in err and "Warning" not in err
        assert not out.exists()


class TestStrictConfig:
    def test_misspelled_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.yaml", oracle={"alhpa": 0.1})
        assert main(["generate", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        assert "alhpa" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        config = write_config(tmp_path / "c.yaml", orcale={"alpha": 0.1})
        with pytest.raises(ConfigError, match="orcale"):
            load_config(config)

    def test_unknown_grid_key_rejected(self, tmp_path):
        config = write_config(
            tmp_path / "c.yaml",
            grid=[{"name": "m", "neurons": 2, "hidden_layers": 1, "lookback": 2, "nuerons": 3}],
        )
        with pytest.raises(ConfigError, match="nuerons"):
            load_config(config)

    def test_defaults_when_no_config(self):
        config = load_config(None)
        assert len(config.grid) == 7
        assert config.protocol.points_per_cycle == 200

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c["grid"][0].pop("lookback"), "grid[0].lookback"),
            (lambda c: c["grid"][0].update(neurons="abc"), "grid[0].neurons"),
            (lambda c: c["grid"][0].update(neurons=2.5), "grid[0].neurons"),
            (lambda c: c["grid"][1].update(name=3), "grid[1].name"),
            (lambda c: c["training"].update(batch_size=1.5), "training.batch_size"),
            (lambda c: c["training"].update(max_epochs=1.5), "training.max_epochs"),
            (lambda c: c["oracle"].update(substeps=2.5), "oracle.substeps"),
            (lambda c: c["protocol"].update(cycles_per_amplitude=1.5),
             "protocol.cycles_per_amplitude"),
            (lambda c: c["training"].update(seed=1.5), "training.seed"),
            (lambda c: c["training"].update(clip_norm=math.nan), "training.clip_norm"),
            (lambda c: c["protocol"].update(points_per_cycle=20.5),
             "protocol.points_per_cycle"),
            (lambda c: c["oracle"].update(delta_nu=math.nan), "oracle.delta_nu"),
            # safe_dump writes this string as a plain `1e-3`, which YAML 1.1
            # reads back as a string
            (lambda c: c["training"].update(learning_rate="1e-3"), "training.learning_rate"),
            # null means the default only for a whole section or grid
            (lambda c: c["training"].update(seed=None), "training.seed: expected an integer"),
            (lambda c: c["oracle"].update(k=None), "oracle.k: expected a finite number"),
            (lambda c: c.update(grid={}), "grid: expected a non-empty list"),
            (lambda c: c.update(grid=[]), "grid: expected a non-empty list"),
            # in range of the type, out of range of the field
            (lambda c: c["training"].update(batch_size=0), "training.batch_size"),
            (lambda c: c["grid"][0].update(neurons=0), "grid[0].neurons"),
            (lambda c: c["oracle"].update(asym=0.5), "oracle.asym"),
            (lambda c: c["protocol"].update(points_per_cycle=7), "protocol.points_per_cycle"),
        ],
        ids=["grid-missing-lookback", "neurons-string", "neurons-fraction", "name-int",
             "batch-size-fraction", "max-epochs-fraction", "substeps-fraction",
             "cycles-fraction", "seed-fraction", "clip-norm-nan", "points-fraction",
             "delta-nu-nan", "learning-rate-string", "seed-null", "k-null", "grid-mapping",
             "grid-empty", "batch-size-zero", "neurons-zero", "asym-below-1",
             "points-below-8"],
    )
    def test_malformed_field_exits_2(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, mutate, field
    ):
        sections = yaml.safe_load(Path(tiny_config).read_text())
        mutate(sections)
        config = write_config(tmp_path / "bad.yaml", **sections)
        capsys.readouterr()
        out = tmp_path / "m.json"
        code = main(
            ["train", "--config", config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert field in err, err
        assert not out.exists() and not (tmp_path / "m.report.json").exists()
        with pytest.raises(ConfigError) as excinfo:
            load_config(config)
        assert excinfo.value.field == field.split(":")[0]

    def test_colliding_grid_slugs_rejected(self, tmp_path):
        # both would be written as model_m-a.json, predictions_m-a.csv, ...
        config = write_config(
            tmp_path / "c.yaml",
            grid=[
                {"name": "m a", "neurons": 2, "hidden_layers": 1, "lookback": 2},
                {"name": "M-A", "neurons": 3, "hidden_layers": 1, "lookback": 2},
            ],
        )
        with pytest.raises(ConfigError, match="'m a'.*'M-A'"):
            load_config(config)
        # distinct files, but --model ma would match either
        config = write_config(
            tmp_path / "c.yaml",
            grid=[
                {"name": "m-a", "neurons": 2, "hidden_layers": 1, "lookback": 2},
                {"name": "ma", "neurons": 3, "hidden_layers": 1, "lookback": 2},
            ],
        )
        with pytest.raises(ConfigError, match="'m-a'.*'ma'"):
            load_config(config)

    @pytest.mark.parametrize("name", ["x/y", "x\\y", "../up"])
    def test_grid_name_must_be_plain_file_name(self, tiny_cli_csv, tmp_path, capsys, name):
        config = write_config(
            tmp_path / "c.yaml",
            training={"max_epochs": 1},
            grid=[
                {"name": "fine", "neurons": 2, "hidden_layers": 1, "lookback": 2},
                {"name": name, "neurons": 2, "hidden_layers": 1, "lookback": 2},
            ],
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(config)
        assert excinfo.value.field == "grid[1].name"
        out_dir = tmp_path / "study"
        code = main(["sweep", "--config", config, "--data", str(tiny_cli_csv),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "grid[1].name" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "deep.yaml"
        config.write_text("grid: " + "[" * 100_000 + "\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert str(config) in capsys.readouterr().err

    def test_null_section_means_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.yaml", training=None))
        assert config.training.batch_size == 64


    def test_null_grid_means_default_grid(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.yaml", grid=None, oracle=None))
        assert config.grid == DEFAULT_GRID
        assert config.oracle == oracle.BoucWenParams()


class TestTrain:
    def test_train_writes_model_and_report(self, tiny_config, tiny_cli_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        report = tmp_path / "report.json"
        code = main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "small"
        assert doc["test_nrmse"] is not None
        assert json.loads(report.read_text()) == doc

    def test_report_written_beside_model_by_default(self, tiny_config, tiny_cli_csv, tmp_path):
        out = tmp_path / "model.json"
        assert main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(out)]
        ) == 0
        assert (tmp_path / "model.report.json").is_file()

    def test_unknown_model_lists_names(self, tiny_config, tiny_cli_csv, tmp_path, capsys):
        code = main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "huge", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "small" in err and "wide" in err

    def test_seed_reproducibility_byte_for_byte(self, tiny_config, tiny_cli_csv, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"model_{tag}.json"
            assert main(
                ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
                 "--model", "small", "--out", str(out), "--seed", "7"]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_insufficient_lookback_data(self, tmp_path, capsys):
        # 30-sample toy series cannot be windowed at lookback 40
        rows = ["t,displacement,force"] + [f"{i * 0.01},{i * 0.1},{i * 0.2}" for i in range(30)]
        data = tmp_path / "toy.csv"
        data.write_text("\n".join(rows) + "\n")
        config = write_config(
            tmp_path / "c.yaml",
            grid=[{"name": "m", "neurons": 2, "hidden_layers": 1, "lookback": 40}],
            training={"max_epochs": 1},
        )
        code = main(
            ["train", "--config", config, "--data", str(data),
             "--model", "m", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "lookback" in capsys.readouterr().err

    @pytest.mark.parametrize("flat", ["training", "held-out"])
    def test_constant_force_half_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, flat
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(sweep_mod, "train", no_training)
        # 40 samples, split at 20; lookback 4 scores the force at samples
        # 3..19 (training half) and 23..39 (held-out half)
        if flat == "training":
            force = [float(i) if i < 3 or i >= 20 else 5.0 for i in range(40)]
        else:
            force = [math.cos(i / 3) if i < 20 else 0.0 for i in range(40)]
        rows = [f"{i * 0.01!r},{math.sin(i / 3)!r},{f!r}" for i, f in enumerate(force)]
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(["t,displacement,force", *rows]) + "\n")
        config = write_config(
            tmp_path / "c.yaml",
            grid=[{"name": "m", "neurons": 2, "hidden_layers": 1, "lookback": 4}],
            training={"max_epochs": 1},
        )
        message = f"m: the force at the window ends of the {flat} half has no spread (17 samples)"
        out = tmp_path / "m.json"
        code = main(["train", "--config", config, "--data", str(data),
                     "--model", "m", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        out_dir = tmp_path / "study"
        code = main(["sweep", "--config", config, "--data", str(data),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_out_dir_that_is_a_file_rejected_before_training(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("train must not run")

        monkeypatch.setattr(sweep_mod, "train", no_training)
        out_dir = tmp_path / "study"
        out_dir.write_text("keep\n")
        code = main(["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err
        assert out_dir.read_text() == "keep\n"

    def test_divergent_training_exits_3(self, tiny_config, tiny_cli_csv, tmp_path, capsys):
        config = write_config(
            tmp_path / "diverge.yaml",
            training={"max_epochs": 3, "learning_rate": 1e200, "clip_norm": 0.0},
            grid=[{"name": "m", "neurons": 3, "hidden_layers": 1, "lookback": 6}],
        )
        code = main(
            ["train", "--config", config, "--data", str(tiny_cli_csv),
             "--model", "m", "--out", str(tmp_path / "m.json")]
        )
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_exploded_weights_exit_3(self, tiny_cli_csv, tmp_path, capsys):
        # one batch and one epoch: the loss stays finite, the weights do not
        config = write_config(
            tmp_path / "explode.yaml",
            training={"max_epochs": 1, "batch_size": 10**6,
                      "learning_rate": 1.0e200, "clip_norm": 0.0},
            grid=[{"name": "m", "neurons": 3, "hidden_layers": 1, "lookback": 6}],
        )
        out = tmp_path / "m.json"
        code = main(
            ["train", "--config", config, "--data", str(tiny_cli_csv),
             "--model", "m", "--out", str(out)]
        )
        assert code == 3
        assert "NRMSE" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".report.json").exists()

    def test_loss_csv(self, tiny_config, tiny_cli_csv, tmp_path):
        loss_csv = tmp_path / "loss.csv"
        assert main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(tmp_path / "m.json"),
             "--loss-csv", str(loss_csv)]
        ) == 0
        rows = loss_csv.read_text().splitlines()
        assert rows[0] == "epoch,loss"
        assert len(rows) == 3  # 2 epochs


class TestSweepCommand:
    def test_artifacts_and_determinism(self, tiny_config, tiny_cli_csv, tmp_path, capsys):
        summaries = []
        reports = []
        for tag in ("one", "two"):
            out_dir = tmp_path / f"sweep_{tag}"
            assert main(
                ["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
                 "--out-dir", str(out_dir), "--seed", "3"]
            ) == 0
            for name in ("small", "wide"):
                assert (out_dir / f"model_{name}.json").is_file()
                assert (out_dir / f"predictions_{name}.csv").is_file()
                assert (out_dir / f"loss_{name}.csv").is_file()
            summaries.append((out_dir / "summary.csv").read_bytes())
            reports.append((out_dir / "report.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert reports[0] == reports[1]
        assert "best model:" in capsys.readouterr().out

    def test_prediction_csv_shape(self, tiny_config, tiny_cli_csv, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--out-dir", str(out_dir)]
        ) == 0
        with open(out_dir / "predictions_small.csv") as handle:
            rows = list(csv.reader(handle))
        disp, _ = oracle.read_csv(tiny_cli_csv)
        assert len(rows) == len(disp) + 1
        assert sum(1 for row in rows[1:] if row[3] == "") == 6 - 1

    def test_each_record_read_once_and_each_window_predicted_once(
        self, tiny_config, tiny_cli_csv, tmp_path, monkeypatch
    ):
        import bracelearn.model
        import bracelearn.training

        predicted = {}
        for module in (bracelearn.model, bracelearn.training):
            def counting(net, windows, *args, _original=module.predict, _name=module.__name__):
                predicted[_name] = predicted.get(_name, 0) + len(windows)
                return _original(net, windows, *args)

            monkeypatch.setattr(module, "predict", counting)
        reads = []
        real_read = oracle.read_csv
        monkeypatch.setattr(
            oracle, "read_csv", lambda path, *raw: reads.append(path) or real_read(path, *raw)
        )
        n = len(real_read(tiny_cli_csv)[0])
        assert main(
            ["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--out-dir", str(tmp_path / "sweep")]
        ) == 0
        # the grid's lookbacks are 6 and 8
        assert predicted == {"bracelearn.model": (n - 6 + 1) + (n - 8 + 1)}
        assert len(reads) == 1

    def test_data_file_bytes_read_once_and_hashed(self, tiny_cli_csv, tmp_path, monkeypatch):
        import builtins
        import hashlib

        config = write_config(
            tmp_path / "one.yaml",
            training={"max_epochs": 1, "seed": 0},
            grid=[{"name": "m", "neurons": 3, "hidden_layers": 1, "lookback": 6}],
        )
        data = tiny_cli_csv.resolve()
        reads = []

        def counted(original):
            def wrapper(first, *args, **kwargs):
                if isinstance(first, (str, Path)) and Path(first).resolve() == data:
                    reads.append(original.__name__)
                return original(first, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counted(builtins.open))
        monkeypatch.setattr(Path, "read_bytes", counted(Path.read_bytes))
        out_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--data", str(tiny_cli_csv),
             "--out-dir", str(out_dir)]
        ) == 0
        assert len(reads) == 1
        report = json.loads((out_dir / "report.json").read_text())
        assert report["data_fingerprint"] == hashlib.sha256(data.read_bytes()).hexdigest()

    def test_diverged_entry_leaves_seconds_blank(self, tiny_cli_csv, tmp_path):
        config = write_config(
            tmp_path / "diverge.yaml",
            training={"max_epochs": 2, "learning_rate": 1.0e200, "clip_norm": 0.0},
            grid=[{"name": "a", "neurons": 2, "hidden_layers": 1, "lookback": 4}],
        )
        out_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--data", str(tiny_cli_csv),
             "--out-dir", str(out_dir), "--timing"]
        ) == 0
        with open(out_dir / "summary.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][:6] == ["a", "2", "1", "4", "diverged", "diverged"]
        assert rows[1][-1] == ""

    def test_exploded_weights_recorded_as_diverged(self, tiny_cli_csv, tmp_path):
        # one batch and one epoch: the loss stays finite, the weights do not
        config = write_config(
            tmp_path / "explode.yaml",
            training={"max_epochs": 1, "batch_size": 10**6,
                      "learning_rate": 1.0e200, "clip_norm": 0.0},
            grid=[{"name": "a", "neurons": 2, "hidden_layers": 1, "lookback": 4}],
        )
        out_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--data", str(tiny_cli_csv),
             "--out-dir", str(out_dir)]
        ) == 0
        with open(out_dir / "summary.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][:7] == ["a", "2", "1", "4", "diverged", "diverged", "1"]

        def reject(constant):
            raise ValueError(f"report.json holds {constant}")

        report = json.loads((out_dir / "report.json").read_text(), parse_constant=reject)
        assert report["best_model"] is None
        assert "NRMSE" in report["entries"][0]["error"]
        assert not (out_dir / "model_a.json").exists()


class TestPredict:
    def test_deeply_nested_model_exits_2(self, tiny_cli_csv, tmp_path, capsys):
        model = tmp_path / "deep.json"
        model.write_text("[" * 100_000)
        code = main(["predict", "--model", str(model), "--data", str(tiny_cli_csv),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert str(model) in capsys.readouterr().err

    def test_round_trip(self, tiny_config, tiny_cli_csv, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(model_path)]
        ) == 0
        out = tmp_path / "pred.csv"
        assert main(
            ["predict", "--model", str(model_path), "--data", str(tiny_cli_csv),
             "--out", str(out)]
        ) == 0
        assert out.is_file()

    def test_malformed_model_file(self, tiny_cli_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 1, "model": {}}))
        code = main(
            ["predict", "--model", str(bad), "--data", str(tiny_cli_csv),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "model.name" in capsys.readouterr().err

    def test_prediction_csv_keeps_first_t(self, tmp_path):
        data = tmp_path / "late.csv"
        rows = [f"{5.0 + 0.5 * i!r},{math.sin(i)!r},{math.cos(i)!r}" for i in range(10)]
        data.write_text("\n".join(["t,displacement,force", *rows]) + "\n")
        net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(0))
        stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=0.0, std_y=1.0)
        model_path = tmp_path / "m.json"
        save_model(model_path,
                   TrainedModel(net=net, config=ModelConfig("m", 3, 1, 4), stats=stats))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 0
        with open(out) as handle:
            times = [row["t"] for row in csv.DictReader(handle)]
        assert times == [repr(5.0 + 0.5 * i) for i in range(10)]

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda doc: doc["model"].update(neurons="abc"), ["model.neurons"]),
            (lambda doc: doc["model"].update(neurons=3.5), ["model.neurons"]),
            (lambda doc: doc["model"].update(hidden_layers=True), ["model.hidden_layers"]),
            (lambda doc: doc["model"].update(lookback=6.9), ["model.lookback"]),
            (lambda doc: doc["parameters"].update(cells=5), ["parameters.cells"]),
            # Wx_i 4 rows tall while every other block is 3 wide
            (lambda doc: doc["parameters"]["cells"][0].update(Wx_i=[[0.1]] * 4),
             ["Wx_i", "Wx_f"]),
            (lambda doc: doc["parameters"]["W_out"].__setitem__(0, float("inf")),
             ["non-finite"]),
            (lambda doc: doc["model"].update(nuerons=3), ["model.nuerons"]),
            (lambda doc: doc.pop("parameters"), ["parameters: missing field"]),
            (lambda doc: doc["parameters"]["cells"].__setitem__(0, [1.0]),
             ["parameters.cells[0]: expected a mapping"]),
            (lambda doc: doc["parameters"].update(cells=[]),
             ["parameters.cells: expected a non-empty list"]),
            (lambda doc: doc["normalization"].update(mean_x=None),
             ["normalization.mean_x: expected a finite number"]),
            (lambda doc: doc["model"].update(neurons=0), ["model.neurons"]),
            (lambda doc: doc["normalization"].update(std_y=0), ["normalization.std_y"]),
        ],
        ids=["neurons-not-int", "neurons-fraction", "layers-bool", "lookback-fraction",
             "cells-not-list", "wx-shape", "w-out-inf", "unknown-model-key",
             "missing-parameters", "cell-not-mapping", "no-cells", "null-scalar",
             "neurons-zero", "std-y-zero"],
    )
    def test_malformed_model_field(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, mutate, named
    ):
        model_path = tmp_path / "m.json"
        assert main(
            ["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--model", "small", "--out", str(model_path)]
        ) == 0
        doc = json.loads(model_path.read_text())
        mutate(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "p.csv"
        code = main(
            ["predict", "--model", str(model_path), "--data", str(tiny_cli_csv),
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert all(name in err for name in named), err
        assert not out.exists()


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.usefixtures("corrupt_backward")
    def test_corrupt_fails(self, capsys):
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_minimal_net(self):
        assert main(["gradcheck", "--hidden", "1", "--layers", "1", "--lookback", "1"]) == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "0"),
            ("--eps", "-1e-5"),
            ("--eps", "nan"),
            ("--eps", "inf"),
            ("--tolerance", "nan"),
            ("--tolerance", "-1"),
            ("--tolerance", "inf"),
        ],
    )
    def test_bad_flag_exits_2(self, capsys, flag, value):
        assert main(["gradcheck", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert flag.lstrip("-") in captured.err
        assert captured.out == ""

    def test_overflowing_eps_fails_without_traceback(self, capsys):
        # the perturbed loss overflows the float range: non-finite, so FAIL
        assert main(["gradcheck", "--eps", "1e308"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_model_name_normalization(self, tiny_config, tiny_cli_csv, tmp_path):
        # 'Model3a'-style names resolve against grid entries with spaces
        config = write_config(
            tmp_path / "c.yaml",
            training={"max_epochs": 1},
            grid=[{"name": "Model 3d", "neurons": 2, "hidden_layers": 1, "lookback": 4}],
        )
        assert main(
            ["train", "--config", config, "--data", str(tiny_cli_csv),
             "--model", "Model3d", "--out", str(tmp_path / "m.json")]
        ) == 0


#: Values that are never a valid field of their kind, or only a small one.
MALFORMED = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.floats(min_value=-10, max_value=10).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf, None]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "name"]), st.integers(-2, 2), max_size=2),
)


def _field_paths(node, prefix=()):
    """Every mapping key, and every mapping inside a list, below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(_field_paths(child, prefix + (key,)))
    return paths


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


FUZZ_CONFIG = {
    "protocol": dict(TINY_PROTOCOL, dt=0.01),
    "oracle": {"substeps": 2, "delta_nu": 0.1},
    "training": {"max_epochs": 2, "seed": 0, "learning_rate": 0.001},
    "grid": [{"name": "small", "neurons": 3, "hidden_layers": 1, "lookback": 6}],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A valid tiny model file, its document, and a data CSV it can read."""
    root = tmp_path_factory.mktemp("fuzz")
    protocol = oracle.LoadingProtocol(
        amplitude_factors=(1.0, 2.0), cycles_per_amplitude=1, points_per_cycle=20
    )
    disp = oracle.generate_protocol(protocol)
    oracle.write_csv(root / "data.csv", disp, oracle.simulate(oracle.BoucWenParams(), disp))
    net = lstm.init_network(3, 2, 1, rng=np.random.default_rng(0))
    stats = NormStats(mean_x=0.0, std_x=0.1, mean_y=0.0, std_y=1.0)
    save_model(root / "model.json",
               TrainedModel(net=net, config=ModelConfig("fuzz", 3, 2, 4), stats=stats))
    return root, json.loads((root / "model.json").read_text())


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_config_returns_or_raises_config_error(self, tmp_path_factory, data):
        path = data.draw(st.sampled_from(_field_paths(FUZZ_CONFIG)))
        doc = _replaced(FUZZ_CONFIG, path, data.draw(MALFORMED))
        config = tmp_path_factory.getbasetemp() / "fuzz_config.yaml"
        config.write_text(yaml.safe_dump(doc))
        try:
            load_config(config)
        except ConfigError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_predict_exits_0_or_2(self, fuzz_files, data):
        root, valid = fuzz_files
        path = data.draw(st.sampled_from(_field_paths(valid)))
        (root / "bad.json").write_text(json.dumps(_replaced(valid, path, data.draw(MALFORMED))))
        out = root / "pred.csv"
        out.unlink(missing_ok=True)
        code = main(["predict", "--model", str(root / "bad.json"),
                     "--data", str(root / "data.csv"), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            with open(out) as handle:
                preds = [row["force_pred"] for row in csv.DictReader(handle)]
            assert all(math.isfinite(float(p)) for p in preds if p)
