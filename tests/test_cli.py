"""End-to-end CLI behavior: exit codes, artifacts, reproducibility."""

import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
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
from bracelearn.model import MAX_WINDOW_ACTIVATIONS, ModelConfig, TrainedModel, save_model
from bracelearn.sweep import DEFAULT_GRID
from bracelearn.training import TrainConfig
from conftest import IDENTITY_STATS, UNWRITABLE_NAMES, package_environ

TINY_PROTOCOL = {
    "delta_y": 0.1,
    "amplitude_factors": [1.0, 2.0, 3.0],
    "cycles_per_amplitude": 2,
    "points_per_cycle": 60,
}


def write_config(path, **sections):
    path.write_text(yaml.safe_dump(sections))
    return str(path)


def assert_epochs_match_loss_csv(out_dir, slug):
    """A sweep entry's ``epochs_run`` is the number of rows of its loss curve."""
    report = json.loads((out_dir / "report.json").read_text())
    (entry,) = [e for e in report["entries"] if e["model"] == slug]
    lines = (out_dir / f"loss_{slug}.csv").read_text().splitlines()
    assert entry["epochs_run"] == len(lines) - 1


def snapshot(root):
    """Every path under ``root``, with a file's bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def write_three_samples(path):
    """A data CSV of three samples: too short to split, and shorter than lookback 4."""
    path.write_text("t,displacement,force\n0.0,0.0,0.0\n0.01,0.1,0.2\n0.02,0.2,0.1\n")
    return path


def save_seeded_model(path):
    """An untrained 3-neuron, lookback-4 model with pass-through statistics."""
    net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(0))
    save_model(path, TrainedModel(net=net, config=ModelConfig("m", 3, 1, 4), stats=IDENTITY_STATS))
    return path


#: The address space of a ``run_capped`` command: enough for the interpreter
#: and numpy, far short of a network past ``model.MAX_PARAMETERS``.
ADDRESS_LIMIT = 1 << 30


def run_capped(*argv):
    """The CLI in a fresh interpreter whose address space is ``ADDRESS_LIMIT`` bytes.

    A size check that the command misses then ends in a MemoryError, not
    in the machine running out of memory.
    """
    code = ("import resource, sys; limit = int(sys.argv[1]); "
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
            "from bracelearn.cli import main; sys.exit(main(sys.argv[2:]))")
    return subprocess.run([sys.executable, "-c", code, str(ADDRESS_LIMIT), *argv],
                          env=package_environ(), capture_output=True, text=True, timeout=120)


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

    def test_delta_y_override_scales_peak(self, tmp_path):
        config = write_config(tmp_path / "c.yaml", protocol={**TINY_PROTOCOL, "delta_y": 0.2})
        out = tmp_path / "data.csv"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        disp, _ = oracle.read_csv(out)
        assert disp.values.max() == pytest.approx(3.0 * 0.2)

    def test_delta_y_override_default_protocol(self, tmp_path):
        # default amplitude factors top out at 10x the yield displacement
        config = write_config(tmp_path / "c.yaml", protocol={"delta_y": 0.2})
        out = tmp_path / "data.csv"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
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
        config = write_config(tmp_path / "c.yaml", protocol={"delta_y": 1e308})
        code = main(["generate", "--config", config, "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "delta_y" in capsys.readouterr().err

    def test_overflowing_rate_exits_3_without_warnings(self, tmp_path, capsys):
        # the peak 1e308 is finite, but the finite-difference rate is not
        config = write_config(tmp_path / "c.yaml", protocol={"delta_y": 1e307})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--config", config, "--out", str(tmp_path / "d.csv")])
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

    #: SHA-256 of each record's CSV, recorded when the RK4 loop still ran on
    #: numpy scalars and the rows went through csv.writer
    CSV_SHA256 = {
        "specimen-a": "aaa1397958e277a2beafaf300272b09cb0aaef4229561126010e266f22c7a743",
        "specimen-b": "0c2bb164004e92ccb86e23be1ad1fde5218f8ff60cdce1d1127676d654eeb738",
        "20-points": "76cde56be17e916bbd75fcb24bccae5b3ac7f976e6a1aa4a9076e8db58200b27",
    }

    @pytest.mark.parametrize("record", list(CSV_SHA256))
    def test_csv_bytes_are_pinned(self, tmp_path, record):
        # simulate and write_csv both: the default protocol for each specimen,
        # and the 521-sample record of the benchmark's sweep
        flags = {
            "specimen-a": ["--specimen", "a"],
            "specimen-b": ["--specimen", "b"],
            "20-points": ["--config", write_config(tmp_path / "c.yaml",
                                                   protocol={"points_per_cycle": 20})],
        }[record]
        out = tmp_path / "data.csv"
        assert main(["generate", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CSV_SHA256[record]

    def test_protocol_past_the_sample_cap_exits_2_before_allocating(self, tmp_path, capsys):
        # 1 amplitude x 100000 cycles x 10 points + 1 sample: one past the cap
        assert oracle.MAX_SAMPLES == 1_000_000
        config = write_config(tmp_path / "c.yaml", protocol={
            "amplitude_factors": [1.0], "cycles_per_amplitude": 100_000, "points_per_cycle": 10,
        })
        out = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            code = main(["generate", "--config", config, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: protocol.cycles_per_amplitude: ")
        assert "1000001 samples" in err and err.count("\n") == 1
        assert peak < 1_000_000  # the record alone would take 8 MB
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
            # Adam's constants are not settings
            (lambda c: c["training"].update(adam_beta1=0.9), "training.adam_beta1: unknown field"),
        ],
        ids=["grid-missing-lookback", "neurons-string", "neurons-fraction", "name-int",
             "batch-size-fraction", "max-epochs-fraction", "substeps-fraction",
             "cycles-fraction", "seed-fraction", "clip-norm-nan", "points-fraction",
             "delta-nu-nan", "learning-rate-string", "seed-null", "k-null", "grid-mapping",
             "grid-empty", "batch-size-zero", "neurons-zero", "asym-below-1",
             "points-below-8", "adam-beta1"],
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
        assert err.startswith(f"error: {config}: ") and err.count(config) == 1, err
        assert not out.exists() and not (tmp_path / "m.report.json").exists()
        with pytest.raises(ConfigError) as excinfo:
            load_config(config)
        assert excinfo.value.field == field.split(":")[0]

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_grid_entry_past_the_parameter_cap_exits_2_before_allocating(
        self, tiny_cli_csv, tmp_path, command
    ):
        # 20000 neurons: 1.6e9 parameters, 12.8 GB for the weights alone
        config = write_config(tmp_path / "big.yaml", grid=[
            {"name": "big", "neurons": 20_000, "hidden_layers": 1, "lookback": 10},
        ])
        out = {"train": ["--model", "big", "--out", str(tmp_path / "m.json")],
               "sweep": ["--out-dir", str(tmp_path / "sweep")]}[command]
        done = run_capped(command, "--config", config, "--data", str(tiny_cli_csv), *out)
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            f"error: {config}: grid[0].neurons: neurons 20000 x hidden_layers 1 gives "
            f"1600180001 parameters, more than the 2000000 allowed\n"
        )
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "sweep").exists()

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

    @pytest.mark.parametrize("name", UNWRITABLE_NAMES.values(), ids=UNWRITABLE_NAMES.keys())
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
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: grid[1].name ") and err.count(config) == 1, err
        assert not out_dir.exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "deep.yaml"
        config.write_text("grid: " + "[" * 100_000 + "\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert str(config) in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # Python refuses to parse an int of more than 4300 digits
        config = tmp_path / "long.yaml"
        config.write_text("training: {seed: " + "9" * 5000 + "}\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config} is not valid YAML: ") and err.count("\n") == 1

    def test_readme_example_loads_to_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (example,) = re.findall(r"^```yaml\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        config_path = tmp_path / "example.yaml"
        config_path.write_text(example)
        config = load_config(config_path)
        assert (config.oracle, config.protocol, config.training) == (
            oracle.BoucWenParams(), oracle.LoadingProtocol(), TrainConfig()
        )

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

    @pytest.mark.parametrize("flag", ["--out", "--report", "--loss-csv"])
    def test_output_path_that_is_a_directory_rejected_before_training(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, monkeypatch, flag
    ):
        import bracelearn.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_model must not run")

        monkeypatch.setattr(bracelearn.cli, "fit_model", no_fit)
        taken = tmp_path / "taken"
        taken.mkdir()
        paths = {"--out": tmp_path / "m.json", "--report": tmp_path / "r.json",
                 "--loss-csv": tmp_path / "loss.csv", flag: taken}
        before = sorted(tmp_path.rglob("*"))
        code = main(["train", "--config", tiny_config, "--data", str(tiny_cli_csv),
                     "--model", "small", *(f"{k}={v}" for k, v in paths.items())])
        assert code == 2
        assert f"output path exists and is a directory: {taken}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_record_too_short_to_split_names_the_file(self, tiny_config, tmp_path, capsys):
        data = write_three_samples(tmp_path / "short.csv")
        code = main(["train", "--config", tiny_config, "--data", str(data),
                     "--model", "small", "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {data}: need at least 4 samples to split, got 3\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("column", [oracle.DISPLACEMENT, oracle.FORCE])
    def test_overflowing_data_names_file_and_column(
        self, tiny_config, tiny_cli_csv, tmp_path, capfd, command, column
    ):
        # the square of 1e200 overflows the training half's standard deviation
        disp, force = oracle.read_csv(tiny_cli_csv)
        series = {oracle.DISPLACEMENT: disp, oracle.FORCE: force}
        series[column].values[10] = 1e200
        data = tmp_path / "huge.csv"
        oracle.write_csv(data, *series.values())
        out = tmp_path / "out"
        argv = {"train": ["--model", "small", "--out", str(out)], "sweep": ["--out-dir", str(out)]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", tiny_config, "--data", str(data), *argv[command]])
        assert code == 2
        # capfd: a sweep's worker processes write to the same stderr
        message = f"{column} column: its standard deviation overflows the float range"
        assert capfd.readouterr().err == f"error: {data}: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train", "sweep", "predict"])
    def test_overflowing_normalization_names_the_file(
        self, tiny_config, tmp_path, capfd, command
    ):
        # the training half's displacement spread is 1e-150 (the model's
        # std_x is 1e-310), so the held-out half's 1e160 overflows once scaled
        disp = [(-1.0) ** i * 1e-150 for i in range(20)] + [0.0] * 19 + [1e160]
        data = tmp_path / "narrow.csv"
        oracle.write_csv(data, oracle.Series(0.01, disp, oracle.DISPLACEMENT),
                         oracle.Series(0.01, np.sin(np.arange(40.0)), oracle.FORCE))
        model = tmp_path / "m.json"
        net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(0))
        save_model(model, TrainedModel(net=net, config=ModelConfig("m", 3, 1, 4),
                                       stats=NormStats(0.0, 1e-310, 0.0, 1.0)))
        out = tmp_path / "out"
        argv = {"train": ["--config", tiny_config, "--model", "small", "--out", str(out)],
                "sweep": ["--config", tiny_config, "--out-dir", str(out)],
                "predict": ["--model", str(model), "--out", str(out)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--data", str(data), *argv])
        assert code == 2
        # capfd: a sweep's worker processes write to the same stderr
        err = capfd.readouterr().err
        assert err.startswith(f"error: {data}: displacement normalized by std_x ")
        assert err.endswith(" overflows\n") and err.count("\n") == 1


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

    def test_directory_at_a_sweep_file_rejected_before_training(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_model must not run")

        monkeypatch.setattr(sweep_mod, "fit_model", no_fit)
        out_dir = tmp_path / "sw"
        taken = out_dir / "loss_wide.csv"
        taken.mkdir(parents=True)
        before = snapshot(out_dir)
        code = main(["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert f"output path exists and is a directory: {taken}" in capsys.readouterr().err
        assert snapshot(out_dir) == before

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
        # t, displacement and force are the data CSV's own fields, as text
        with open(tiny_cli_csv, newline="") as handle:
            data_rows = list(csv.reader(handle))
        assert [row[:3] for row in rows[1:]] == data_rows[1:]

    def test_each_record_read_once_and_each_window_predicted_once(
        self, tiny_config, tiny_cli_csv, tmp_path, monkeypatch
    ):
        import bracelearn.model
        import bracelearn.training

        monkeypatch.setattr(lstm, "_cores", lambda: 1)  # inline: a worker would not see the patch
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

    def test_pooled_sweep_takes_its_predictions_from_the_workers(
        self, tiny_config, tiny_cli_csv, tmp_path, monkeypatch
    ):
        import bracelearn.cli
        import bracelearn.model

        def in_parent(*args):
            raise AssertionError("the parent process must not predict or write an entry file")

        monkeypatch.setattr(lstm, "_cores", lambda: 2)
        monkeypatch.setattr(bracelearn.model, "predict", in_parent)
        for module, name in ((sweep_mod, "save_model"), (sweep_mod, "emit_predictions"),
                             (sweep_mod, "write_loss_csv"), (bracelearn.cli, "save_model")):
            monkeypatch.setattr(module, name, in_parent)
        out_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv),
             "--out-dir", str(out_dir)]
        ) == 0
        files = [file for name in ("small", "wide") for file in sweep_mod.entry_files(name)]
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            ["report.json", "summary.csv", *files]
        )

    def test_interrupted_sweep_keeps_the_files_of_finished_entries(
        self, tiny_config, tiny_cli_csv, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(lstm, "_cores", lambda: 1)  # inline: a worker would not see the patch
        argv = ["sweep", "--config", tiny_config, "--data", str(tiny_cli_csv), "--out-dir"]
        complete = tmp_path / "complete"
        assert main([*argv, str(complete)]) == 0
        real_fit = sweep_mod.fit_model

        def interrupted(disp, force, config, cfg):
            if config.name == "wide":  # the second of the grid's two entries
                raise KeyboardInterrupt
            return real_fit(disp, force, config, cfg)

        monkeypatch.setattr(sweep_mod, "fit_model", interrupted)
        stopped = tmp_path / "stopped"
        with pytest.raises(KeyboardInterrupt):
            main([*argv, str(stopped)])
        # the first entry's three files, as a complete sweep writes them; no report or summary
        kept = {path.name: path.read_bytes() for path in stopped.iterdir()}
        assert kept == {name: (complete / name).read_bytes()
                        for name in sweep_mod.entry_files("small")}

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
        assert_epochs_match_loss_csv(out_dir, "a")

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
        assert_epochs_match_loss_csv(out_dir, "a")


#: Runs generate, train, predict and sweep in ``argv[1]`` with the config
#: ``argv[2]``. ``_cores`` is one so that the sweep trains inline at the
#: caller's BLAS thread count: its workers would run BLAS on one thread.
BLAS_THREADS_SCRIPT = """
import sys
from bracelearn import lstm
from bracelearn.cli import main

lstm._cores = lambda: 1
out, config = sys.argv[1:]
for argv in (
    ["generate", "--config", config, "--out", f"{out}/data.csv"],
    ["train", "--config", config, "--data", f"{out}/data.csv", "--model", "Model 3a",
     "--out", f"{out}/model.json"],
    ["predict", "--model", f"{out}/model.json", "--data", f"{out}/data.csv",
     "--out", f"{out}/pred.csv"],
    ["sweep", "--config", config, "--data", f"{out}/data.csv", "--out-dir", f"{out}/sweep"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_blas_thread_count_changes_no_byte(tmp_path):
    # a 521-sample record, a seed-0 2-epoch Model 3a and a two-model sweep,
    # each at one and at two OpenBLAS threads
    grid = [{"name": c.name, "neurons": c.neurons, "hidden_layers": c.hidden_layers,
             "lookback": c.lookback} for c in DEFAULT_GRID if c.name in ("Model 3a", "Model 2")]
    config = write_config(tmp_path / "c.yaml", protocol={"points_per_cycle": 20},
                          training={"max_epochs": 2, "seed": 0}, grid=grid)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        env = {**package_environ(), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT, str(out), config],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outputs.append({path.relative_to(out): data for path, data in snapshot(out).items()})
    assert len(outputs[0]) == 13  # 4 files, the sweep directory and its 8 files
    assert outputs[0] == outputs[1]


class TestSameFile:
    """No command may overwrite its own input, or write two outputs to one file."""

    @pytest.mark.parametrize(
        "argv, first, second",
        [
            (["train", "--config", "config.yaml", "--data", "data.csv", "--model", "small",
              "--out", "m.json", "--report", "m.json"], "--out", "--report"),
            (["train", "--config", "config.yaml", "--data", "data.csv", "--model", "small",
              "--out", "m.json", "--loss-csv", "./m.json"], "--out", "--loss-csv"),
            (["train", "--config", "config.yaml", "--data", "{tmp}/data.csv",
              "--model", "small", "--out", "data.csv"], "--data", "--out"),
            (["predict", "--model", "seeded.json", "--data", "data.csv",
              "--out", "seeded.json"], "--model", "--out"),
            (["predict", "--model", "seeded.json", "--data", "data.csv",
              "--out", "{tmp}/data.csv"], "--data", "--out"),
            (["generate", "--config", "config.yaml", "--out", "config.yaml"],
             "--config", "--out"),
            (["sweep", "--config", "config.yaml", "--data", "sw/summary.csv",
              "--out-dir", "sw"], "--data", "--out-dir summary.csv"),
        ],
        ids=["train-out-report", "train-out-loss", "train-out-data", "predict-out-model",
             "predict-out-data", "generate-out-config", "sweep-summary-data"],
    )
    def test_rejected_before_any_work(
        self, tiny_config, tiny_cli_csv, tmp_path, capsys, monkeypatch, argv, first, second
    ):
        import bracelearn.cli

        def no_work(*args, **kwargs):
            raise AssertionError("nothing may be trained")

        monkeypatch.setattr(bracelearn.cli, "fit_model", no_work)
        monkeypatch.setattr(sweep_mod, "train", no_work)
        monkeypatch.chdir(tmp_path)
        save_seeded_model(tmp_path / "seeded.json")
        (tmp_path / "sw").mkdir()
        (tmp_path / "sw" / "summary.csv").write_bytes(tiny_cli_csv.read_bytes())
        before = snapshot(tmp_path)
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 2
        assert f"{first} and {second} are the same file" in capsys.readouterr().err
        assert snapshot(tmp_path) == before


class TestPreflightGuard:
    """Every file a command writes is one that its pre-flight checked."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--config", "config.yaml", "--out", "gen.csv"],
            ["train", "--config", "config.yaml", "--data", "data.csv", "--model", "small",
             "--out", "m.json", "--loss-csv", "loss.csv"],
            ["predict", "--model", "seeded.json", "--data", "data.csv", "--out", "pred.csv"],
            ["sweep", "--config", "config.yaml", "--data", "data.csv", "--out-dir", "sw"],
        ],
        ids=["generate", "train", "predict", "sweep"],
    )
    def test_every_written_file_was_checked(
        self, tiny_config, tiny_cli_csv, tmp_path, monkeypatch, argv
    ):
        import bracelearn.cli

        checked = set()
        preflight = bracelearn.cli._preflight

        def recording(inputs, outputs, out_dir_files=()):
            checked.update(Path(path).resolve() for path in outputs.values() if path is not None)
            checked.update((Path(outputs["--out-dir"]) / name).resolve() for name in out_dir_files)
            return preflight(inputs, outputs, out_dir_files)

        monkeypatch.setattr(bracelearn.cli, "_preflight", recording)
        monkeypatch.chdir(tmp_path)
        save_seeded_model(tmp_path / "seeded.json")
        before = snapshot(tmp_path)
        assert main(argv) == 0
        written = {path.resolve() for path in tmp_path.rglob("*")
                   if path.is_file() and path not in before}
        assert written and written <= checked


class TestPredict:
    def test_deeply_nested_model_exits_2(self, tiny_cli_csv, tmp_path, capsys):
        model = tmp_path / "deep.json"
        model.write_text("[" * 100_000)
        code = main(["predict", "--model", str(model), "--data", str(tiny_cli_csv),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert str(model) in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_2(self, tiny_cli_csv, tmp_path, capsys):
        # Python refuses to parse an int of more than 4300 digits
        model = save_seeded_model(tmp_path / "m.json")
        text = model.read_text()
        model.write_text(text.replace('"lookback": 4', '"lookback": ' + "9" * 5000))
        assert model.read_text() != text
        code = main(["predict", "--model", str(model), "--data", str(tiny_cli_csv),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} is not valid JSON: ") and err.count("\n") == 1

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

    def test_record_shorter_than_the_lookback_names_the_file(self, tmp_path, capsys):
        data = write_three_samples(tmp_path / "short.csv")
        code = main(["predict", "--model", str(save_seeded_model(tmp_path / "m.json")),
                     "--data", str(data), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: series has 3 samples but lookback is 4\n"

    @pytest.mark.parametrize(
        "parameters, std_y, sample",
        [({"W_out": [1.0] * 3, "b_out": 100.0}, 1e307, 3),
         ({"W_out": [1e308] * 3, "b_out": 1.7e308}, 1.0, None)],
        ids=["denormalize-overflows", "output-layer-overflows"],
    )
    def test_non_finite_prediction_names_the_file_and_writes_nothing(
        self, tmp_path, capsys, parameters, std_y, sample
    ):
        # every field is finite and the file loads; only the predicted force is not
        data = tmp_path / "data.csv"
        config = write_config(tmp_path / "c.yaml", protocol={"points_per_cycle": 20})
        assert main(["generate", "--config", config, "--out", str(data)]) == 0
        model_path = save_seeded_model(tmp_path / "m.json")
        doc = json.loads(model_path.read_text())
        doc["parameters"].update(parameters)
        doc["normalization"]["std_y"] = std_y
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        match = re.fullmatch(
            rf"error: {re.escape(str(model_path))}: predicted force must be finite, "
            r"got (-?inf|nan) at sample (\d+)\n",
            err,
        )
        assert match, err
        if sample is not None:
            assert int(match[2]) == sample
        assert not out.exists()

    def test_network_of_two_inputs_per_step_names_the_file(self, tiny_cli_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        net = lstm.init_network(3, 1, 2, rng=np.random.default_rng(0))
        save_model(model_path, TrainedModel(net, ModelConfig("M", 3, 1, 4), IDENTITY_STATS))
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model_path), "--data", str(tiny_cli_csv),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model_path}: the network takes 2 inputs per step, but a data CSV gives 1\n"
        )
        assert not out.exists()

    def test_prediction_csv_keeps_first_t(self, tmp_path):
        data = tmp_path / "late.csv"
        rows = [f"{5.0 + 0.5 * i!r},{math.sin(i)!r},{math.cos(i)!r}" for i in range(10)]
        data.write_text("\n".join(["t,displacement,force", *rows]) + "\n")
        model_path = save_seeded_model(tmp_path / "m.json")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 0
        with open(out) as handle:
            times = [row["t"] for row in csv.DictReader(handle)]
        assert times == [repr(5.0 + 0.5 * i) for i in range(10)]

    def test_prediction_csv_of_a_hand_written_file_holds_its_numbers(self, tmp_path):
        # t is t0 + i * dt and each value its float's repr, not the file's text
        data = tmp_path / "hand.csv"
        rows = [[f"{i / 10:.1f}", f"{math.sin(i):.3f}", f"{math.cos(i):.3f}"] for i in range(40)]
        data.write_text("\n".join(["t,displacement,force", *map(",".join, rows)]) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(save_seeded_model(tmp_path / "m.json")),
                     "--data", str(data), "--out", str(out)]) == 0
        with open(out) as handle:
            written = [row[:3] for row in list(csv.reader(handle))[1:]]
        assert len(written) == len(rows)
        assert any(text != row for text, row in zip(written, rows))
        for i, ((t, x, f), row) in enumerate(zip(written, rows)):
            assert float(t) == 0.0 + i * 0.1
            assert [float(x), float(f)] == [float(row[1]), float(row[2])]

    def test_byte_order_mark_predicts_same_bytes(self, tiny_cli_csv, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + tiny_cli_csv.read_bytes())
        model_path = save_seeded_model(tmp_path / "m.json")
        outputs = []
        for data in (tiny_cli_csv, marked):
            out = tmp_path / f"pred_{data.stem}.csv"
            assert main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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
        assert err.startswith(f"error: {model_path}: ") and err.count(str(model_path)) == 1, err
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
            ("--hidden", "0"),
            ("--layers", "0"),
            ("--lookback", "0"),
            ("--lookback", "-1"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_flag_exits_2(self, capsys, flag, value):
        assert main(["gradcheck", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag.lstrip('-')} must be" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--hidden", "100000"], "--hidden 100000 x --layers 2 gives 120001300001 parameters"),
        (["--layers", "100000000"], "--hidden 4 x --layers 100000000 gives 14399999957 parameters"),
    ])
    def test_network_past_the_parameter_cap_exits_2_before_allocating(self, flags, message):
        done = run_capped("gradcheck", *flags)
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: {message}, more than the 2000000 allowed\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("flags, message", [
        (["--lookback", "1000000000"],
         "--lookback 1000000000 x --hidden 4 x --layers 2 gives 8000000000 activations"),
        (["--lookback", "20000000", "--hidden", "40", "--layers", "20"],
         "--lookback 20000000 x --hidden 40 x --layers 20 gives 16000000000 activations"),
    ])
    def test_window_past_the_activation_cap_exits_2_before_drawing(self, flags, message):
        done = run_capped("gradcheck", *flags)
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: {message} per window, more than the 1000000 allowed\n"
        assert done.stdout == ""

    def test_activation_cap_admits_every_built_in_model(self):
        for config in DEFAULT_GRID:
            activations = config.lookback * config.neurons * config.hidden_layers
            assert 10 * activations <= MAX_WINDOW_ACTIVATIONS, config.name

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
