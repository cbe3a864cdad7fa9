"""End-to-end CLI behavior: exit codes, artifacts, reproducibility."""

import csv
import json

import pytest
import yaml

from bracelearn import oracle
from bracelearn.cli import load_config, main
from bracelearn.errors import ConfigError

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


class TestPredict:
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

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda doc: doc["model"].update(neurons="abc"), ["model.neurons"]),
            (lambda doc: doc["parameters"].update(cells=5), ["parameters.cells"]),
            # Wx_i 4 rows tall while every other block is 3 wide
            (lambda doc: doc["parameters"]["cells"][0].update(Wx_i=[[0.1]] * 4),
             ["Wx_i", "Wx_f"]),
            (lambda doc: doc["parameters"]["W_out"].__setitem__(0, float("inf")),
             ["non-finite"]),
        ],
        ids=["neurons-not-int", "cells-not-list", "wx-shape", "w-out-inf"],
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

    def test_corrupt_fails(self, capsys):
        assert main(["gradcheck", "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_minimal_net(self):
        assert main(["gradcheck", "--hidden", "1", "--layers", "1", "--lookback", "1"]) == 0

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
