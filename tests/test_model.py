"""Model JSON round trip and format validation."""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bracelearn import lstm, model
from bracelearn.dataset import NormStats
from bracelearn.errors import ModelFormatError, ValidationError
from bracelearn.model import ModelConfig, TrainedModel


@pytest.fixture()
def trained(tmp_path):
    net = lstm.init_network(4, 2, 1, rng=np.random.default_rng(40))
    return TrainedModel(
        net=net,
        config=ModelConfig("Model X", 4, 2, 6),
        stats=NormStats(mean_x=0.1, std_x=1.2, mean_y=-0.3, std_y=2.5),
    )


class TestRoundTrip:
    def test_save_load_identical(self, trained, tmp_path):
        path = tmp_path / "model.json"
        model.save_model(path, trained)
        loaded = model.load_model(path)
        assert loaded.config == trained.config
        assert loaded.stats == trained.stats
        np.testing.assert_array_equal(loaded.net.flat, trained.net.flat)

    def test_save_is_deterministic(self, trained, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save_model(p1, trained)
        model.save_model(p2, trained)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.json"
        model.save_model(path, trained)
        loaded = model.load_model(path)
        windows = np.random.default_rng(41).normal(size=(5, 6, 1))
        np.testing.assert_array_equal(loaded.predict(windows), trained.predict(windows))

    def test_file_is_json_dumps_on_one_line(self, tmp_path):
        # the text is json's own one-line output with sorted keys, for 2-wide
        # input rows, extreme statistics and a name that needs escaping
        trained = TrainedModel(
            net=lstm.init_network(3, 2, 2, rng=np.random.default_rng(42)),
            config=ModelConfig('Model "3", ü', 3, 2, 4),
            stats=NormStats(mean_x=1e-300, std_x=1.5, mean_y=-0.0, std_y=2e300),
        )
        path = tmp_path / "model.json"
        model.save_model(path, trained)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    @pytest.mark.parametrize("layers, input_dim", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_file_is_json_dumps_of_the_field_tree(self, tmp_path, layers, input_dim):
        net = lstm.init_network(3, layers, input_dim, rng=np.random.default_rng(43))
        config = ModelConfig("Model T", 3, layers, 5)
        stats = NormStats(mean_x=-0.0, std_x=1e-300, mean_y=5e300, std_y=0.5)
        gates = [f"{kind}_{gate}" for kind in ("Wx", "Wh", "b") for gate in "ifog"]
        tree = {
            "format_version": 1,
            "model": dataclasses.asdict(config),
            "normalization": dataclasses.asdict(stats),
            "parameters": {
                "cells": [{name: getattr(cell, name).tolist() for name in gates}
                          for cell in net.cells],
                "W_out": net.W_out.tolist(),
                "b_out": float(net.b_out[0]),
            },
        }
        path = tmp_path / "model.json"
        model.save_model(path, TrainedModel(net=net, config=config, stats=stats))
        assert path.read_text() == json.dumps(tree, sort_keys=True) + "\n"

    def test_indented_file_loads_the_same(self, trained, tmp_path):
        # a file in the earlier layout, json's indent=2 output, still loads
        path, indented = tmp_path / "model.json", tmp_path / "indented.json"
        model.save_model(path, trained)
        doc = json.loads(path.read_text())
        indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        loaded = model.load_model(indented)
        assert loaded.config == trained.config
        assert loaded.stats == trained.stats
        assert loaded.net.flat.tobytes() == trained.net.flat.tobytes()
        windows = np.random.default_rng(44).normal(size=(5, 6, 1))
        assert loaded.predict(windows).tobytes() == trained.predict(windows).tobytes()


class TestPinnedFile:
    """A fixed seeded model's file bytes and predictions, recorded once.

    Guards the JSON v1 bytes, the ``init_network`` draw order and the
    per-gate blocks against any change to how the engine stores a cell.
    ``INDENTED_SHA256`` is the same document in the earlier indent=2
    layout, so the one-line file still holds the document it pinned.
    """

    SHA256 = "c04635e0c64f44083308252d8a639134d4d512bcb2d1d87f72e80d1057ead2a3"
    INDENTED_SHA256 = "628fa18191f55c6764c3f839c61ec95b96f47c1ef4cac8918839b47431a6c94c"
    PREDICTIONS = [
        0.025438468191333174,
        0.008256822128007314,
        -0.003919356874481771,
        -0.006135452373869127,
        0.009889263604570833,
    ]

    def test_file_and_predictions_are_pinned(self, tmp_path):
        pinned = TrainedModel(
            net=lstm.init_network(3, 2, rng=np.random.default_rng(0)),
            config=ModelConfig("Model P", 3, 2, 4),
            stats=NormStats(mean_x=0.25, std_x=1.5, mean_y=-0.5, std_y=2.0),
        )
        path = tmp_path / "model.json"
        model.save_model(path, pinned)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SHA256
        indented = json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == self.INDENTED_SHA256
        windows = np.random.default_rng(1).normal(size=(5, 4, 1))
        # PREDICTIONS are the network's normalized outputs; the model maps them
        # to force with its std_y and mean_y
        np.testing.assert_allclose(
            model.load_model(path).predict(windows),
            np.array(self.PREDICTIONS) * 2.0 - 0.5,
            rtol=0,
            atol=1e-12,
        )


class TestFormatErrors:
    def _doc(self, trained):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "saved.json"
            model.save_model(path, trained)
            return json.loads(path.read_text())

    def test_missing_normalization_field(self, trained, tmp_path):
        doc = self._doc(trained)
        del doc["normalization"]["std_y"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="normalization.std_y"):
            model.load_model(path)

    def test_missing_cell_block(self, trained, tmp_path):
        doc = self._doc(trained)
        del doc["parameters"]["cells"][1]["Wh_f"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"cells\[1\].Wh_f"):
            model.load_model(path)

    def test_wrong_version(self, trained, tmp_path):
        doc = self._doc(trained)
        doc["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            model.load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ModelFormatError, match="JSON"):
            model.load_model(path)

    def test_layer_count_mismatch(self, trained, tmp_path):
        doc = self._doc(trained)
        doc["model"]["hidden_layers"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layers"):
            model.load_model(path)


    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="expected a mapping, got list"):
            model.load_model(path)


class TestModelConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            ModelConfig("m", 0, 1, 1)
        with pytest.raises(ValidationError):
            ModelConfig("", 1, 1, 1)

    def test_parameter_cap(self):
        # the widest one-layer network under the cap, and one neuron wider
        assert lstm.parameter_count(705, 1) <= model.MAX_PARAMETERS < lstm.parameter_count(706, 1)
        ModelConfig("m", 705, 1, 1)
        with pytest.raises(ValidationError, match="more than the 2000000 allowed") as excinfo:
            ModelConfig("m", 706, 1, 1)
        assert excinfo.value.field == "neurons"

    def test_file_declaring_a_network_past_the_cap_rejected(self, trained, tmp_path):
        path = tmp_path / "model.json"
        model.save_model(path, trained)
        doc = json.loads(path.read_text())
        doc["model"]["hidden_layers"] = 10**6
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"model\.neurons: .* more than the") as excinfo:
            model.load_model(path)
        assert excinfo.value.field == "model.neurons"

    def test_predict_checks_lookback(self, trained):
        with pytest.raises(ValidationError, match="windows"):
            trained.predict(np.zeros((2, 5, 1)))
