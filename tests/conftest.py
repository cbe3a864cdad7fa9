"""Shared fixtures: datasets are expensive enough to build once per session."""

import pytest

from bracelearn import lstm, oracle
from bracelearn.dataset import NormStats

#: Pass-through statistics (mean 0, std 1).
IDENTITY_STATS = NormStats(mean_x=0.0, std_x=1.0, mean_y=0.0, std_y=1.0)


@pytest.fixture(scope="session")
def default_protocol():
    return oracle.LoadingProtocol()


@pytest.fixture(scope="session")
def default_data(default_protocol):
    """Displacement/force pair from the default protocol and oracle params."""
    disp = oracle.generate_protocol(default_protocol)
    force = oracle.simulate(oracle.BoucWenParams(), disp)
    return disp, force


@pytest.fixture(scope="session")
def tiny_data():
    """Short three-level run, big enough for lookback 40 after the split."""
    protocol = oracle.LoadingProtocol(
        delta_y=0.1,
        amplitude_factors=(1.0, 2.0, 3.0),
        cycles_per_amplitude=2,
        points_per_cycle=60,
    )
    disp = oracle.generate_protocol(protocol)
    force = oracle.simulate(oracle.BoucWenParams(substeps=2), disp)
    return disp, force


@pytest.fixture()
def tiny_csv(tiny_data, tmp_path):
    disp, force = tiny_data
    path = tmp_path / "tiny.csv"
    oracle.write_csv(path, disp, force)
    return path


@pytest.fixture()
def corrupt_backward(monkeypatch):
    """Make BPTT wrong in one entry, so a gradient check has something to find."""
    real_backward = lstm.backward_batch

    def wrong_backward(net, tape, d_preds):
        grads = real_backward(net, tape, d_preds)
        grads.cells[0].Wh_f[0, 0] += 0.5
        return grads

    monkeypatch.setattr(lstm, "backward_batch", wrong_backward)
