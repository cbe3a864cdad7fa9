"""Acceptance criteria for the whole artifact, one test per criterion.

Every criterion runs at its stated tolerance and prints a PASS line on
success (pytest -v additionally shows one line per criterion). The
end-to-end training criterion (5) runs the full 40-neuron, 5-layer,
lookback-30 configuration and takes a few minutes; criterion 6 reuses
the same trained model. Set BRACELEARN_RUN_SLOW=1 to also train a
second full-depth model at a different seed.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from bracelearn import dataset, lstm, oracle, sweep, training
from bracelearn.dataset import NormStats, WindowedDataset
from bracelearn.model import ModelConfig
from bracelearn.training import TrainConfig

MODEL_3A = ModelConfig("Model 3a", 40, 5, 30)
PPC = 200  # default protocol points per cycle


@pytest.fixture(scope="module")
def default_pair():
    disp = oracle.generate_protocol(oracle.LoadingProtocol())
    force = oracle.simulate(oracle.BoucWenParams(), disp)
    return disp, force


@pytest.fixture(scope="module")
def trained_model_3a(default_pair):
    """One full training run shared by criteria 5 and 6."""
    disp, force = default_pair
    started = time.perf_counter()
    trained, report, _ = sweep.fit_model(disp, force, MODEL_3A, TrainConfig(seed=0))
    wall = time.perf_counter() - started
    return trained, report, wall


def _passed(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}", flush=True)


def test_criterion_1_gradient_correctness():
    """BPTT gradients match central finite differences at 1e-5 over 20 seeds."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = lstm.init_network(4, 2, 1, rng=rng)
        window = rng.normal(size=(5, 1))
        target = float(rng.normal())
        error = lstm.grad_check(net, window, target, eps=1e-5)
        assert error <= 1e-5, f"seed {seed}: relative error {error:.3e}"
        worst = max(worst, error)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(1, f"20 seeds, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_cell_equation_fidelity():
    """The three single-cell examples hold at 1e-8 absolute tolerance."""
    zeros = {name: np.zeros((1, 1)) for name in
             ("Wx_i", "Wx_f", "Wx_o", "Wx_g", "Wh_i", "Wh_f", "Wh_o", "Wh_g")}
    zeros.update({name: np.zeros(1) for name in ("b_i", "b_f", "b_o", "b_g")})
    cell = lstm.CellParams(**zeros)

    state = lstm.cell_forward(cell, np.array([2.3]), lstm.CellState.zeros(1))
    assert abs(state.h[0]) <= 1e-8 and abs(state.c[0]) <= 1e-8

    state = lstm.cell_forward(
        cell, np.array([1.0]), lstm.CellState(h=np.zeros(1), c=np.ones(1))
    )
    assert abs(state.c[0] - 0.5) <= 1e-8
    assert abs(state.h[0] - 0.231059) <= 1e-6
    assert abs(state.h[0] - 0.5 * np.tanh(0.5)) <= 1e-8

    saturated = dict(zeros)
    saturated["b_f"] = np.array([20.0])
    cell = lstm.CellParams(**saturated)
    state = lstm.cell_forward(
        cell, np.array([0.0]), lstm.CellState(h=np.zeros(1), c=np.array([0.7]))
    )
    assert abs(state.c[0] - 0.7) <= 1e-8
    _passed(2, "zero, hand-computed, and saturated-forget cell examples at 1e-8")


def test_criterion_3_oracle_linear_limit_and_bound(default_pair):
    """alpha=1 is exactly k*x; |z| obeys its closed-form bound, cross-checked."""
    disp, _ = default_pair
    force = oracle.simulate(oracle.BoucWenParams(k=2.0, alpha=1.0), disp)
    np.testing.assert_allclose(force.values, 2.0 * disp.values, rtol=1e-12)

    protocol = oracle.LoadingProtocol(
        delta_y=1.0, amplitude_factors=(2.0, 6.0, 10.0),
        cycles_per_amplitude=1, points_per_cycle=200,
    )
    ramp = oracle.generate_protocol(protocol)
    params = oracle.BoucWenParams(
        k=2.0, alpha=0.1, A0=1.0, beta=0.5, gamma=0.5, n=1.0,
        delta_nu=0.0, delta_eta=0.0, asym=1.0, substeps=16,
    )
    trace = oracle.simulate_trace(params, ramp)
    reference = oracle.simulate_trace(replace(params, substeps=1600), ramp)
    bound = (params.A0 / (params.beta + params.gamma)) ** (1.0 / params.n)
    assert np.abs(trace.z).max() <= bound == 1.0
    assert np.abs(reference.z).max() <= bound
    agreement = np.abs(trace.z - reference.z).max()
    assert agreement <= 1e-6
    _passed(3, f"linear limit exact; max |z| <= 1.0, 100x-substep agreement {agreement:.2e}")


def test_criterion_4_data_preparation_laws():
    """Window count, alignment, round trip, and split sizes under random N, L."""
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(4, 400))
        lookback = int(rng.integers(1, n + 1))
        x_vals = rng.normal(size=n)
        y_vals = rng.normal(size=n)
        x = oracle.Series(dt=0.01, values=x_vals, unit=oracle.DISPLACEMENT)
        y = oracle.Series(dt=0.01, values=y_vals, unit=oracle.FORCE)

        stats = NormStats(
            mean_x=float(rng.normal()), std_x=float(rng.uniform(0.5, 2.0)),
            mean_y=float(rng.normal()), std_y=float(rng.uniform(0.5, 2.0)),
        )
        windowed = dataset.window(x, y, stats, lookback)
        assert windowed.num_windows == n - lookback + 1

        recovered = dataset.denormalize(windowed.targets, stats)
        np.testing.assert_allclose(
            recovered, y_vals[lookback - 1 :], rtol=1e-12, atol=1e-12
        )

        normalized = (y_vals - stats.mean_y) / stats.std_y
        np.testing.assert_allclose(
            dataset.denormalize(normalized, stats), y_vals, rtol=1e-12, atol=1e-12
        )

        (tx, _), (sx, _) = dataset.split_half(x, y)
        assert len(tx) == (n + 1) // 2 and len(tx) + len(sx) == n

    big = oracle.Series(dt=0.01, values=np.arange(5201.0), unit=oracle.DISPLACEMENT)
    big_y = oracle.Series(dt=0.01, values=np.arange(5201.0), unit=oracle.FORCE)
    (tx, _), (sx, _) = dataset.split_half(big, big_y)
    assert (len(tx), len(sx)) == (2601, 2600)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(4, f"100 randomized N/L cases plus the 5201-sample split, {elapsed:.1f}s")


def test_criterion_5_end_to_end_learning(trained_model_3a):
    """The full 40x5 lookback-30 model reaches <= 20% test NRMSE in budget."""
    _, report, wall = trained_model_3a
    assert report.epochs_run <= 200
    assert wall <= 900.0, f"training took {wall:.0f}s"
    assert report.test_nrmse <= 20.0, f"test NRMSE {report.test_nrmse:.2f}%"
    _passed(
        5,
        f"test NRMSE {report.test_nrmse:.2f}% <= 20% "
        f"({report.epochs_run} epochs, {wall:.0f}s)",
    )


def test_criterion_6_extrapolated_strength_degradation(default_pair, trained_model_3a):
    """Predicted peak force at the largest amplitude sits below a mid-protocol peak."""
    disp, force = default_pair
    trained, _, _ = trained_model_3a
    lookback = trained.config.lookback
    windows = dataset.window(disp, force, trained.stats, lookback)
    preds = trained.predict(windows.inputs)

    def predicted_peak(cycle_lo: int, cycle_hi: int) -> float:
        start = max(cycle_lo * PPC - (lookback - 1), 0)
        stop = cycle_hi * PPC + 1 - (lookback - 1)
        return float(preds[start:stop].max())

    mid = predicted_peak(16, 18)      # 6*delta_y cycles, mid-protocol, test half
    largest = predicted_peak(24, 26)  # 10*delta_y cycles, the last level
    # sanity: the oracle itself degrades across these levels
    truth_mid = force.values[16 * PPC : 18 * PPC + 1].max()
    truth_largest = force.values[24 * PPC : 26 * PPC + 1].max()
    assert truth_largest < truth_mid
    assert largest < mid, f"predicted peaks: largest {largest:.3f} vs mid {mid:.3f}"
    _passed(
        6,
        f"predicted peak at 10*delta_y {largest:.3f} < mid-protocol {mid:.3f} "
        f"(truth: {truth_largest:.3f} < {truth_mid:.3f})",
    )


def test_criterion_7_sweep_integrity(tiny_csv, tmp_path):
    """Default grid emits the seven standard configs; same-seed runs byte-identical.

    The determinism contract is structural, so the sweep runs with a small
    epoch budget on a short dataset; the grid itself is the full default.
    """
    expected = [
        ("Model 1", 5, 5, 30), ("Model 2", 20, 5, 30), ("Model 3a", 40, 5, 30),
        ("Model 3b", 40, 10, 30), ("Model 3c", 40, 20, 30), ("Model 3d", 40, 5, 10),
        ("Model 3e", 40, 5, 40),
    ]
    cfg = TrainConfig(max_epochs=2, seed=11)
    first = sweep.run_sweep(tiny_csv, tmp_path / "first", sweep.DEFAULT_GRID, cfg)
    second = sweep.run_sweep(tiny_csv, tmp_path / "second", sweep.DEFAULT_GRID, cfg)

    assert [
        (e.config.name, e.config.neurons, e.config.hidden_layers, e.config.lookback)
        for e in first.entries
    ] == expected
    finished = [e for e in first.entries if not e.failed]
    assert finished, "every model diverged"
    best = min(finished, key=lambda e: e.report.test_nrmse)
    assert first.best_model == best.config.name
    assert first.to_json() == second.to_json()
    _passed(7, f"7 configs, best={first.best_model}, byte-identical re-run")


def test_criterion_8_overfit_probe(default_pair):
    """8 windows, 20 neurons, 1 layer, 2000 epochs memorize to < 1e-4 loss."""
    disp, force = default_pair
    (train_x, train_y), _ = dataset.split_half(disp, force)
    stats = dataset.fit_norm(train_x, train_y)
    full = dataset.window(train_x, train_y, stats, 30)
    picks = np.linspace(0, full.num_windows - 1, 8).astype(int)
    probe = WindowedDataset(
        inputs=full.inputs[picks].copy(),
        targets=full.targets[picks].copy(),
    )
    net = lstm.init_network(20, 1, 1, rng=np.random.default_rng(8))
    cfg = TrainConfig(max_epochs=2000, seed=8, early_stop_patience=2000)
    started = time.perf_counter()
    _, report = training.train(net, probe, cfg)
    elapsed = time.perf_counter() - started
    # descent sanity on the same probe
    assert report.losses[49] < report.losses[0]
    assert report.losses[-1] < 1e-4, f"final loss {report.losses[-1]:.3e}"
    assert elapsed < 60.0
    _passed(8, f"final loss {report.losses[-1]:.2e} after {report.epochs_run} epochs, {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("BRACELEARN_RUN_SLOW"),
    reason="long full-profile training; set BRACELEARN_RUN_SLOW=1 to run",
)
def test_full_profile_alternate_seed(default_pair):
    """Second full Model 3a run at another seed also clears the 20% bar."""
    disp, force = default_pair
    trained, report, _ = sweep.fit_model(disp, force, MODEL_3A, TrainConfig(seed=1))
    assert report.test_nrmse <= 20.0
