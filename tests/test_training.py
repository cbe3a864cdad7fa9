"""Loss/metric definitions and the Adam training loop."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelearn import dataset, lstm, training
from bracelearn.dataset import WindowedDataset
from bracelearn.errors import DegenerateDataError, DivergenceError, ValidationError
from bracelearn.training import TrainConfig, clip_global_norm, nrmse


def toy_dataset(num_windows=16, lookback=6, seed=0) -> WindowedDataset:
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        inputs=rng.normal(size=(num_windows, lookback, 1)),
        targets=rng.normal(size=num_windows),
    )


class TestNrmse:
    def test_identical(self):
        assert nrmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        assert nrmse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(50.0)

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateDataError):
            nrmse([1.0, 2.0], [3.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_scale_and_shift_invariance(self, scale, shift):
        rng = np.random.default_rng(21)
        target = rng.normal(size=40)
        pred = target + rng.normal(scale=0.3, size=40)
        base = nrmse(pred, target)
        assert nrmse(scale * pred, scale * target) == pytest.approx(base, rel=1e-9)
        assert nrmse(pred + shift, target + shift) == pytest.approx(base, rel=1e-9)


class TestClipping:
    def test_norm_clipped_exactly(self):
        grad = np.random.default_rng(22).normal(size=23)
        pre = np.sqrt(float((grad**2).sum()))
        assert pre > 1.0
        reported = clip_global_norm(grad, 1.0)
        post = np.sqrt(float((grad**2).sum()))
        assert reported == pytest.approx(pre, rel=1e-15)
        assert post == pytest.approx(1.0, abs=1e-12)

    def test_small_gradients_untouched(self):
        grad = np.full(3, 1e-3)
        clip_global_norm(grad, 1.0)
        np.testing.assert_array_equal(grad, np.full(3, 1e-3))

    def test_zero_disables(self):
        grad = np.full(3, 100.0)
        clip_global_norm(grad, 0.0)
        np.testing.assert_array_equal(grad, np.full(3, 100.0))


class TestAdam:
    def test_first_step_size_bounded(self):
        cfg = TrainConfig(learning_rate=0.01, clip_norm=0.0)
        rng = np.random.default_rng(23)
        net = lstm.init_network(4, 1, 1, rng=rng)
        before = net.flat.copy()
        grad = rng.normal(size=net.flat.shape) * 10
        state = training._AdamState(net.flat)
        state.step(net.flat, grad, cfg)
        bound = cfg.learning_rate / (1 - training.ADAM_BETA1) * (1 + 1e-6)
        assert np.abs(net.flat - before).max() <= bound


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        data = toy_dataset()
        net = lstm.init_network(5, 1, 1, rng=np.random.default_rng(24))
        before = net.flat.copy()
        cfg = TrainConfig(learning_rate=0.0, max_epochs=5, batch_size=4)
        _, report = training.train(net, data, cfg)
        np.testing.assert_array_equal(net.flat, before)
        np.testing.assert_allclose(report.losses, report.losses[0], rtol=1e-12)

    def test_seed_determinism(self):
        data = toy_dataset()
        cfg = TrainConfig(max_epochs=6, batch_size=4, seed=3)
        net1 = lstm.init_network(5, 1, 1, rng=np.random.default_rng(30))
        _, report1 = training.train(net1, data, cfg)
        net2 = lstm.init_network(5, 1, 1, rng=np.random.default_rng(30))
        _, report2 = training.train(net2, data, cfg)
        assert report1.losses == report2.losses
        np.testing.assert_array_equal(net1.flat, net2.flat)

    def test_different_seeds_differ(self):
        data = toy_dataset()
        results = []
        for seed in (0, 1):
            cfg = TrainConfig(max_epochs=6, batch_size=4, seed=seed)
            net = lstm.init_network(5, 1, 1, rng=np.random.default_rng(30))
            _, report = training.train(net, data, cfg)
            results.append(report.losses)
        assert results[0] != results[1]

    def test_descent_on_overfit_probe(self, default_data):
        data = overfit_probe_dataset(default_data)
        net = lstm.init_network(20, 1, 1, rng=np.random.default_rng(31))
        cfg = TrainConfig(max_epochs=50, batch_size=64, seed=31, early_stop_patience=50)
        _, report = training.train(net, data, cfg)
        assert report.losses[49] < report.losses[0]

    def test_divergence_error_carries_epoch(self):
        data = WindowedDataset(
            inputs=np.zeros((4, 3, 1)),
            targets=np.full(4, 1e200),  # squared residual overflows immediately
        )
        net = lstm.init_network(4, 1, 1, rng=np.random.default_rng(32))
        with pytest.raises(DivergenceError) as excinfo:
            training.train(net, data, TrainConfig(max_epochs=3))
        assert excinfo.value.epoch == 0

    def test_early_stopping(self):
        # zero learning rate never improves, so patience ends the run early
        data = toy_dataset()
        cfg = TrainConfig(learning_rate=0.0, max_epochs=50, early_stop_patience=4)
        net = lstm.init_network(4, 1, 1, rng=np.random.default_rng(33))
        _, report = training.train(net, data, cfg)
        assert report.epochs_run == 5  # first epoch sets best, then 4 stale

    def test_holds_one_tape_at_a_time(self):
        # every batch refills one tape, so the peak stays near one tape's
        # bytes; a fresh tape per batch would briefly hold two
        import tracemalloc

        hid, layers, steps, batch = 8, 4, 30, 64
        data = toy_dataset(num_windows=197, lookback=steps, seed=34)  # last batch of 5
        net = lstm.init_network(hid, layers, 1, rng=np.random.default_rng(34))
        per_layer = steps * 4 * hid + (steps + 1) * hid * 2 + steps * hid  # gates, c, h, tanh_c
        tape_bytes = 8 * batch * (steps * 1 + layers * per_layer)  # plus layer 0's inputs
        tracemalloc.start()
        try:
            training.train(net, data, TrainConfig(batch_size=batch, max_epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * tape_bytes


class TestPinnedTraining:
    """A small seeded run's losses and final weights, recorded once.

    Guards the bit-exact arithmetic of the training step (forward, BPTT,
    global-norm clip and Adam) against any change that reorders it. The
    clip ceiling is low enough that most of the 12 batches are clipped.
    """

    LOSSES = [1.0660688405668841, 0.9434957256837944, 0.8801335963907134]
    SHA256 = "284c793fddf72c4c341dc3c8c730c2e70349100e1986c3ac239f9c76eb787c18"

    def test_losses_and_weights_are_pinned(self):
        net = lstm.init_network(4, 2, 1, rng=np.random.default_rng(34))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_size=4, clip_norm=0.5, seed=35)
        _, report = training.train(net, toy_dataset(), cfg)
        assert report.losses == self.LOSSES
        assert hashlib.sha256(net.flat.tobytes()).hexdigest() == self.SHA256


def overfit_probe_dataset(default_data, num_windows=8, lookback=30):
    """Evenly spaced windows from the training half of the default run."""
    disp, force = default_data
    (tx, ty), _ = dataset.split_half(disp, force)
    stats = dataset.fit_norm(tx, ty)
    full = dataset.window(tx, ty, stats, lookback)
    picks = np.linspace(0, full.num_windows - 1, num_windows).astype(int)
    return WindowedDataset(
        inputs=full.inputs[picks].copy(),
        targets=full.targets[picks].copy(),
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=-1.0),
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(clip_norm=-0.1),
            dict(seed=-1),
            dict(early_stop_patience=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError) as excinfo:
            TrainConfig(**kwargs)
        assert excinfo.value.field == next(iter(kwargs))
