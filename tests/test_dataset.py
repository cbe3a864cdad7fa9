"""Split, normalization, and windowing laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelearn import dataset, oracle
from bracelearn.dataset import NormStats, WindowedDataset
from bracelearn.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ValidationError,
)
from conftest import IDENTITY_STATS


def _series(values, unit=oracle.DISPLACEMENT, dt=0.01):
    return oracle.Series(dt=dt, values=np.asarray(values, dtype=float), unit=unit)


def _pair(x_values, y_values):
    return _series(x_values), _series(y_values, unit=oracle.FORCE)


class TestSplitHalf:
    def test_even_length(self):
        x, y = _pair(np.arange(100.0), np.arange(100.0))
        (tx, ty), (sx, sy) = dataset.split_half(x, y)
        assert len(tx) == len(ty) == 50
        assert len(sx) == len(sy) == 50

    def test_odd_length_ceiling(self):
        x, y = _pair(np.arange(101.0), np.arange(101.0))
        (tx, _), (sx, _) = dataset.split_half(x, y)
        assert len(tx) == 51
        assert len(sx) == 50

    def test_default_dataset_sizes(self, default_data):
        disp, force = default_data
        (tx, _), (sx, _) = dataset.split_half(disp, force)
        assert len(tx) == 2601
        assert len(sx) == 2600

    def test_order_preserved(self):
        x, y = _pair(np.arange(10.0), np.arange(10.0) * 2)
        (tx, ty), (sx, sy) = dataset.split_half(x, y)
        np.testing.assert_array_equal(tx.values, np.arange(5.0))
        np.testing.assert_array_equal(sy.values, np.arange(5.0, 10.0) * 2)

    def test_length_mismatch(self):
        x = _series(np.arange(10.0))
        y = _series(np.arange(9.0), unit=oracle.FORCE)
        with pytest.raises(ValidationError, match="mismatch"):
            dataset.split_half(x, y)

    def test_too_short(self):
        x, y = _pair([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="4"):
            dataset.split_half(x, y)


class TestFitNorm:
    def test_two_point(self):
        x, y = _pair([0.0, 2.0], [0.0, 2.0])
        stats = dataset.fit_norm(x, y)
        assert stats.mean_x == 1.0
        assert stats.std_x == 1.0

    def test_hand_computed(self):
        x, y = _pair([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        stats = dataset.fit_norm(x, y)
        assert stats.mean_x == pytest.approx(2.5)
        assert stats.std_x == pytest.approx(np.sqrt(1.25))

    def test_constant_series_rejected(self):
        x, y = _pair([3.0, 3.0, 3.0], [0.0, 1.0, 2.0])
        with pytest.raises(DegenerateDataError):
            dataset.fit_norm(x, y)

    @pytest.mark.parametrize("unit", [oracle.DISPLACEMENT, oracle.FORCE])
    def test_overflowing_deviation_names_the_column(self, unit):
        # 1e200 squared is past the float range; no RuntimeWarning escapes
        values = {oracle.DISPLACEMENT: [0.0, 1.0, 2.0], oracle.FORCE: [0.0, 1.0, 2.0]}
        values[unit] = [0.0, 1e200, 2.0]
        with pytest.raises(DegenerateDataError, match=f"^{unit} column: ") as excinfo:
            dataset.fit_norm(*_pair(*values.values()))
        assert excinfo.value.field == unit

    def test_leakage_freedom(self, default_data):
        # stats from the training slice are bit-identical whether computed
        # through the split or on the slice alone
        disp, force = default_data
        (tx, ty), _ = dataset.split_half(disp, force)
        via_split = dataset.fit_norm(tx, ty)
        standalone = dataset.fit_norm(
            _series(disp.values[:2601].copy()),
            _series(force.values[:2601].copy(), unit=oracle.FORCE),
        )
        assert via_split == standalone


class TestWindow:
    def test_window_count(self):
        x, y = _pair(np.arange(100.0), np.arange(100.0))
        data = dataset.window(x, y, dataset.fit_norm(x, y), 30)
        assert data.num_windows == 71

    def test_single_window(self):
        x, y = _pair(np.arange(5.0), np.arange(5.0) * 3)
        stats = dataset.fit_norm(x, y)
        data = dataset.window(x, y, stats, 5)
        assert data.num_windows == 1
        assert data.targets[0] == pytest.approx((12.0 - stats.mean_y) / stats.std_y)

    def test_enumerated_example(self):
        x, y = _pair([0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 20.0, 30.0])
        data = dataset.window(x, y, IDENTITY_STATS, 2)
        np.testing.assert_array_equal(
            data.inputs[:, :, 0], [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]
        )
        np.testing.assert_array_equal(data.targets, [10.0, 20.0, 30.0])

    def test_insufficient_data(self):
        x, y = _pair(np.arange(10.0), np.arange(10.0))
        with pytest.raises(InsufficientDataError):
            dataset.window(x, y, IDENTITY_STATS, 11)

    @pytest.mark.parametrize(
        "stats, unit, std",
        [
            (NormStats(mean_x=0.0, std_x=5e-324, mean_y=0.0, std_y=1.0), "displacement", "std_x"),
            (NormStats(mean_x=0.0, std_x=1.0, mean_y=0.0, std_y=2.2e-309), "force", "std_y"),
            (NormStats(mean_x=0.0, std_x=1.0, mean_y=-1e308, std_y=0.5), "force", "std_y"),
        ],
        ids=["std_x", "std_y", "mean_y"],
    )
    def test_overflowing_normalization_rejected(self, stats, unit, std):
        x, y = _pair([0.0, 1.0, 2.0], [0.0, 10.0, 20.0])
        with pytest.raises(ValidationError, match=f"{unit} normalized by {std}") as excinfo:
            dataset.window(x, y, stats, 2)
        assert excinfo.value.field == std

    def test_alignment_exact_with_identity_stats(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=37)
        x, y = _pair(rng.normal(size=37), values)
        data = dataset.window(x, y, IDENTITY_STATS, 9)
        for w in range(data.num_windows):
            assert data.targets[w] == values[w + 8]


class TestWindowedDataset:
    def test_sizes_read_from_inputs_shape(self):
        data = WindowedDataset(inputs=np.zeros((4, 3, 2)), targets=np.zeros(4))
        assert (data.num_windows, data.lookback, data.input_dim) == (4, 3, 2)

    @pytest.mark.parametrize(
        "inputs, targets",
        [(np.zeros((4, 3)), np.zeros(4)), (np.zeros((4, 3, 1)), np.zeros(5))],
        ids=["2d-inputs", "targets-length"],
    )
    def test_inconsistent_arrays_rejected(self, inputs, targets):
        with pytest.raises(ValidationError, match=r"is not \(num_windows, lookback, input_dim"):
            WindowedDataset(inputs=inputs, targets=targets)

    @pytest.mark.parametrize(
        "shape, field",
        [((0, 3, 1), "num_windows"), ((2, 0, 1), "lookback"), ((2, 3, 0), "input_dim")],
        ids=["num_windows", "lookback", "input_dim"],
    )
    def test_empty_axis_names_its_size(self, shape, field):
        with pytest.raises(ValidationError) as excinfo:
            WindowedDataset(inputs=np.zeros(shape), targets=np.zeros(shape[0]))
        assert excinfo.value.field == field


class TestDenormalize:
    def test_round_trip(self):
        stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=5.0, std_y=2.0)
        values = np.array([-3.0, 0.0, 7.5])
        normalized = (values - stats.mean_y) / stats.std_y
        np.testing.assert_allclose(
            dataset.denormalize(normalized, stats), values, rtol=1e-12
        )

    def test_zero_maps_to_mean(self):
        stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=5.0, std_y=2.0)
        assert dataset.denormalize(np.array([0.0]), stats)[0] == 5.0

    def test_hand_computed(self):
        stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=5.0, std_y=2.0)
        assert dataset.denormalize(np.array([1.5]), stats)[0] == 8.0


# property tests over randomized sizes


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_window_count_law(n, data):
    lookback = data.draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(n * 1000 + lookback)
    x, y = _pair(rng.normal(size=n), rng.normal(size=n))
    windowed = dataset.window(x, y, IDENTITY_STATS, lookback)
    assert windowed.num_windows == n - lookback + 1
    assert windowed.inputs.shape == (n - lookback + 1, lookback, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=500))
def test_split_sizes_law(n):
    x, y = _pair(np.arange(float(n)), np.arange(float(n)))
    (tx, _), (sx, _) = dataset.split_half(x, y)
    assert len(tx) == (n + 1) // 2
    assert len(tx) + len(sx) == n
    assert len(tx) - len(sx) in (0, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
)
def test_normalize_round_trip(mean, std, values):
    stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=mean, std_y=std)
    raw = np.asarray(values)
    normalized = (raw - stats.mean_y) / stats.std_y
    back = dataset.denormalize(normalized, stats)
    np.testing.assert_allclose(back, raw, rtol=1e-12, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=120), st.data())
def test_alignment_law(n, data):
    lookback = data.draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(n * 31 + lookback)
    x_vals = rng.normal(size=n)
    y_vals = rng.normal(size=n)
    x, y = _pair(x_vals, y_vals)
    stats = NormStats(mean_x=0.0, std_x=1.0, mean_y=float(y_vals.mean()), std_y=1.7)
    windowed = dataset.window(x, y, stats, lookback)
    recovered = dataset.denormalize(windowed.targets, stats)
    np.testing.assert_allclose(recovered, y_vals[lookback - 1 :], rtol=1e-12, atol=1e-12)
