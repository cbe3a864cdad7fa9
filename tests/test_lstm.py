"""Cell equations, the stacked forward pass, and BPTT gradient exactness."""

import json
import math
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from bracelearn import lstm
from bracelearn.errors import ShapeError, ValidationError
from bracelearn.lstm import CellParams, CellState, NetworkParams
from conftest import package_environ


def scalar_cell(**overrides) -> CellParams:
    """1x1 cell with all blocks zero unless overridden."""
    blocks = {
        name: np.zeros((1, 1)) for name in
        ("Wx_i", "Wx_f", "Wx_o", "Wx_g", "Wh_i", "Wh_f", "Wh_o", "Wh_g")
    }
    blocks.update({name: np.zeros(1) for name in ("b_i", "b_f", "b_o", "b_g")})
    for key, value in overrides.items():
        blocks[key] = np.asarray(value, dtype=float).reshape(blocks[key].shape)
    return CellParams(**blocks)


def padded_forward_batch(net, windows) -> np.ndarray:
    """``forward_batch`` of ``windows`` zero-padded to a multiple of 8, first rows only.

    ``predict`` runs a short chunk that way, so that every product it
    computes is a multiple of 8 columns wide.
    """
    padded = np.concatenate([windows, np.zeros((-len(windows) % 8, *windows.shape[1:]))])
    return lstm.forward_batch(net, padded)[0][: len(windows)]


class TestCellForward:
    def test_all_zero(self):
        state = lstm.cell_forward(
            scalar_cell(), np.array([3.7]), CellState.zeros(1)
        )
        assert state.h[0] == 0.0
        assert state.c[0] == 0.0

    def test_scalar_hand_example(self):
        # weights zero, biases zero, x=1, h_prev=0, c_prev=1:
        # i=f=o=0.5, g=0, c=0.5, h=0.5*tanh(0.5)
        prev = CellState(h=np.zeros(1), c=np.ones(1))
        state = lstm.cell_forward(scalar_cell(), np.array([1.0]), prev)
        assert state.c[0] == pytest.approx(0.5, abs=1e-12)
        assert state.h[0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-12)
        assert state.h[0] == pytest.approx(0.231059, abs=1e-6)

    def test_saturated_forget_gate(self):
        prev = CellState(h=np.zeros(1), c=np.array([0.7]))
        state = lstm.cell_forward(scalar_cell(b_f=[20.0]), np.array([0.0]), prev)
        assert state.c[0] == pytest.approx(0.7, abs=1e-8)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            lstm.cell_forward(scalar_cell(), np.array([1.0, 2.0]), CellState.zeros(1))
        with pytest.raises(ShapeError):
            lstm.cell_forward(scalar_cell(), np.array([1.0]), CellState.zeros(2))

    def test_gate_ranges_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = lstm.init_network(6, 1, 1, rng=rng)
            cell = net.cells[0]
            x = rng.normal(size=1)
            h_prev = rng.uniform(-0.9, 0.9, size=6)
            c_prev = rng.normal(size=6)
            for wx, wh, b in (
                (cell.Wx_i, cell.Wh_i, cell.b_i),
                (cell.Wx_f, cell.Wh_f, cell.b_f),
                (cell.Wx_o, cell.Wh_o, cell.b_o),
            ):
                gate = 1 / (1 + np.exp(-(wx @ x + wh @ h_prev + b)))
                assert np.all((gate > 0) & (gate < 1))
            g = np.tanh(cell.Wx_g @ x + cell.Wh_g @ h_prev + cell.b_g)
            assert np.all((g > -1) & (g < 1))
            state = lstm.cell_forward(cell, x, CellState(h=h_prev, c=c_prev))
            assert np.all((state.h > -1) & (state.h < 1))

    def test_non_finite_state_raises(self):
        from bracelearn.errors import DivergenceError

        cell = scalar_cell(Wh_i=[[1.0]])
        bad_prev = CellState(h=np.array([np.inf]), c=np.zeros(1))
        with pytest.raises(DivergenceError):
            lstm.cell_forward(cell, np.array([0.0]), bad_prev)

    def test_empty_window_rejected(self):
        net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(44))
        with pytest.raises(ShapeError, match="at least one step"):
            lstm.predict(net, np.zeros((0, 1))[np.newaxis])

    def test_state_decay_geometric(self):
        # input weights zero, candidate path zero, forget gate at phi:
        # c_t = phi^t * c_0 verifies the long-term-state recurrence
        phi = 0.8
        cell = scalar_cell(b_f=[np.log(phi / (1 - phi))])
        state = CellState(h=np.zeros(1), c=np.array([1.0]))
        for step in range(1, 11):
            state = lstm.cell_forward(cell, np.array([0.0]), state)
            assert state.c[0] == pytest.approx(phi**step, rel=1e-12)


class TestForward:
    def test_all_zero_network(self):
        net = lstm.init_network(4, 2, 1, rng=np.random.default_rng(0))
        net.flat[...] = 0.0
        pred = lstm.predict(net, np.random.default_rng(1).normal(size=(7, 1))[np.newaxis])[0]
        assert pred == 0.0

    def test_single_step_matches_cell_forward(self):
        rng = np.random.default_rng(2)
        net = lstm.init_network(3, 1, 1, rng=rng)
        x = rng.normal(size=(1, 1))
        state = lstm.cell_forward(net.cells[0], x[0], CellState.zeros(3))
        expected = float(state.h @ net.W_out + net.b_out[0])
        pred = lstm.predict(net, x[np.newaxis])[0]
        assert pred == pytest.approx(expected, abs=1e-12)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(3)
        net = lstm.init_network(5, 1, 1, rng=rng)
        window = np.array([[0.3], [-1.2]])
        pred_fwd = lstm.predict(net, window[np.newaxis])[0]
        pred_rev = lstm.predict(net, window[::-1][np.newaxis])[0]
        assert pred_fwd != pred_rev

    def test_determinism(self):
        rng = np.random.default_rng(4)
        net = lstm.init_network(8, 2, 1, rng=rng)
        window = rng.normal(size=(12, 1))
        first = lstm.predict(net, window[np.newaxis])[0]
        second = lstm.predict(net, window[np.newaxis])[0]
        assert first == second

    def test_layer_stack_composition(self):
        # running the two cells by hand, feeding layer 0's h sequence into
        # layer 1, must match the stacked forward (up to summation order)
        rng = np.random.default_rng(6)
        net = lstm.init_network(4, 2, 1, rng=rng)
        window = rng.normal(size=(6, 1))
        state0 = CellState.zeros(4)
        state1 = CellState.zeros(4)
        for t in range(6):
            state0 = lstm.cell_forward(net.cells[0], window[t], state0)
            state1 = lstm.cell_forward(net.cells[1], state0.h, state1)
        expected = float(state1.h @ net.W_out + net.b_out[0])
        pred = lstm.predict(net, window[np.newaxis])[0]
        assert pred == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("neurons, layers", [(1, 1), (1, 4), (5, 5), (40, 20)])
    def test_parameter_count_is_the_flat_size(self, neurons, layers):
        net = lstm.init_network(neurons, layers, rng=np.random.default_rng(7))
        assert lstm.parameter_count(neurons, layers) == net.flat.size

    def test_input_dim_mismatch(self):
        net = lstm.init_network(4, 1, 1, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            lstm.predict(net, np.zeros((5, 2))[np.newaxis])

    def test_predict_matches_forward(self, monkeypatch):
        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 4)
        rng = np.random.default_rng(7)
        net = lstm.init_network(4, 2, 1, rng=rng)
        windows = rng.normal(size=(9, 5, 1))
        preds = lstm.predict(net, windows)
        for w in range(9):
            single = lstm.forward_batch(net, windows[w][np.newaxis])[0][0]
            assert preds[w] == pytest.approx(single, abs=1e-12)

    def test_predict_chunks_equal_forward_batch(self, monkeypatch):
        # the tapeless pass runs the same arithmetic as the taped one, on any
        # number of workers; the last of the three chunks is short, and runs
        # zero-padded to a multiple of 8 windows
        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 24)
        rng = np.random.default_rng(21)
        net = lstm.init_network(5, 3, 1, rng=rng)
        windows = rng.normal(size=(50, 7, 1))
        expected = np.concatenate(
            [padded_forward_batch(net, windows[s : s + 24]) for s in range(0, 50, 24)]
        )
        for workers in (1, 2, 3):
            monkeypatch.setattr(lstm, "_cores", lambda: workers)
            np.testing.assert_array_equal(lstm.predict(net, windows), expected)

    def test_predict_memory_is_one_layer(self, monkeypatch):
        # a few rows per layer of one chunk per worker: the tapeless pass keeps
        # no sequence, so a worker's peak does not grow with the lookback
        import tracemalloc

        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 64)
        rng = np.random.default_rng(22)
        net = lstm.init_network(8, 4, 1, rng=rng)
        chunk = 64
        for workers in (1, 2):
            monkeypatch.setattr(lstm, "_cores", lambda: workers)
            lstm.predict(net, rng.normal(size=(3 * chunk, 5, 1)))  # the pool's imports
            peaks = []
            for steps in (10, 40):
                windows = rng.normal(size=(3 * chunk, steps, 1))
                gate_bytes = steps * chunk * 4 * net.hidden_size * 8  # one (T, 4H, B) buffer
                tracemalloc.start()
                try:
                    lstm.predict(net, windows)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < gate_bytes * workers, (workers, steps)
                peaks.append(peak)
            assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], (workers, peaks)


class TestPredictThreads:
    """``predict`` spreads its chunks over worker threads that end with the call."""

    @pytest.fixture()
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 4)
        monkeypatch.setattr(lstm, "_cores", lambda: 2)

    def test_workers_keep_the_callers_errstate(self, two_workers):
        net = lstm.init_network(3, 2, 1, rng=np.random.default_rng(30))
        net.cells[0].wx[...] = 10.0
        # only the second chunk, run by worker 1, overflows
        windows = np.concatenate([np.zeros((4, 3, 1)), np.full((4, 3, 1), 1e308)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lstm.predict(net, windows)
            assert any("overflow" in str(w.message) for w in caught)
            caught.clear()
            with np.errstate(over="ignore"):
                preds = lstm.predict(net, windows)
        assert caught == []
        assert np.isfinite(preds).all()

    def test_worker_exception_reaches_caller_after_every_join(self, two_workers, monkeypatch):
        real_run, done = lstm._run, []

        def failing_run(net, x, buffers):
            if x[0, 0, 0] == 4.0:  # the second chunk: worker 1's first
                time.sleep(0.1)  # fails after the caller has run its own chunks
                raise KeyError("worker 1")
            done.append(x[0, 0, 0])
            return real_run(net, x, buffers)

        monkeypatch.setattr(lstm, "_run", failing_run)
        net = lstm.init_network(3, 1, 1, rng=np.random.default_rng(31))
        windows = np.repeat(np.arange(16.0), 2).reshape(16, 2, 1)
        before = set(threading.enumerate())
        with pytest.raises(KeyError, match="worker 1"):
            lstm.predict(net, windows)
        assert done == [0.0, 8.0]  # worker 0 ran chunks 0 and 2 to the end
        assert set(threading.enumerate()) <= before

    def test_many_workers_with_fast_switching_match_one(self, monkeypatch):
        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 2)
        rng = np.random.default_rng(33)
        net = lstm.init_network(3, 2, 1, rng=rng)
        windows = rng.normal(size=(63, 4, 1))
        monkeypatch.setattr(lstm, "_cores", lambda: 1)
        expected = lstm.predict(net, windows)
        monkeypatch.setattr(lstm, "_cores", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            np.testing.assert_array_equal(lstm.predict(net, windows), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_buffers_are_allocated_up_front(self, monkeypatch):
        # every buffer a worker uses is allocated on the calling thread, for
        # a short last chunk too, whatever the layer widths and the input width
        real_take, callers, allocators = lstm._take, set(), []

        def recording_take(buffers, key, shape):
            before = buffers.get(key)
            view = real_take(buffers, key, shape)
            callers.add(threading.get_ident())
            if buffers[key] is not before:
                allocators.append(threading.get_ident())
            return view

        monkeypatch.setattr(lstm, "_take", recording_take)
        monkeypatch.setattr(lstm, "_PREDICT_CHUNK", 4)
        rng = np.random.default_rng(34)
        wide = lstm.init_network(5, 1, 6, rng=rng).cells[0]
        narrow = lstm.init_network(3, 1, 5, rng=rng).cells[0]
        # the narrow first layer's gates are grown by the wide second layer's
        narrow_in = lstm.init_network(3, 1, 6, rng=rng).cells[0]
        wide_in = lstm.init_network(5, 1, 3, rng=rng).cells[0]
        for net in (
            lstm.init_network(4, 3, 6, rng=rng),
            NetworkParams(cells=[wide, narrow], W_out=np.ones(3), b_out=np.zeros(1)),
            NetworkParams(cells=[narrow_in, wide_in], W_out=np.ones(5), b_out=np.zeros(1)),
        ):
            windows = rng.normal(size=(4 * 5 + 2, 7, 6))
            for workers in (2, 3):
                monkeypatch.setattr(lstm, "_cores", lambda: workers)
                callers.clear()
                allocators.clear()
                lstm.predict(net, windows)
                assert len(callers) > 1  # the pool ran chunks
                assert set(allocators) <= {threading.get_ident()}

    def test_one_chunk_starts_no_thread(self, two_workers, monkeypatch):
        def refuse(thread):
            raise AssertionError("predict started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = np.random.default_rng(32)
        net = lstm.init_network(3, 2, 1, rng=rng)
        assert lstm.predict(net, rng.normal(size=(4, 5, 1))).shape == (4,)
        assert lstm.predict(net, np.zeros((0, 5, 1))).shape == (0,)
        # grad_check predicts one window per parameter
        assert lstm.grad_check(net, rng.normal(size=(5, 1)), 0.3) < 1e-5


SLICE_SCRIPT = """
import hashlib, json
import numpy as np
from bracelearn import lstm
from bracelearn.lstm import NetworkParams

rng = np.random.default_rng(40)
record = rng.normal(size=1009)
windows = np.lib.stride_tricks.sliding_window_view(record, 10)[:, :, None]  # 1000 windows
mixed = [lstm.init_network(h, 1, i, rng=rng).cells[0] for h, i in ((12, 1), (7, 12), (20, 7))]
nets = {
    "40x2": lstm.init_network(40, 2, 1, rng=rng),
    "5x4": lstm.init_network(5, 4, 1, rng=rng),
    "12-7-20": NetworkParams(cells=mixed, W_out=rng.normal(size=20), b_out=np.zeros(1)),
}
result = {"slices": 0, "windows": 0, "slices_differ": 0, "windows_differ": 0, "full": {}}
for name, net in nets.items():
    for workers in (1, 2, 3):
        lstm._cores = lambda: workers
        full = lstm.predict(net, windows)
        result["full"][f"{name}/{workers}"] = hashlib.sha256(full.tobytes()).hexdigest()
        for _ in range(20):
            a = int(rng.integers(0, 999))
            b = int(rng.integers(a + 1, min(a + 600, 1000) + 1))
            result["slices"] += 1
            part = lstm.predict(net, windows[a:b])
            result["slices_differ"] += full[a:b].tobytes() != part.tobytes()
        for w in rng.choice(1000, size=8, replace=False):
            result["windows"] += 1
            part = lstm.predict(net, windows[w : w + 1])
            result["windows_differ"] += full[w : w + 1].tobytes() != part.tobytes()
print(json.dumps(result))
"""


def test_a_window_predicts_the_same_bits_wherever_it_sits():
    # random slices and single windows of a 1000-window record, predicted
    # alone, give the full record's bits: three shapes (one of mixed widths),
    # 1, 2 and 3 workers, at one and at two OpenBLAS threads
    results = []
    for threads in ("1", "2"):
        env = {**package_environ(), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", SLICE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout))
    for result in results:
        assert (result["slices"], result["windows"]) == (180, 72)
        assert (result["slices_differ"], result["windows_differ"]) == (0, 0), result
        assert len(set(result["full"].values())) == 3  # one prediction per shape
    assert results[0]["full"] == results[1]["full"]


BACKWARD_PIN_SCRIPT = """
import hashlib
import numpy as np
from bracelearn import lstm
from bracelearn.lstm import NetworkParams

rng = np.random.default_rng(41)
mixed = [lstm.init_network(h, 1, i, rng=rng).cells[0] for h, i in ((12, 1), (7, 12), (20, 7))]
nets = [
    lstm.init_network(40, 5, 1, rng=rng),
    lstm.init_network(5, 3, 2, rng=rng),
    NetworkParams(cells=mixed, W_out=rng.normal(size=20), b_out=np.zeros(1)),
]
digest = hashlib.sha256()
for net in nets:
    tape = None
    for batch in (64, 17, 64):
        _, tape = lstm.forward_batch(net, rng.normal(size=(batch, 30, net.input_dim)), tape)
        digest.update(lstm.backward_batch(net, tape, rng.normal(size=batch)).flat.tobytes())
print(digest.hexdigest())
"""
BACKWARD_SHA256 = "adc93dce7c01a725c8dbb5e3c58a8185e5916fd5c635bd7b9beb4b1416622de1"


class TestBackward:
    def test_zero_seed_gives_zero_gradients(self):
        rng = np.random.default_rng(8)
        net = lstm.init_network(4, 2, 1, rng=rng)
        _, tape = lstm.forward_batch(net, rng.normal(size=(5, 1))[np.newaxis])
        grads = lstm.backward_batch(net, tape, np.array([0.0]))
        assert np.all(grads.flat == 0.0)

    def test_linear_head_gradients(self):
        rng = np.random.default_rng(9)
        net = lstm.init_network(4, 1, 1, rng=rng)
        _, tape = lstm.forward_batch(net, rng.normal(size=(5, 1))[np.newaxis])
        grads = lstm.backward_batch(net, tape, np.array([2.5]))
        assert grads.b_out[0] == 2.5
        np.testing.assert_allclose(grads.W_out, 2.5 * tape.layers[-1].h[-1][:, 0], rtol=1e-15)

    def test_mismatched_tape_rejected(self):
        rng = np.random.default_rng(10)
        net_a = lstm.init_network(4, 1, 1, rng=rng)
        net_b = lstm.init_network(4, 1, 1, rng=rng)
        _, tape = lstm.forward_batch(net_a, rng.normal(size=(5, 1))[np.newaxis])
        with pytest.raises(ValidationError, match="tape"):
            lstm.backward_batch(net_b, tape, np.array([1.0]))

    def test_refilled_tape_matches_fresh_calls(self):
        # a tape refilled at batch sizes 7, 3 and 7 gives a fresh tape's bits
        rng = np.random.default_rng(11)
        net = lstm.init_network(5, 3, 1, rng=rng)
        _, tape = lstm.forward_batch(net, rng.normal(size=(7, 6, 1)))
        first_gates = tape.layers[1].gates
        for batch in (7, 3, 7):
            windows = rng.normal(size=(batch, 6, 1))
            seeds = rng.normal(size=batch)
            preds, refilled = lstm.forward_batch(net, windows, tape)
            assert refilled is tape
            assert np.shares_memory(tape.layers[1].gates, first_gates)  # no new buffer
            grads = lstm.backward_batch(net, tape, seeds).flat.copy()
            fresh_preds, fresh = lstm.forward_batch(net, windows)
            np.testing.assert_array_equal(preds, fresh_preds)
            np.testing.assert_array_equal(grads, lstm.backward_batch(net, fresh, seeds).flat)

    def test_refill_with_other_network_rejected(self):
        rng = np.random.default_rng(13)
        net_a = lstm.init_network(4, 1, 1, rng=rng)
        net_b = lstm.init_network(4, 1, 1, rng=rng)
        windows = rng.normal(size=(2, 5, 1))
        _, tape = lstm.forward_batch(net_a, windows)
        with pytest.raises(ValidationError, match="tape"):
            lstm.forward_batch(net_b, windows, tape)

    def test_gradients_are_pinned(self):
        # the SHA-256 of the gradients of three shapes, one of mixed widths,
        # at three batch sizes on one refilled tape, recorded once: any
        # reordering of BPTT's arithmetic that changes a bit fails, at one
        # and at two OpenBLAS threads
        for threads in ("1", "2"):
            env = {**package_environ(), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", BACKWARD_PIN_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == BACKWARD_SHA256, threads

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        net = lstm.init_network(4, 2, 1, rng=rng)
        window = rng.normal(size=(5, 1))
        assert lstm.grad_check(net, window, float(rng.normal())) <= 1e-5


class TestGradCheck:
    def test_passes_on_healthy_net(self):
        rng = np.random.default_rng(13)
        net = lstm.init_network(3, 2, 1, rng=rng)
        err = lstm.grad_check(net, rng.normal(size=(4, 1)), 0.7)
        assert err <= 1e-5

    @pytest.mark.usefixtures("corrupt_backward")
    def test_corrupted_gradients_detected(self):
        rng = np.random.default_rng(14)
        net = lstm.init_network(3, 2, 1, rng=rng)
        err = lstm.grad_check(net, rng.normal(size=(4, 1)), 0.7)
        assert err > 1e-2

    def test_tiny_parameter_scale(self):
        # guarded denominator keeps the check meaningful near zero scale
        net = lstm.init_network(3, 2, 1, rng=np.random.default_rng(15))
        scale_rng = np.random.default_rng(16)
        net.flat[...] = scale_rng.normal(size=net.flat.shape) * 1e-8
        err = lstm.grad_check(net, np.random.default_rng(17).normal(size=(4, 1)), 0.0)
        assert err <= 1e-5

    @pytest.mark.parametrize("entries", [slice(None), -1], ids=["all", "last"])
    def test_nan_analytic_gradient_fails(self, monkeypatch, entries):
        real_backward = lstm.backward_batch

        def nan_backward(net, tape, d_preds):
            grads = real_backward(net, tape, d_preds)
            grads.flat[entries] = np.nan
            return grads

        monkeypatch.setattr(lstm, "backward_batch", nan_backward)
        rng = np.random.default_rng(18)
        net = lstm.init_network(3, 2, 1, rng=rng)
        assert lstm.grad_check(net, rng.normal(size=(4, 1)), 0.7) == math.inf

    def test_nan_numeric_gradient_fails(self, monkeypatch):
        monkeypatch.setattr(lstm, "predict", lambda net, windows: np.array([math.nan]))
        rng = np.random.default_rng(19)
        net = lstm.init_network(3, 2, 1, rng=rng)
        assert lstm.grad_check(net, rng.normal(size=(4, 1)), 0.7) == math.inf


class TestEngineShapes:
    """Hidden size, batch, lookback and input size all differ, so a kernel
    that swapped two of these axes would fail rather than broadcast. The
    second case widens and then narrows the stack, so each upper layer's
    input width differs from its own."""

    BATCH, STEPS, INPUT = 7, 4, 2

    @pytest.fixture(params=["5x3", "3-8-5"])
    def case(self, request):
        # central differences carry about 1e-11 absolute round-off here, so
        # seeds whose smallest gradients near 1e-8 read above 1e-5 relative
        # are no test of the engine; these stay clear of that floor
        if request.param == "5x3":
            rng = np.random.default_rng(25)
            net = lstm.init_network(5, 3, self.INPUT, rng=rng)
        else:
            rng = np.random.default_rng(31)
            widths = ((3, self.INPUT), (8, 3), (5, 8))
            nets = [lstm.init_network(h, 1, i, rng=rng) for h, i in widths]
            net = NetworkParams(cells=[n.cells[0] for n in nets], W_out=nets[-1].W_out,
                                b_out=np.zeros(1))
        windows = rng.normal(size=(self.BATCH, self.STEPS, self.INPUT))
        return net, windows, rng

    def test_predict_forward_batch_and_cell_forward_agree(self, case):
        net, windows, _ = case
        batched, _ = lstm.forward_batch(net, windows)
        np.testing.assert_array_equal(lstm.predict(net, windows), padded_forward_batch(net, windows))
        for w, window in enumerate(windows):
            seq = list(window)
            for cell in net.cells:
                state = CellState.zeros(cell.hidden_size)
                out = []
                for x_t in seq:
                    state = lstm.cell_forward(cell, x_t, state)
                    out.append(state.h)
                seq = out
            expected = float(seq[-1] @ net.W_out + net.b_out[0])
            assert batched[w] == pytest.approx(expected, abs=1e-12)

    def test_batch_gradients_pass_grad_check_and_sum_over_windows(self, case):
        net, windows, rng = case
        assert lstm.grad_check(net, windows[0], float(rng.normal())) <= 1e-5
        seeds = rng.normal(size=self.BATCH)
        _, tape = lstm.forward_batch(net, windows)
        batched = lstm.backward_batch(net, tape, seeds)
        summed = np.zeros_like(net.flat)
        for window, seed in zip(windows, seeds):
            _, single = lstm.forward_batch(net, window[np.newaxis])
            summed += lstm.backward_batch(net, single, np.array([seed])).flat
        np.testing.assert_allclose(batched.flat, summed, rtol=1e-12, atol=1e-14)


class TestNetworkParams:
    def test_dimension_chain_enforced(self):
        rng = np.random.default_rng(18)
        a = lstm.init_network(4, 1, 1, rng=rng)
        b = lstm.init_network(5, 1, 4, rng=rng)
        NetworkParams(cells=[a.cells[0], b.cells[0]], W_out=np.zeros(5), b_out=np.zeros(1))
        with pytest.raises(ShapeError):
            NetworkParams(
                cells=[b.cells[0], a.cells[0]], W_out=np.zeros(4), b_out=np.zeros(1)
            )

    def test_rejects_non_finite(self):
        import dataclasses

        cell = scalar_cell()
        cell_blocks = {f.name: getattr(cell, f.name) for f in dataclasses.fields(cell)}
        cell_blocks["Wx_i"] = np.array([[np.inf]])
        with pytest.raises(ValidationError, match="finite"):
            CellParams(**cell_blocks)

    def test_parameter_count_closed_form(self):
        # 4*(n*d + n^2 + n) for the first layer, 4*(2n^2 + n) per deeper
        # layer, n + 1 for the head; asserted for the whole built-in grid
        from bracelearn.sweep import DEFAULT_GRID

        for config in DEFAULT_GRID:
            neurons, layers = config.neurons, config.hidden_layers
            net = lstm.init_network(neurons, layers, 1, rng=np.random.default_rng(1))
            expected = 4 * (neurons * 1 + neurons**2 + neurons)
            expected += (layers - 1) * 4 * (2 * neurons**2 + neurons)
            expected += neurons + 1
            assert net.flat.size == expected

    def test_blocks_are_views_of_flat(self):
        import copy
        import dataclasses
        import pickle

        rng = np.random.default_rng(20)
        net = lstm.init_network(4, 2, 1, rng=rng)
        _, tape = lstm.forward_batch(net, rng.normal(size=(3, 5, 1)))
        grads = lstm.backward_batch(net, tape, rng.normal(size=3))
        clones = (copy.deepcopy(net), pickle.loads(pickle.dumps(net)))
        for clone in clones:
            np.testing.assert_array_equal(clone.flat, net.flat)
        for params in (net, grads, *clones):
            blocks = [params.W_out, params.b_out]
            for cell in params.cells:
                blocks += [cell.w] + [getattr(cell, f.name) for f in dataclasses.fields(cell)]
            for block in blocks:
                assert np.shares_memory(block, params.flat)
        assert not np.shares_memory(grads.flat, net.flat)
        # a network built from another's cells copies them, re-pointing neither
        before = net.flat.copy()
        other = NetworkParams(cells=net.cells, W_out=net.W_out, b_out=net.b_out)
        other.flat[:] = 0.0
        np.testing.assert_array_equal(net.flat, before)
        assert np.shares_memory(net.cells[0].Wh_f, net.flat)

    def test_forget_bias_initialized_high(self):
        net = lstm.init_network(4, 2, 1, rng=np.random.default_rng(19))
        for cell in net.cells:
            np.testing.assert_array_equal(cell.b_f, np.ones(4))
            np.testing.assert_array_equal(cell.b_i, np.zeros(4))
