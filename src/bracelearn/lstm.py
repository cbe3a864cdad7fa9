"""Stacked LSTM regression network with exact backpropagation through time.

Everything is plain numpy in double precision. A network is a stack of
LSTM cells (one per hidden layer, all the same width) topped by a single
linear output unit that reads the top layer's hidden state at the final
step of the window. Windows are independent samples: both recurrent
states start at zero for every window.

Cell computation per step (sigma is the logistic function, * elementwise):

    i = sigma(Wx_i x + Wh_i h_prev + b_i)      input gate
    f = sigma(Wx_f x + Wh_f h_prev + b_f)      forget gate
    o = sigma(Wx_o x + Wh_o h_prev + b_o)      output gate
    g = tanh (Wx_g x + Wh_g h_prev + b_g)      candidate content
    c = f * c_prev + i * g                     long-term state
    h = o * tanh(c)                            short-term state
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

_GATE_ORDER = ("i", "f", "o", "g")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow for very negative inputs; the result (0.0) is still right
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class CellParams:
    """Per-gate weights of one LSTM cell.

    The gate fields follow the column-vector convention of the cell
    equations above: input weights (hidden_size, input_size), recurrent
    weights (hidden_size, hidden_size), biases (hidden_size,).

    Construction packs them into the operands the batched engine uses,
    gates ordered i, f, o, g along the last axis: ``wx`` (input_size, 4H),
    ``wh`` (H, 4H) and ``b`` (4H,), all C-contiguous. Each gate field then
    becomes a view of them (``Wx_i`` is ``wx[:, :H].T``).
    """

    Wx_i: np.ndarray
    Wx_f: np.ndarray
    Wx_o: np.ndarray
    Wx_g: np.ndarray
    Wh_i: np.ndarray
    Wh_f: np.ndarray
    Wh_o: np.ndarray
    Wh_g: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    def __post_init__(self):
        blocks = {f.name: getattr(self, f.name) for f in fields(self)}
        if blocks["Wx_i"].ndim != 2:
            raise ShapeError(f"Wx_i must be 2-D, got shape {blocks['Wx_i'].shape}")
        hidden, inp = blocks["Wx_i"].shape
        expected = {"Wx": (hidden, inp), "Wh": (hidden, hidden), "b": (hidden,)}
        for name, block in blocks.items():
            want = expected[name[:-2]]
            if block.shape != want:
                raise ShapeError(f"{name} has shape {block.shape} but Wx_i implies {want}")
        wx, wh, b = (
            np.concatenate([blocks[f"{kind}_{gate}"].T for gate in _GATE_ORDER], axis=-1)
            for kind in expected
        )
        if not all(np.isfinite(a).all() for a in (wx, wh, b)):
            raise ValidationError("cell parameters contain non-finite entries")
        self._point_at(wx, wh, b)

    def _point_at(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> None:
        """Make wx/wh/b the storage and every gate field a view of them."""
        self.wx, self.wh, self.b = wx, wh, b
        hid = wh.shape[0]
        for k, gate in enumerate(_GATE_ORDER):
            cols = slice(k * hid, (k + 1) * hid)
            setattr(self, f"Wx_{gate}", wx[:, cols].T)
            setattr(self, f"Wh_{gate}", wh[:, cols].T)
            setattr(self, f"b_{gate}", b[cols])

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[0]

    @property
    def input_size(self) -> int:
        return self.wx.shape[0]


@dataclass
class CellState:
    """Recurrent state of one cell: short-term h and long-term c."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int) -> "CellState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


@dataclass
class NetworkParams:
    """A stack of LSTM cells plus the linear output head.

    ``W_out`` has shape (hidden_size,) and ``b_out`` is a length-1 array
    holding the scalar output bias. Construction shallow-copies the cells
    (the caller's keep their own arrays) and packs every parameter into
    one float64 vector, ``flat``: each cell's ``wx``, ``wh`` and ``b`` in
    layer order, then ``W_out`` and ``b_out``. Every block, packed or
    per-gate, is a view of ``flat``, so one in-place update of ``flat``
    (an optimizer step) reaches them all.
    """

    cells: list[CellParams]
    W_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        if not self.cells:
            raise ValidationError("network needs at least one cell")
        for lower, upper in zip(self.cells, self.cells[1:]):
            if upper.input_size != lower.hidden_size:
                raise ShapeError(
                    f"layer input size {upper.input_size} does not match "
                    f"previous hidden size {lower.hidden_size}"
                )
        if self.W_out.shape != (self.cells[-1].hidden_size,):
            raise ShapeError(
                f"W_out must have shape {(self.cells[-1].hidden_size,)}, "
                f"got {self.W_out.shape}"
            )
        if self.b_out.shape != (1,):
            raise ShapeError(f"b_out must have shape (1,), got {self.b_out.shape}")
        self._point_at(np.concatenate([a.ravel() for a in self._blocks()], dtype=np.float64))
        if not np.isfinite(self.flat).all():
            raise ValidationError("network parameters contain non-finite entries")

    def _blocks(self) -> list[np.ndarray]:
        """Every packed block in ``flat`` order."""
        return [a for c in self.cells for a in (c.wx, c.wh, c.b)] + [self.W_out, self.b_out]

    def _point_at(self, flat: np.ndarray) -> None:
        """Copy the cells and make every block a view of its slice of ``flat``."""
        self.cells = [copy.copy(cell) for cell in self.cells]
        ends = np.cumsum([a.size for a in self._blocks()])
        views = [flat[e - a.size : e].reshape(a.shape) for a, e in zip(self._blocks(), ends)]
        for k, cell in enumerate(self.cells):
            cell._point_at(*views[3 * k : 3 * k + 3])
        self.W_out, self.b_out = views[-2:]
        self.flat = flat

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled network re-points its blocks at its own flat
        vars(self).update(state)
        self._point_at(self.flat)

    @property
    def input_dim(self) -> int:
        return self.cells[0].input_size

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    @property
    def num_layers(self) -> int:
        return len(self.cells)


def parameter_arrays(net: NetworkParams) -> list[np.ndarray]:
    """All parameters of the network, as the single block ``net.flat``."""
    return [net.flat]


def parameter_count(net: NetworkParams) -> int:
    return net.flat.size


def init_network(
    neurons: int,
    hidden_layers: int,
    input_dim: int = 1,
    *,
    rng: np.random.Generator,
) -> NetworkParams:
    """Build a freshly initialized network.

    Weights are drawn uniformly from +/- sqrt(6 / (fan_in + fan_out));
    all biases start at zero except the forget-gate bias, which starts at
    1.0 so early training does not erase the long-term state. The draw
    order (per cell: Wx_i, Wx_f, Wx_o, Wx_g, Wh_i..Wh_g, then W_out) is
    part of the reproducibility contract.
    """
    if neurons < 1 or hidden_layers < 1 or input_dim < 1:
        raise ValidationError("neurons, hidden_layers and input_dim must be >= 1")

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    cells = []
    in_size = input_dim
    for _ in range(hidden_layers):
        wx = [glorot(neurons, in_size) for _ in _GATE_ORDER]
        wh = [glorot(neurons, neurons) for _ in _GATE_ORDER]
        cells.append(
            CellParams(
                *wx, *wh,
                b_i=np.zeros(neurons),
                b_f=np.ones(neurons),
                b_o=np.zeros(neurons),
                b_g=np.zeros(neurons),
            )
        )
        in_size = neurons
    w_out = rng.uniform(
        -np.sqrt(6.0 / (neurons + 1)), np.sqrt(6.0 / (neurons + 1)), size=neurons
    )
    return NetworkParams(cells=cells, W_out=w_out, b_out=np.zeros(1))


def zeros_like_params(net: NetworkParams) -> NetworkParams:
    """A container with ``net``'s layout over a zeroed ``flat``."""
    zeros = NetworkParams.__new__(NetworkParams)
    zeros.__setstate__({**vars(net), "flat": np.zeros_like(net.flat)})
    return zeros


def cell_forward(params: CellParams, x_t: np.ndarray, prev: CellState) -> CellState:
    """Advance one cell by one time step (the per-gate reference for the engine)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_size,):
        raise ShapeError(f"x_t must have shape {(params.input_size,)}, got {x_t.shape}")
    hidden = params.hidden_size
    if prev.h.shape != (hidden,) or prev.c.shape != (hidden,):
        raise ShapeError(f"state vectors must have shape {(hidden,)}")

    # non-finite states raise NumericError instead of surfacing as warnings
    with np.errstate(invalid="ignore", over="ignore"):
        i = _sigmoid(params.Wx_i @ x_t + params.Wh_i @ prev.h + params.b_i)
        f = _sigmoid(params.Wx_f @ x_t + params.Wh_f @ prev.h + params.b_f)
        o = _sigmoid(params.Wx_o @ x_t + params.Wh_o @ prev.h + params.b_o)
        g = np.tanh(params.Wx_g @ x_t + params.Wh_g @ prev.h + params.b_g)
        c = f * prev.c + i * g
        h = o * np.tanh(c)
    if not (np.isfinite(h).all() and np.isfinite(c).all()):
        raise NumericError("cell state became non-finite")
    return CellState(h=h, c=c)


# --------------------------------------------------------------------------
# Batched forward/backward engine
# --------------------------------------------------------------------------


@dataclass
class _LayerTape:
    inputs: np.ndarray  # (B, T, in) what this layer consumed
    gates: np.ndarray   # (B, T, 4H) post-activation i, f, o, g
    c: np.ndarray       # (B, T, H)
    tanh_c: np.ndarray  # (B, T, H)
    h: np.ndarray       # (B, T, H)


@dataclass
class Tape:
    """Cached activations from one forward call, consumed by backward."""

    net: NetworkParams
    batch_shape: tuple[int, int, int]
    layers: list[_LayerTape]
    h_last: np.ndarray
    preds: np.ndarray


def forward_batch(net: NetworkParams, windows: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run a batch of windows through the stack; returns (predictions, tape)."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"windows must be (batch, lookback, input_dim), got {x.shape}")
    batch, steps, dim = x.shape
    if steps < 1:
        raise ShapeError("window must contain at least one step")
    if dim != net.input_dim:
        raise ShapeError(f"network expects input_dim {net.input_dim}, got {dim}")

    layers: list[_LayerTape] = []
    inp = x
    for cell in net.cells:
        hid = cell.hidden_size
        # input projection for every step at once; recurrence stays sequential
        ax = (inp.reshape(batch * steps, -1) @ cell.wx).reshape(batch, steps, 4 * hid)
        ax += cell.b
        gates = np.empty((batch, steps, 4 * hid))
        c_seq = np.empty((batch, steps, hid))
        tanh_c = np.empty((batch, steps, hid))
        h_seq = np.empty((batch, steps, hid))
        h_prev = np.zeros((batch, hid))
        c_prev = np.zeros((batch, hid))
        for t in range(steps):
            a = ax[:, t, :] + h_prev @ cell.wh
            ifo = _sigmoid(a[:, : 3 * hid])
            g = np.tanh(a[:, 3 * hid :])
            c_t = ifo[:, hid : 2 * hid] * c_prev + ifo[:, :hid] * g
            tc = np.tanh(c_t)
            h_t = ifo[:, 2 * hid : 3 * hid] * tc
            gates[:, t, : 3 * hid] = ifo
            gates[:, t, 3 * hid :] = g
            c_seq[:, t, :] = c_t
            tanh_c[:, t, :] = tc
            h_seq[:, t, :] = h_t
            h_prev = h_t
            c_prev = c_t
        layers.append(_LayerTape(inputs=inp, gates=gates, c=c_seq, tanh_c=tanh_c, h=h_seq))
        inp = h_seq

    h_last = inp[:, -1, :]
    preds = h_last @ net.W_out + net.b_out[0]
    tape = Tape(
        net=net,
        batch_shape=(batch, steps, dim),
        layers=layers,
        h_last=h_last,
        preds=preds,
    )
    return preds, tape


def backward_batch(
    net: NetworkParams, tape: Tape, d_preds: np.ndarray
) -> NetworkParams:
    """Accumulate gradients over the batch via BPTT.

    ``d_preds`` seeds the prediction of each window; the returned
    container holds the sum over the batch of each window's gradient
    (the caller scales the seed to get means).
    """
    if tape.net is not net or len(tape.layers) != len(net.cells):
        raise ValidationError("tape does not belong to this network")
    batch, steps, _ = tape.batch_shape
    d_preds = np.asarray(d_preds, dtype=np.float64)
    if d_preds.shape != (batch,):
        raise ShapeError(f"d_preds must have shape {(batch,)}, got {d_preds.shape}")

    grads = zeros_like_params(net)
    np.matmul(tape.h_last.T, d_preds, out=grads.W_out)
    grads.b_out[0] = d_preds.sum()

    d_h_seq = np.zeros((batch, steps, net.hidden_size))
    d_h_seq[:, -1, :] = d_preds[:, None] * net.W_out[None, :]

    for cell, grad, lt in reversed(list(zip(net.cells, grads.cells, tape.layers))):
        hid = cell.hidden_size
        gates = lt.gates
        d_a_seq = np.empty((batch, steps, 4 * hid))
        dh_carry = np.zeros((batch, hid))
        dc_carry = np.zeros((batch, hid))
        for t in range(steps - 1, -1, -1):
            dh = d_h_seq[:, t, :] + dh_carry
            i = gates[:, t, :hid]
            f = gates[:, t, hid : 2 * hid]
            o = gates[:, t, 2 * hid : 3 * hid]
            g = gates[:, t, 3 * hid :]
            tc = lt.tanh_c[:, t, :]
            dc = dh * o * (1.0 - tc * tc) + dc_carry
            do = dh * tc
            df = dc * lt.c[:, t - 1, :] if t > 0 else np.zeros_like(dc)
            d_a_seq[:, t, :hid] = dc * g * i * (1.0 - i)
            d_a_seq[:, t, hid : 2 * hid] = df * f * (1.0 - f)
            d_a_seq[:, t, 2 * hid : 3 * hid] = do * o * (1.0 - o)
            d_a_seq[:, t, 3 * hid :] = dc * i * (1.0 - g * g)
            dh_carry = d_a_seq[:, t, :] @ cell.wh.T
            dc_carry = dc * f
        flat_in = lt.inputs.reshape(batch * steps, -1)
        flat_da = d_a_seq.reshape(batch * steps, 4 * hid)
        np.matmul(flat_in.T, flat_da, out=grad.wx)  # (in, 4H)
        h_prev_seq = np.concatenate(
            [np.zeros((batch, 1, hid)), lt.h[:, :-1, :]], axis=1
        )
        np.matmul(h_prev_seq.reshape(batch * steps, hid).T, flat_da, out=grad.wh)
        flat_da.sum(axis=0, out=grad.b)
        d_h_seq = (flat_da @ cell.wx.T).reshape(batch, steps, -1)
    return grads


# --------------------------------------------------------------------------
# Single-window interface and checks
# --------------------------------------------------------------------------


def forward(net: NetworkParams, window: np.ndarray) -> tuple[float, Tape]:
    """Process one window of shape (lookback, input_dim); returns (prediction, tape)."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"window must be (lookback, input_dim), got {w.shape}")
    preds, tape = forward_batch(net, w[np.newaxis])
    return float(preds[0]), tape


def backward(net: NetworkParams, tape: Tape, d_prediction: float) -> NetworkParams:
    """Gradients of one window's prediction, seeded by ``d_prediction``."""
    if tape.batch_shape[0] != 1:
        raise ValidationError(
            "backward expects a single-window tape; use backward_batch for batches"
        )
    return backward_batch(net, tape, np.array([float(d_prediction)]))


def predict(net: NetworkParams, windows: np.ndarray, chunk_size: int = 1024) -> np.ndarray:
    """Forward-only predictions for many windows, processed in chunks."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"windows must be (batch, lookback, input_dim), got {x.shape}")
    out = np.empty(len(x))
    for start in range(0, len(x), chunk_size):
        preds, _ = forward_batch(net, x[start : start + chunk_size])
        out[start : start + len(preds)] = preds
    return out


def _squared_error(net: NetworkParams, window: np.ndarray, target: float) -> float:
    pred, _ = forward(net, window)
    return (pred - target) ** 2


def grad_check(
    net: NetworkParams,
    window: np.ndarray,
    target: float,
    *,
    eps: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Compare BPTT gradients against central finite differences.

    Perturbs every parameter by +/- eps, differences the squared-error
    loss, and returns the worst relative discrepancy
    ``|a - b| / max(|a|, |b|, 1e-12)`` over all parameters. ``corrupt``
    deliberately damages one analytic gradient entry first, so tests can
    prove the check is able to fail.
    """
    target = float(target)
    pred, tape = forward(net, window)
    analytic = backward(net, tape, 2.0 * (pred - target))
    if corrupt:
        analytic.cells[0].Wh_f[0, 0] += 0.5

    worst = 0.0
    for p_arr, g_arr in zip(parameter_arrays(net), parameter_arrays(analytic)):
        for idx in np.ndindex(p_arr.shape):
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            loss_plus = _squared_error(net, window, target)
            p_arr[idx] = orig - eps
            loss_minus = _squared_error(net, window, target)
            p_arr[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic_val = float(g_arr[idx])
            rel = abs(analytic_val - numeric) / max(
                abs(analytic_val), abs(numeric), 1e-12
            )
            worst = max(worst, rel)
    return worst
