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

The batched engine is the only way into the network: ``forward_batch``
and ``backward_batch`` for training, the tapeless ``predict`` for
inference, one kernel over feature-major (lookback, 4H, batch) gates
that keeps a tape for BPTT only when asked. ``grad_check`` drives the
same three on a batch of one window. ``cell_forward`` evaluates the
equations gate by gate for one cell and one step; it is the reference
the engine is tested against.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceError, ShapeError, ValidationError

_GATE_ORDER = ("i", "f", "o", "g")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), written into ``out`` (which may be ``x``) when given."""
    # exp may overflow for very negative inputs; the result (0.0) is still right
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


@dataclass
class CellParams:
    """Per-gate weights of one LSTM cell.

    The gate fields follow the column-vector convention of the cell
    equations above: input weights (hidden_size, input_size), recurrent
    weights (hidden_size, hidden_size), biases (hidden_size,).

    Construction stacks them into the operands the batched engine uses,
    gates ordered i, f, o, g along the first axis: ``wx`` (4H, input_size),
    ``wh`` (4H, H) and ``b`` (4H,), all C-contiguous. Each gate field then
    becomes a row block of them (``Wx_i`` is ``wx[:H]``).
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
            np.concatenate([blocks[f"{kind}_{gate}"] for gate in _GATE_ORDER])
            for kind in expected
        )
        if not all(np.isfinite(a).all() for a in (wx, wh, b)):
            raise ValidationError("cell parameters contain non-finite entries")
        self._point_at(wx, wh, b)

    def _point_at(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> None:
        """Make wx/wh/b the storage and every gate field a view of them."""
        self.wx, self.wh, self.b = wx, wh, b
        hid = wh.shape[1]
        for k, gate in enumerate(_GATE_ORDER):
            rows = slice(k * hid, (k + 1) * hid)
            setattr(self, f"Wx_{gate}", wx[rows])
            setattr(self, f"Wh_{gate}", wh[rows])
            setattr(self, f"b_{gate}", b[rows])

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


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
    (an optimizer step) reaches them all. ``flat`` is the only parameter
    interface that training and ``grad_check`` use; a gradient container
    from ``backward_batch`` has the same layout.
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

    # non-finite states raise DivergenceError instead of surfacing as warnings
    with np.errstate(invalid="ignore", over="ignore"):
        i = _sigmoid(params.Wx_i @ x_t + params.Wh_i @ prev.h + params.b_i)
        f = _sigmoid(params.Wx_f @ x_t + params.Wh_f @ prev.h + params.b_f)
        o = _sigmoid(params.Wx_o @ x_t + params.Wh_o @ prev.h + params.b_o)
        g = np.tanh(params.Wx_g @ x_t + params.Wh_g @ prev.h + params.b_g)
        c = f * prev.c + i * g
        h = o * np.tanh(c)
    if not (np.isfinite(h).all() and np.isfinite(c).all()):
        raise DivergenceError("cell state became non-finite")
    return CellState(h=h, c=c)


# --------------------------------------------------------------------------
# Batched forward/backward engine
# --------------------------------------------------------------------------


@dataclass
class _LayerTape:
    """One layer's activations, batch axis last: each gate block is contiguous.

    Row 0 of ``c`` and ``h`` is the zero initial state, so row ``t`` is
    the state step ``t`` starts from and row ``t + 1`` the one it ends in;
    ``h[1:]`` is the layer's output sequence.
    """

    inputs: np.ndarray  # (T, in, B) what this layer consumed
    gates: np.ndarray   # (T, 4H, B) post-activation i, f, o, g
    c: np.ndarray       # (T + 1, H, B)
    tanh_c: np.ndarray  # (T, H, B)
    h: np.ndarray       # (T + 1, H, B)


@dataclass
class Tape:
    """Cached activations from one forward call, consumed by backward.

    ``layers`` hold (T, feature, B) sequences, so ``layers[0].inputs``
    gives the window count and length, and ``layers[-1].h[-1]`` is the
    (H, B) top-layer hidden state the output head read.
    """

    net: NetworkParams
    layers: list[_LayerTape]


def _windows(net: NetworkParams, windows: np.ndarray) -> np.ndarray:
    """``windows`` as float64 (batch, lookback, input_dim), checked against ``net``."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"windows must be (batch, lookback, input_dim), got {x.shape}")
    if x.shape[1] < 1:
        raise ShapeError("window must contain at least one step")
    if x.shape[2] != net.input_dim:
        raise ShapeError(f"network expects input_dim {net.input_dim}, got {x.shape[2]}")
    return x


def _run(
    net: NetworkParams, x: np.ndarray, keep_tape: bool
) -> tuple[np.ndarray, list[_LayerTape]]:
    """Step the stack over a batch of windows; returns (predictions, layer tapes).

    The windows are transposed to (T, in, B) and fed through the layers
    in turn. With ``keep_tape`` every layer's activations are returned
    for backward_batch; without, the list is empty and only the current
    layer's input and output h sequences are alive at any time, so peak
    memory is one layer of the batch rather than the whole stack.
    """
    inp = np.ascontiguousarray(x.transpose(1, 2, 0))
    layers: list[_LayerTape] = []
    for cell in net.cells:
        inp = _layer(cell, inp, layers if keep_tape else None)
    return net.W_out @ inp[-1] + net.b_out[0], layers


def _layer(cell: CellParams, inp: np.ndarray, tape: list[_LayerTape] | None) -> np.ndarray:
    """Step one cell over ``inp`` (T, in, B); returns its h sequence (T, H, B).

    The input projection of every step is one batched GEMM into a
    (T, 4H, B) buffer; step ``t`` adds ``wh @ h_prev`` to its slice and
    overwrites it in place with the gate activations. The layer's
    activations are appended to ``tape`` unless it is None, in which case
    c and tanh(c) roll over two rows and one row and the gate buffer is
    freed on return.
    """
    steps, _, batch = inp.shape
    hid = cell.hidden_size
    gates = np.matmul(cell.wx, inp)
    gates += cell.b[:, None]
    h = np.zeros((steps + 1, hid, batch))
    # with a tape, c[t] and c[t + 1] below; without, two rolling rows
    c = np.zeros((steps + 1 if tape is not None else 2, hid, batch))
    tanh_c = np.empty((steps if tape is not None else 1, hid, batch))
    rec = np.empty((4 * hid, batch))
    ig = np.empty((hid, batch))
    for t in range(steps):
        a = gates[t]
        a += np.matmul(cell.wh, h[t], out=rec)
        ifo, g = a[: 3 * hid], a[3 * hid :]
        _sigmoid(ifo, out=ifo)
        np.tanh(g, out=g)
        c_t = c[(t + 1) % len(c)]
        tc = tanh_c[t % len(tanh_c)]
        np.multiply(ifo[hid : 2 * hid], c[t % len(c)], out=c_t)
        c_t += np.multiply(ifo[:hid], g, out=ig)
        np.tanh(c_t, out=tc)
        np.multiply(ifo[2 * hid :], tc, out=h[t + 1])
    if tape is not None:
        tape.append(_LayerTape(inputs=inp, gates=gates, c=c, tanh_c=tanh_c, h=h))
    return h[1:]


def forward_batch(net: NetworkParams, windows: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run a batch of windows through the stack; returns (predictions, tape)."""
    x = _windows(net, windows)
    preds, layers = _run(net, x, keep_tape=True)
    return preds, Tape(net=net, layers=layers)


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
    steps, _, batch = tape.layers[0].inputs.shape
    d_preds = np.asarray(d_preds, dtype=np.float64)
    if d_preds.shape != (batch,):
        raise ShapeError(f"d_preds must have shape {(batch,)}, got {d_preds.shape}")

    grads = zeros_like_params(net)
    np.matmul(tape.layers[-1].h[-1], d_preds, out=grads.W_out)
    grads.b_out[0] = d_preds.sum()

    # gradient of the loss with respect to each step's h, from the layer above
    d_h = np.zeros((steps, net.hidden_size, batch))
    d_h[-1] = net.W_out[:, None] * d_preds[None, :]

    for cell, grad, lt in reversed(list(zip(net.cells, grads.cells, tape.layers))):
        hid = cell.hidden_size
        d_a = np.empty((steps, 4 * hid, batch))
        dh_carry = np.zeros((hid, batch))
        dc_carry = np.zeros((hid, batch))
        for t in range(steps - 1, -1, -1):
            ifo, g = lt.gates[t, : 3 * hid], lt.gates[t, 3 * hid :]
            i, f, o = ifo[:hid], ifo[hid : 2 * hid], ifo[2 * hid :]
            tc = lt.tanh_c[t]
            da = d_a[t]
            dh = d_h[t]
            dh += dh_carry
            dc = dh * o * (1.0 - tc * tc) + dc_carry
            np.multiply(dc, g, out=da[:hid])
            np.multiply(dc, lt.c[t], out=da[hid : 2 * hid])
            np.multiply(dh, tc, out=da[2 * hid : 3 * hid])
            da[: 3 * hid] *= ifo
            da[: 3 * hid] *= 1.0 - ifo
            np.multiply(dc, i, out=da[3 * hid :])
            da[3 * hid :] *= 1.0 - g * g
            np.matmul(cell.wh.T, da, out=dh_carry)
            np.multiply(dc, f, out=dc_carry)
        grad.wx[...] = np.tensordot(d_a, lt.inputs, axes=([0, 2], [0, 2]))
        grad.wh[...] = np.tensordot(d_a, lt.h[:-1], axes=([0, 2], [0, 2]))
        d_a.sum(axis=(0, 2), out=grad.b)
        d_h = np.matmul(cell.wx.T, d_a)
    return grads


# --------------------------------------------------------------------------
# Inference and the gradient check
# --------------------------------------------------------------------------

#: Windows per tapeless pass of ``predict``.
_PREDICT_CHUNK = 1024


def predict(net: NetworkParams, windows: np.ndarray) -> np.ndarray:
    """Forward-only predictions for many windows, processed in chunks.

    No tape is kept, so peak memory is about one layer's gate buffer for
    one chunk, (lookback, 4H, _PREDICT_CHUNK) float64.
    """
    x = _windows(net, windows)
    out = np.empty(len(x))
    for start in range(0, len(x), _PREDICT_CHUNK):
        preds, _ = _run(net, x[start : start + _PREDICT_CHUNK], keep_tape=False)
        out[start : start + len(preds)] = preds
    return out


def grad_check(
    net: NetworkParams,
    window: np.ndarray,
    target: float,
    *,
    eps: float = 1e-5,
) -> float:
    """Compare BPTT gradients against central finite differences.

    The analytic gradient of one window's squared error comes from
    ``forward_batch`` and ``backward_batch``; every entry of ``net.flat``
    is then perturbed by +/- eps and the squared error differenced, each
    loss from a tapeless ``predict`` of the window. Returns the worst
    relative discrepancy ``|a - b| / max(|a|, |b|, 1e-12)`` over all
    parameters, or inf as soon as an analytic or numeric entry is
    non-finite. A loss past the float range is inf, which fails the check
    rather than warning or raising.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and > 0, got {eps}")
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"window must be (lookback, input_dim), got {w.shape}")
    windows = w[np.newaxis]
    target = float(target)
    preds, tape = forward_batch(net, windows)
    analytic = backward_batch(net, tape, 2.0 * (preds - target))

    def loss() -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            pred = float(predict(net, windows)[0])
        try:
            return (pred - target) ** 2
        except OverflowError:
            return math.inf

    worst = 0.0
    for k in range(net.flat.size):
        orig = net.flat[k]
        net.flat[k] = orig + eps
        loss_plus = loss()
        net.flat[k] = orig - eps
        loss_minus = loss()
        net.flat[k] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic_val = float(analytic.flat[k])
        if not (math.isfinite(numeric) and math.isfinite(analytic_val)):
            return math.inf
        rel = abs(analytic_val - numeric) / max(abs(analytic_val), abs(numeric), 1e-12)
        worst = max(worst, rel)
    return worst
