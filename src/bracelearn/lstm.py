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
inference. One kernel steps every layer with one matrix product per
step, ``w @ z`` of the cell's stacked weights ``w = [wx | wh | b]`` and
a feature-major (in + H + 1, batch) operand ``z = [x; h; 1]``; it keeps
a tape for BPTT only when asked, and refills a tape it is given instead
of allocating one. ``grad_check`` drives the
same three on a batch of one window. ``cell_forward`` evaluates the
equations gate by gate for one cell and one step; it is the reference
the engine is tested against.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
from dataclasses import dataclass, field, fields

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

    Construction stacks them into the one operand the batched engine
    uses, the C-contiguous (4H, input_size + H + 1) matrix ``w = [wx | wh | b]``
    with gates ordered i, f, o, g along the first axis. ``wx``
    (4H, input_size), ``wh`` (4H, H) and ``b`` (4H,) are column blocks of
    ``w``, and each gate field a row block of those (``Wx_i`` is ``wx[:H]``).
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
        w = np.concatenate(
            [np.stack([blocks[f"{kind}_{gate}"] for gate in _GATE_ORDER]).reshape(4 * hidden, -1)
             for kind in expected],
            axis=1,
        )
        if not np.isfinite(w).all():
            raise ValidationError("cell parameters contain non-finite entries")
        self._point_at(w)

    def _point_at(self, w: np.ndarray) -> None:
        """Make ``w`` the storage and wx/wh/b and every gate field views of it."""
        hid = w.shape[0] // 4
        self.w, self.wx, self.wh, self.b = w, w[:, : -hid - 1], w[:, -hid - 1 : -1], w[:, -1]
        for k, gate in enumerate(_GATE_ORDER):
            rows = slice(k * hid, (k + 1) * hid)
            setattr(self, f"Wx_{gate}", self.wx[rows])
            setattr(self, f"Wh_{gate}", self.wh[rows])
            setattr(self, f"b_{gate}", self.b[rows])

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
    one float64 vector, ``flat``: each cell's ``w`` in layer order, then
    ``W_out`` and ``b_out``. Every block, packed or
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
        return [cell.w for cell in self.cells] + [self.W_out, self.b_out]

    def _point_at(self, flat: np.ndarray) -> None:
        """Copy the cells and make every block a view of its slice of ``flat``."""
        self.cells = [copy.copy(cell) for cell in self.cells]
        ends = np.cumsum([a.size for a in self._blocks()])
        views = [flat[e - a.size : e].reshape(a.shape) for a, e in zip(self._blocks(), ends)]
        for cell, view in zip(self.cells, views):
            cell._point_at(view)
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


def parameter_count(neurons: int, hidden_layers: int) -> int:
    """The ``flat.size`` of ``init_network(neurons, hidden_layers)``, a network of one input."""
    first = 4 * neurons * (neurons + 2)
    return first + (hidden_layers - 1) * 4 * neurons * (2 * neurons + 1) + neurons + 1


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

    Row ``t`` of ``z`` is the operand ``[x_t; h_t; 1]`` of step ``t``'s
    one product with the cell's ``w``: the layer's input at step ``t``,
    the state it starts from, and a row of ones for the bias. Row 0 of
    ``c`` and ``h`` is the zero initial state, so row ``t`` is the state
    step ``t`` starts from and row ``t + 1`` the one it ends in; ``h`` is
    the h rows of ``z``, and ``h[1:]`` the layer's output sequence.
    """

    z: np.ndarray       # (T + 1, in + H + 1, B); row T holds only h_T
    gates: np.ndarray   # (T, 4H, B) post-activation i, f, o, g
    c: np.ndarray       # (T + 1, H, B)
    tanh_c: np.ndarray  # (T, H, B)
    h: np.ndarray       # (T + 1, H, B) a view of z


@dataclass
class Tape:
    """Cached activations from one forward call, consumed by backward.

    ``layers`` hold (T, feature, B) sequences, so ``layers[0].gates``
    gives the window count and length, and ``layers[-1].h[-1]`` is the
    (H, B) top-layer hidden state the output head read.

    A tape is also the workspace of the batches after it: passed back to
    ``forward_batch`` it is refilled in place rather than allocated anew.
    Every array it hands out, the activations and ``backward_batch``'s
    ``d_a``, ``d_w``, ``d_h`` and gradient container alike, is a C-contiguous
    prefix of a flat buffer, or a view of one (``h`` of ``z``), and a
    buffer grows only when a batch needs more room,
    so a shorter final batch reuses the buffers with a fresh batch's
    shapes and strides. A tape holds only its latest batch: refilling it
    overwrites the activations, and each ``backward_batch`` overwrites the
    gradients the previous one returned.
    """

    net: NetworkParams
    layers: list[_LayerTape] = field(default_factory=list)
    _buffers: dict[object, np.ndarray] = field(default_factory=dict, repr=False)
    _grads: NetworkParams | None = field(default=None, repr=False)


def _take(buffers: dict[object, np.ndarray], key: object, shape: tuple[int, ...]) -> np.ndarray:
    """A ``shape`` view of the start of ``buffers[key]``, grown to fit if needed."""
    size = math.prod(shape)
    buf = buffers.get(key)
    if buf is None or buf.size < size:
        buf = buffers[key] = np.empty(size)
    return buf[:size].reshape(shape)


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
    net: NetworkParams, x: np.ndarray, buffers: dict[object, np.ndarray], tape: Tape | None = None
) -> np.ndarray:
    """Step the stack over a batch of windows; returns the predictions.

    The loop is step-major: at step ``t`` each layer in turn copies its
    input into ``z[t] = [x_t; h_t; 1]``, computes its gate
    pre-activations as one GEMM ``w @ z[t]``, overwrites them in place
    with the activations and writes ``h_{t+1}`` into the h rows of
    ``z[t + 1]``. Layer 0's input is the window's ``x_t``, and layer
    ``k``'s the h rows that layer ``k - 1`` has just written. Every array
    is a view of ``buffers`` (see ``_take``). With a tape, each layer has
    its own buffers, one row per step, and its activations go on the tape
    for backward_batch. Without, each layer keeps one row of z and one of
    c, which every step overwrites in place (the GEMM has read ``z[t]``
    before ``h_{t+1}`` is written into it), and all layers share one row
    of gates and one of tanh(c), so peak memory does not grow with the
    lookback. Both passes share one i*g row.
    """
    batch, steps, _ = x.shape
    widest = max(cell.hidden_size for cell in net.cells)
    # with a tape, a row per step of the gates and tanh(c) and per state of z and c; without, one
    rows, states = (steps, steps + 1) if tape is not None else (1, 1)
    ig = _take(buffers, "ig", (widest, batch))
    layers = []
    for k, cell in enumerate(net.cells):
        n_in, hid = cell.input_size, cell.hidden_size
        # with a tape, layer k's own buffers; without, gates and tanh(c) shared by all layers
        slot, width = (k, hid) if tape is not None else (0, widest)
        gates = _take(buffers, ("gates", slot), (rows, 4 * width, batch))[:, : 4 * hid]
        tanh_c = _take(buffers, ("tanh_c", slot), (rows, width, batch))[:, :hid]
        z = _take(buffers, ("z", k), (states, n_in + hid + 1, batch))
        c = _take(buffers, ("c", k), (states, hid, batch))
        z[0, n_in:-1] = 0.0
        z[:, -1] = 1.0
        c[0] = 0.0
        layers.append((cell.w, n_in, hid, z, gates, c, tanh_c, ig[:hid]))
        if tape is not None:  # replaces the tape's layers from k on
            tape.layers[k:] = [_LayerTape(z=z, gates=gates, c=c, tanh_c=tanh_c, h=z[:, n_in:-1])]
    for t, h in enumerate(x.transpose(1, 2, 0)):  # h: layer 0's input, x_t
        for w, n_in, hid, z, gates, c, tanh_c, i_g in layers:
            z_t = z[t % len(z)]
            z_t[:n_in] = h
            a = np.matmul(w, z_t, out=gates[t % len(gates)])
            ifo, g = a[: 3 * hid], a[3 * hid :]
            _sigmoid(ifo, out=ifo)
            np.tanh(g, out=g)
            c_t = c[(t + 1) % len(c)]
            tc = tanh_c[t % len(tanh_c)]
            np.multiply(ifo[hid : 2 * hid], c[t % len(c)], out=c_t)
            c_t += np.multiply(ifo[:hid], g, out=i_g)
            np.tanh(c_t, out=tc)
            h = np.multiply(ifo[2 * hid :], tc, out=z[(t + 1) % len(z), n_in:-1])
    return net.W_out @ h + net.b_out[0]


def forward_batch(
    net: NetworkParams, windows: np.ndarray, tape: Tape | None = None
) -> tuple[np.ndarray, Tape]:
    """Run a batch of windows through the stack; returns (predictions, tape).

    Given the tape of an earlier call on ``net``, refills and returns that
    tape instead of allocating a new one (see ``Tape``).
    """
    x = _windows(net, windows)
    if tape is None:
        tape = Tape(net=net)
    elif tape.net is not net:
        raise ValidationError("tape does not belong to this network")
    return _run(net, x, tape._buffers, tape), tape


def backward_batch(
    net: NetworkParams, tape: Tape, d_preds: np.ndarray
) -> NetworkParams:
    """Accumulate gradients over the batch via BPTT.

    ``d_preds`` seeds the prediction of each window; the returned
    container holds the sum over the batch of each window's gradient
    (the caller scales the seed to get means). Each step adds its weight
    gradient ``da @ z[t].T`` into the container through one scratch, so
    a block's sum over steps and windows runs in one fixed order, with the
    same bits at any BLAS thread count. The container and the backward
    buffers belong to ``tape``, so the next ``backward_batch`` on it
    overwrites them.
    """
    if tape.net is not net or len(tape.layers) != len(net.cells):
        raise ValidationError("tape does not belong to this network")
    steps, _, batch = tape.layers[0].gates.shape
    d_preds = np.asarray(d_preds, dtype=np.float64)
    if d_preds.shape != (batch,):
        raise ShapeError(f"d_preds must have shape {(batch,)}, got {d_preds.shape}")

    if tape._grads is None:
        tape._grads = zeros_like_params(net)
    grads = tape._grads
    np.matmul(tape.layers[-1].h[-1], d_preds, out=grads.W_out)
    grads.b_out[0] = d_preds.sum()

    # gradient of the loss with respect to each step's h, from the layer above;
    # layer k reads it from d_h buffer (k + 1) % 2 and writes layer k - 1's into k % 2
    top = net.num_layers
    d_h = _take(tape._buffers, ("d_h", top % 2), (steps, net.hidden_size, batch))
    d_h[:-1] = 0.0
    np.multiply(net.W_out[:, None], d_preds[None, :], out=d_h[-1])

    for k in reversed(range(top)):
        cell, grad, lt = net.cells[k], grads.cells[k], tape.layers[k]
        hid = cell.hidden_size
        d_a = _take(tape._buffers, "d_a", (steps, 4 * hid, batch))
        d_w = _take(tape._buffers, "d_w", cell.w.shape)
        z_bt = _take(tape._buffers, "z_bt", (batch, cell.w.shape[1]))
        grad.w[...] = 0.0
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
            z_bt[...] = lt.z[t].T  # a contiguous operand packs faster than a transposed view
            grad.w += np.matmul(da, z_bt, out=d_w)
        if k > 0:  # the bottom layer's inputs are data, with no gradient to pass on
            d_h = _take(tape._buffers, ("d_h", k % 2), (steps, cell.input_size, batch))
            np.matmul(cell.wx.T, d_a, out=d_h)
    return grads


# --------------------------------------------------------------------------
# Inference and the gradient check
# --------------------------------------------------------------------------

#: Windows per tapeless pass of ``predict``. Each layer step costs a
#: dozen numpy calls whatever the width, and each call holds the GIL
#: while it dispatches, so a wider chunk spends less of it per window.
#: Two workers on OpenBLAS's default thread count contend for the cores
#: at 128 windows as at 256 (Model 3a over 5172 windows on 2 CPUs,
#: medians of 9 calls: 0.91-1.39 s at 128 and 1.05-1.16 s at 256,
#: against 0.67 s and 0.56 s on one BLAS thread). 256 is a multiple of
#: 8 (see ``predict``).
_PREDICT_CHUNK = 256


def _cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict(net: NetworkParams, windows: np.ndarray) -> np.ndarray:
    """Forward-only predictions for many windows, in chunks spread over threads.

    The windows are cut into chunks of ``_PREDICT_CHUNK``, and chunk ``j``
    goes to worker ``j % n``. There is one worker per CPU this process may
    run on, at most one per chunk. The calling thread is worker 0 and a
    ``ThreadPoolExecutor`` runs the others, so a predict of one chunk
    starts no thread and imports no pool. The per-step numpy calls and
    matrix products release the GIL, so the workers run on separate
    cores. A short last chunk runs as a zero-padded copy, padded up to a
    multiple of 8 windows (but no wider than a full chunk), and the
    padded outputs are dropped. OpenBLAS computes a product's columns
    with kernels chosen by the column count, and their bits agree column
    for column across widths that are multiples of 8, at any BLAS thread
    count while the inner dimension in + H + 1 is small (see the README).
    So with a chunk size that is a multiple of 8, a window's prediction
    has the same bits whichever chunk, position, worker or thread count
    computes it, and a caller that predicts any subset of windows gets
    the bits of the whole record's predict.

    No tape is kept. Each worker reuses one set of buffers for all its
    chunks: per layer one row of z and one of c, and one step's row of
    the gates, tanh(c) and i*g shared by all layers, so its memory grows
    with the depth and the chunk size but not with the lookback. The
    caller's first chunk, the widest, sizes worker 0's buffers as ``_run``
    takes them, and the other workers get copies of those before the
    pool starts, so every buffer, and the padded copy, is allocated on
    the calling thread and no later chunk grows one. Workers run in
    copies of the caller's context, so the caller's ``np.errstate``
    holds in them; an exception in any worker, the caller included, is
    raised in the caller once every thread has joined.
    """
    x = _windows(net, windows)
    out = np.empty(len(x))
    chunks = [(s, x[s : s + _PREDICT_CHUNK]) for s in range(0, len(x), _PREDICT_CHUNK)]
    last_start, last = chunks[-1] if chunks else (0, x)
    pad = min(-len(last) % 8, _PREDICT_CHUNK - len(last))
    if pad:
        chunks[-1] = (last_start, np.concatenate([last, np.zeros((pad, *x.shape[1:]))]))
    workers = min(_cores(), len(chunks)) or 1
    buffers = [{}]

    def run(k: int, pieces: list[tuple[int, np.ndarray]]) -> None:
        for start, chunk in pieces:
            out[start : start + len(chunk)] = _run(net, chunk, buffers[k])[: len(out) - start]

    run(0, chunks[:1])  # the widest chunk: its buffers fit every chunk
    buffers += [{k: np.empty_like(b) for k, b in buffers[0].items()} for _ in range(workers - 1)]
    if workers == 1:
        run(0, chunks[1:])
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, k, chunks[k::workers])
            for k in range(1, workers)
        ]
        run(0, chunks[workers::workers])
    for future in futures:
        future.result()
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
