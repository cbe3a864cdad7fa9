"""Span recorder and module-boundary wrappers for the traced benchmark run.

The program has no tracing of its own, so the benchmark records spans from
its own files: each wrapper replaces a public function on the module where
its caller looks the name up (``training.forward_batch`` is the name
``train`` calls, ``cli.save_model`` the one the CLI calls), and the original
is put back when the traced operation ends. A name that no longer exists is
reported as unmeasured instead of failing the run, so a later change to the
program never needs an edit here to keep the benchmark running.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

#: The seven built-in grid models; each gets a ``sweep.fit_model_s.<slug>`` row.
GRID_NAMES = ("Model 1", "Model 2", "Model 3a", "Model 3b", "Model 3c", "Model 3d", "Model 3e")


def slug(name: str) -> str:
    return name.lower().replace(" ", "-")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str = ""
    index: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds every span of a run in memory; ``write`` dumps them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            op=self.op,
            index=len(self.spans),
        )
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# --------------------------------------------------------------------------
# What each wrapper records besides its time
# --------------------------------------------------------------------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def nbytes(obj, _seen=None) -> int:
    """Bytes held by the numpy arrays reachable from ``obj`` (views counted once)."""
    import numpy as np

    seen = set() if _seen is None else _seen
    if isinstance(obj, np.ndarray):
        owner = obj
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(item, seen) for item in obj)
    if hasattr(obj, "__dict__"):
        return sum(nbytes(item, seen) for item in vars(obj).values())
    return 0


def forward_flop(net, batch: int, steps: int) -> int:
    """Matmul FLOPs of one stacked-LSTM forward pass, computed from shapes."""
    total = 0
    for cell in net.cells:
        gates = 4 * cell.hidden_size
        total += 2 * batch * steps * gates * (cell.input_size + cell.hidden_size)
    return total + 2 * batch * net.hidden_size


def _simulate(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    disp = _arg(args, kwargs, 1, "disp")
    return {"substeps": (len(disp) - 1) * params.substeps}


def _window(args, kwargs, result):
    return {"bytes": nbytes(result)}


def _train_forward(args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    batch, steps = _arg(args, kwargs, 1, "windows").shape[:2]
    return {"flop": forward_flop(net, batch, steps), "tape_bytes": nbytes(result[1])}


def _tape(args, kwargs, result):
    return {"tape_bytes": nbytes(result[1])}


def _predict(args, kwargs, result):
    return {"windows": len(_arg(args, kwargs, 1, "windows"))}


def _train(args, kwargs, result):
    return {"epochs": result[1].epochs_run}


def _fit(args, kwargs, result):
    return {"model": _arg(args, kwargs, 2, "config").name}


def _emit(args, kwargs, result):
    return {"model": _arg(args, kwargs, 0, "model").config.name}


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


#: (module, attribute looked up by the caller, span name, annotation).
HOOKS = (
    ("bracelearn.oracle", "simulate", "oracle.simulate", _simulate),
    ("bracelearn.oracle", "write_csv", "oracle.write_csv", None),
    ("bracelearn.oracle", "read_csv", "oracle.read_csv", None),
    ("bracelearn.sweep", "window", "dataset.window", _window),
    ("bracelearn.training", "forward_batch", "lstm.forward_batch", _train_forward),
    ("bracelearn.training", "backward_batch", "lstm.backward_batch", None),
    ("bracelearn.lstm", "forward_batch", "lstm.chunk_forward", _tape),
    ("bracelearn.training", "predict", "lstm.predict", _predict),
    ("bracelearn.model", "predict", "lstm.predict", _predict),
    ("bracelearn.training", "clip_global_norm", "training.clip", None),
    ("bracelearn.training", "evaluate_nrmse", "training.eval", None),
    ("bracelearn.sweep", "train", "training.train", _train),
    ("bracelearn.cli", "fit_model", "sweep.fit_model", _fit),
    ("bracelearn.sweep", "fit_model", "sweep.fit_model", _fit),
    ("bracelearn.sweep", "emit_predictions", "sweep.emit_predictions", _emit),
    ("bracelearn.cli", "save_model", "model.save", _file_size),
    ("bracelearn.cli", "load_model", "model.load", _file_size),
)


def _wrapper(recorder: Recorder, name: str, fn, annotate):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if annotate is not None:
            try:
                span.attrs.update(annotate(args, kwargs, result))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                span.attrs["unannotated"] = True
        return result

    return wrapped


def _target(module_name: str, attr: str):
    """The module and function a hook wraps, or None if the name is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    function = getattr(module, attr, None)
    return (module, function) if callable(function) else None


def missing_hooks() -> list[str]:
    """``module.attribute`` of every hook whose name the program no longer has."""
    return [f"{m}.{a}" for m, a, _, _ in HOOKS if _target(m, a) is None]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every hook that exists for the duration of the block."""
    patched = []
    try:
        for module_name, attr, span_name, annotate in HOOKS:
            target = _target(module_name, attr)
            if target is None:
                continue
            module, original = target
            setattr(module, attr, _wrapper(recorder, span_name, original, annotate))
            patched.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

#: Per-layer metric -> (unit, span names it is computed from).
LAYER_METRICS = {
    "oracle.simulate_s": ("s", ("oracle.simulate",)),
    "oracle.rk4_substeps_per_s": ("1/s", ("oracle.simulate",)),
    "oracle.read_csv_s": ("s", ("oracle.read_csv",)),
    "oracle.write_csv_s": ("s", ("oracle.write_csv",)),
    "dataset.window_s": ("s", ("dataset.window",)),
    "dataset.window_mb": ("MB", ("dataset.window",)),
    "lstm.forward_batch_ms_p50": ("ms", ("lstm.forward_batch",)),
    "lstm.forward_batch_ms_p95": ("ms", ("lstm.forward_batch",)),
    "lstm.backward_batch_ms_p50": ("ms", ("lstm.backward_batch",)),
    "lstm.backward_batch_ms_p95": ("ms", ("lstm.backward_batch",)),
    "lstm.forward_mflop": ("MFLOP", ("lstm.forward_batch",)),
    "lstm.backward_mflop": ("MFLOP", ("lstm.forward_batch",)),
    "lstm.forward_gflop_per_s": ("GFLOP/s", ("lstm.forward_batch",)),
    "lstm.predict_s": ("s", ("lstm.predict",)),
    "lstm.predict_windows": ("count", ("lstm.predict",)),
    "lstm.predict_windows_per_s": ("1/s", ("lstm.predict",)),
    "lstm.tape_mb": ("MB", ("lstm.forward_batch", "lstm.chunk_forward")),
    "training.step_ms_p50": ("ms", ("lstm.forward_batch", "training.train")),
    "training.step_ms_p95": ("ms", ("lstm.forward_batch", "training.train")),
    "training.update_ms": ("ms", ("training.train",)),
    "training.clip_ms": ("ms", ("training.clip",)),
    "training.eval_s": ("s", ("training.eval",)),
    "training.batches": ("count", ("lstm.forward_batch",)),
    "training.epochs": ("count", ("training.train",)),
    **{f"sweep.fit_model_s.{slug(n)}": ("s", ("sweep.fit_model",)) for n in GRID_NAMES},
    "sweep.critical_path_share": ("ratio", ("sweep.fit_model",)),
    "sweep.emit_predictions_s": ("s", ("sweep.emit_predictions",)),
    "sweep.emit_write_s": ("s", ("sweep.emit_predictions",)),
    "sweep.predict_useful_ratio": ("ratio", ("lstm.predict",)),
    "model.save_s": ("s", ("model.save",)),
    "model.load_s": ("s", ("model.load",)),
    "model.json_mb": ("MB", ("model.save", "model.load")),
    "cli.self_s": ("s", ("cli.command",)),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_pct": ("%", ()),
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class _Index:
    def __init__(self, spans: list[Span], ops: list[str]):
        self.spans = spans
        self.ops = ops
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str, op_only: bool = False) -> list[Span]:
        return [s for s in self.spans if s.name == name and (not op_only or s.op in self.ops)]

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(c.seconds for c in self.children.get(span.index, ()))

    def per_op(self, fn) -> float:
        """Mean over traced operations of ``fn(spans of that operation)``."""
        values = [fn([s for s in self.spans if s.op == op]) for op in self.ops]
        return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _steps(index: _Index) -> list[float]:
    """Per-batch step time: one forward start to the next, inside each train."""
    out = []
    for train in index.named("training.train", op_only=True):
        kids = sorted(index.children.get(train.index, ()), key=lambda s: s.start)
        for pos, kid in enumerate(kids):
            if kid.name != "lstm.forward_batch":
                continue
            following = [k for k in kids[pos + 1 :]
                         if k.name in ("lstm.forward_batch", "training.eval")]
            out.append((following[0].start if following else train.end) - kid.start)
    return out


def _useful_ratio(index: _Index) -> float:
    """Distinct windows each model needed / windows predicted for it.

    A model's windows are needed once: its evaluation windows, or the full
    record when predictions are emitted (which covers both halves).
    """
    needed = predicted = 0
    for op in index.ops:
        evals: dict[str, int] = {}
        emits: dict[str, int] = {}
        for span in index.named("lstm.predict"):
            if span.op != op:
                continue
            owner = span
            while owner.parent is not None and owner.name not in (
                "sweep.fit_model", "sweep.emit_predictions"
            ):
                owner = index.spans[owner.parent]
            bucket = emits if owner.name == "sweep.emit_predictions" else evals
            model = owner.attrs.get("model")
            windows = span.attrs.get("windows", 0)
            bucket[model] = bucket.get(model, 0) + windows
            predicted += windows
        needed += sum(max(evals.get(m, 0), emits.get(m, 0)) for m in evals.keys() | emits.keys())
    return needed / predicted if predicted else 0.0


def layer_metrics(spans, ops, overhead_s: float, overhead_pct: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    index = _Index(spans, ops)
    fwd = index.named("lstm.forward_batch", op_only=True)
    bwd = index.named("lstm.backward_batch", op_only=True)
    sims = index.named("oracle.simulate")
    preds = index.named("lstm.predict", op_only=True)
    trains = index.named("training.train", op_only=True)
    steps = _steps(index)
    saves = index.named("model.save")
    fwd_flop = [s.attrs["flop"] for s in fwd if "flop" in s.attrs]
    pred_s = sum(s.seconds for s in preds)
    pred_windows = sum(s.attrs.get("windows", 0) for s in preds)
    batches = len(fwd)
    train_self = sum(index.self_seconds(s) for s in trains)

    def ms(values, q):
        return 1e3 * percentile(values, q) if values else 0.0

    def fits(op_spans):
        return [s for s in op_spans if s.name == "sweep.fit_model"]

    def fit_seconds(name):
        return lambda op_spans: sum(s.seconds for s in fits(op_spans)
                                    if s.attrs.get("model") == name)

    def critical(op_spans):
        times = [s.seconds for s in fits(op_spans)]
        return max(times) / sum(times) if times else 0.0

    def total(name, self_time=False):
        return lambda op_spans: sum(
            index.self_seconds(s) if self_time else s.seconds
            for s in op_spans if s.name == name
        )

    tapes = [s.attrs["tape_bytes"] for s in index.spans if "tape_bytes" in s.attrs]
    mean_flop = statistics.fmean(fwd_flop) if fwd_flop else 0.0
    values = {
        "oracle.simulate_s": _median([s.seconds for s in sims]),
        "oracle.rk4_substeps_per_s": (
            sum(s.attrs.get("substeps", 0) for s in sims) / sum(s.seconds for s in sims)
            if sims else 0.0
        ),
        "oracle.read_csv_s": _median([s.seconds for s in index.named("oracle.read_csv")]),
        "oracle.write_csv_s": _median([s.seconds for s in index.named("oracle.write_csv")]),
        "dataset.window_s": _median([s.seconds for s in index.named("dataset.window")]),
        "dataset.window_mb": statistics.fmean(
            [s.attrs.get("bytes", 0) / 1e6 for s in index.named("dataset.window")] or [0.0]
        ),
        "lstm.forward_batch_ms_p50": ms([s.seconds for s in fwd], 50),
        "lstm.forward_batch_ms_p95": ms([s.seconds for s in fwd], 95),
        "lstm.backward_batch_ms_p50": ms([s.seconds for s in bwd], 50),
        "lstm.backward_batch_ms_p95": ms([s.seconds for s in bwd], 95),
        "lstm.forward_mflop": mean_flop / 1e6,
        "lstm.backward_mflop": 2.0 * mean_flop / 1e6,
        "lstm.forward_gflop_per_s": (
            sum(fwd_flop) / sum(s.seconds for s in fwd) / 1e9 if fwd_flop else 0.0
        ),
        "lstm.predict_s": index.per_op(total("lstm.predict")),
        "lstm.predict_windows": pred_windows / max(len(ops), 1),
        "lstm.predict_windows_per_s": pred_windows / pred_s if pred_s else 0.0,
        "lstm.tape_mb": max(tapes) / 1e6 if tapes else 0.0,
        "training.step_ms_p50": ms(steps, 50),
        "training.step_ms_p95": ms(steps, 95),
        "training.update_ms": 1e3 * train_self / batches if batches else 0.0,
        "training.clip_ms": 1e3 * statistics.fmean(
            [s.seconds for s in index.named("training.clip", op_only=True)] or [0.0]
        ),
        "training.eval_s": index.per_op(total("training.eval")),
        "training.batches": batches / max(len(ops), 1),
        "training.epochs": sum(s.attrs.get("epochs", 0) for s in trains) / max(len(ops), 1),
        **{
            f"sweep.fit_model_s.{slug(n)}": index.per_op(fit_seconds(n))
            for n in GRID_NAMES
        },
        "sweep.critical_path_share": index.per_op(critical),
        "sweep.emit_predictions_s": index.per_op(total("sweep.emit_predictions")),
        "sweep.emit_write_s": index.per_op(total("sweep.emit_predictions", self_time=True)),
        "sweep.predict_useful_ratio": _useful_ratio(index),
        "model.save_s": _median([s.seconds for s in saves]),
        "model.load_s": _median([s.seconds for s in index.named("model.load")]),
        "model.json_mb": statistics.fmean(
            [s.attrs.get("bytes", 0) / 1e6 for s in saves + index.named("model.load")] or [0.0]
        ),
        "cli.self_s": index.per_op(total("cli.command", self_time=True)),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}


def unmeasured_metrics(missing: list[str]) -> list[str]:
    """Per-layer metrics whose every source span lost all of its hooks."""
    lost = {
        span_name
        for span_name in {h[2] for h in HOOKS}
        if all(f"{m}.{a}" in missing for m, a, s, _ in HOOKS if s == span_name)
    }
    return [
        name for name, (_, sources) in LAYER_METRICS.items()
        if sources and any(source in lost for source in sources)
    ]
