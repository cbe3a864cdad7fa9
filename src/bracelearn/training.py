"""Mini-batch Adam training and the NRMSE error metric.

Training operates on normalized windowed data; the headline error metric
(NRMSE, percent of the true force range) is computed in physical units
after denormalization. Every update works on one vector: the batch
gradient's ``flat`` is norm-clipped and Adam steps ``net.flat`` in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import NormStats, WindowedDataset, denormalize
from .errors import DegenerateDataError, DivergenceError, ValidationError, at_least, check, count
from .lstm import NetworkParams, backward_batch, forward_batch, predict

#: An epoch must beat the best loss by at least this much to reset patience.
MIN_IMPROVEMENT = 1e-9

#: Adam's moment decay rates and denominator guard: Kingma & Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The ``training`` section: the settings of one run.

    Adam's decay rates and epsilon are not settings: the module constants
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` fix them.
    """

    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    clip_norm: float = 1.0  # global gradient-norm ceiling; 0 disables clipping
    seed: int = 0
    early_stop_patience: int = 25

    def __post_init__(self):
        check(
            self, learning_rate=at_least(0), batch_size=count(1), max_epochs=count(1),
            clip_norm=at_least(0), seed=count(0), early_stop_patience=count(1),
        )


@dataclass
class TrainReport:
    """Outcome of one training run."""

    losses: list[float] = field(default_factory=list)
    seed: int = 0
    wall_seconds: float = 0.0
    train_nrmse: float | None = None
    test_nrmse: float | None = None

    @property
    def epochs_run(self) -> int:
        """Epochs that finished: one loss each, also when training diverged."""
        return len(self.losses)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "epochs_run": self.epochs_run,
            "seed": self.seed,
            "final_loss": self.losses[-1] if self.losses else None,
            "train_nrmse": self.train_nrmse,
            "test_nrmse": self.test_nrmse,
            "losses": list(self.losses),
        }
        # wall-clock time is inherently non-deterministic, so reproducible
        # artifacts leave it out unless explicitly requested
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
        return out


def nrmse(pred, target) -> float:
    """Root-mean-square error normalized by the target range, in percent."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size < 2:
        raise ValidationError(
            f"pred and target must be equal-length with at least 2 samples, "
            f"got {pred.shape} vs {target.shape}"
        )
    spread = float(target.max() - target.min())
    if spread == 0.0:
        raise DegenerateDataError("target series is constant; NRMSE is undefined")
    return 100.0 * math.sqrt(float(np.mean((pred - target) ** 2))) / spread


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place so its norm is <= max_norm.

    Returns the pre-clip norm. ``max_norm`` of 0 disables clipping. The
    squares are summed by numpy's pairwise sum rather than a BLAS dot,
    which splits its sum over threads, so the norm has the same bits at
    any BLAS thread count.
    """
    total = math.sqrt(float(np.sum(grad * grad)))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return total


class _AdamState:
    """First/second moment accumulators for one flat parameter vector.

    Steps with the module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``
    and the config's learning rate, through two scratch vectors, so a step
    allocates nothing.
    """

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
        """One bias-corrected Adam update of ``params``, in place."""
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        num, den = self._num, self._den
        # params -= lr * (m / correction1) / (sqrt(v / correction2) + eps), op for op
        self.m *= ADAM_BETA1
        self.m += np.multiply(1.0 - ADAM_BETA1, grad, out=num)
        self.v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=num)
        self.v += np.multiply(num, grad, out=num)
        np.divide(self.v, correction2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(self.m, correction1, out=num)
        num *= cfg.learning_rate
        params -= np.divide(num, den, out=num)


def evaluate_nrmse(net: NetworkParams, data: WindowedDataset, stats: NormStats) -> float:
    """NRMSE of the network on a windowed dataset, in physical force units."""
    preds = predict(net, data.inputs)
    return nrmse(denormalize(preds, stats), denormalize(data.targets, stats))


def train(
    net: NetworkParams,
    train_set: WindowedDataset,
    cfg: TrainConfig,
) -> tuple[NetworkParams, TrainReport]:
    """Fit the network with shuffled mini-batch Adam; parameters update in place.

    Each epoch shuffles the window order with the seeded generator,
    accumulates mean gradients per batch, clips the global gradient norm,
    and applies Adam with bias correction. Training halts at
    ``max_epochs`` or once the epoch loss has failed to improve on the
    best seen by at least MIN_IMPROVEMENT for ``early_stop_patience``
    consecutive epochs. It only trains: ``sweep.fit_model`` evaluates.

    The call allocates one ``Tape`` and refills it for every batch, so the
    tape and backward buffers are allocated once and only one batch's
    activations are alive at a time. A dataset of another input width is
    rejected by the first batch's forward pass, a ShapeError naming both
    widths, before any parameter moves.
    """
    rng = np.random.default_rng(cfg.seed)
    inputs = train_set.inputs
    targets = train_set.targets
    num = train_set.num_windows
    adam = _AdamState(net.flat)
    tape = None

    started = time.perf_counter()
    losses: list[float] = []
    best = math.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(num)
        accumulated = 0.0
        for start in range(0, num, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            preds, tape = forward_batch(net, inputs[idx], tape)
            residual = preds - targets[idx]
            # an overflowing loss is the divergence signal, not a warning
            with np.errstate(over="ignore"):
                batch_loss = float(np.mean(residual * residual))
            if not math.isfinite(batch_loss):
                raise DivergenceError(
                    f"training loss became non-finite at epoch {epoch}",
                    epoch=epoch,
                    losses=losses,
                )
            accumulated += batch_loss * len(idx)
            grad = backward_batch(net, tape, (2.0 / len(idx)) * residual).flat
            clip_global_norm(grad, cfg.clip_norm)
            adam.step(net.flat, grad, cfg)
        epoch_loss = accumulated / num
        losses.append(epoch_loss)
        if best - epoch_loss >= MIN_IMPROVEMENT:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    return net, TrainReport(
        losses=losses,
        seed=cfg.seed,
        wall_seconds=time.perf_counter() - started,
    )
