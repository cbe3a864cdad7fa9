"""The benchmark's workloads: their inputs, the timed command, and the gates.

Each workload drives one real ``bracelearn`` command in-process through
``bracelearn.cli.main``. ``prepare`` builds the inputs from the workload
seed (this is the set-up that ``setup_s`` times), ``argv`` is the timed
command, ``check`` validates the outputs of every command, and
``gates_before``/``gates_after`` hold the untimed gates that run once per
run, before the first command and after the last.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from bracelearn import lstm
from bracelearn.dataset import denormalize, fit_norm, split_half
from bracelearn.model import ModelConfig, TrainedModel, save_model
from bracelearn.oracle import read_csv
from bracelearn.sweep import DEFAULT_GRID
from spans import slug

#: Relative tolerance of the default-seed reference values. Training for a
#: few epochs amplifies a reordered floating-point sum to about 1e-10, far
#: below this, while any change to the arithmetic itself lands far above.
REFERENCE_RTOL = 1e-6

#: Recomputed predictions must match the CSV to this share of the force range.
SAMPLE_RTOL = 1e-9

#: Windows of the predict-record output recomputed through ``cell_forward``.
SAMPLE_WINDOWS = 24

#: Toy protocol for smoke mode: 3 amplitudes x 1 cycle x 40 points + 1 = 121 samples.
SMOKE_PROTOCOL = {"amplitude_factors": [0.5, 1, 2], "cycles_per_amplitude": 1,
                  "points_per_cycle": 40}

#: Toy grid for smoke mode: the built-in names at a few neurons each.
SMOKE_GRID = [
    {"name": c.name, "neurons": 2 + i % 3, "hidden_layers": 1 + i % 2, "lookback": 3 + i % 4}
    for i, c in enumerate(DEFAULT_GRID)
]


@dataclass
class Context:
    """Inputs and output paths of one workload run."""

    workdir: Path
    seed: int
    smoke: bool
    config: Path | None = None
    data: Path | None = None
    model: Path | None = None
    out: Path | None = None
    net: object = None  # predict-record: the seeded network, for the recomputation gate
    stats: object = None  # predict-record: its normalization statistics
    first_output: bytes | None = None
    values: dict = field(default_factory=dict)


def _config(ctx: Context, doc: dict) -> None:
    if ctx.smoke:
        doc = {**doc, "protocol": {**doc.get("protocol", {}), **SMOKE_PROTOCOL}}
    ctx.config = ctx.workdir / "config.yaml"
    ctx.config.write_text(yaml.safe_dump(doc, sort_keys=True))


def _generate(ctx: Context, cli_main) -> list[str]:
    ctx.data = ctx.workdir / "data.csv"
    argv = ["generate", "--config", str(ctx.config), "--out", str(ctx.data)]
    code = cli_main(argv)
    return [] if code == 0 else [f"generate exited {code}"]


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def check_predictions(path: Path, data_rows: list[list[str]], lookback: int) -> list[str]:
    """A prediction CSV covers every data row; the first lookback-1 are empty."""
    rows = _rows(path)
    if not rows or rows[0] != ["t", "displacement", "force_true", "force_pred", "split"]:
        return [f"{path.name}: bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != len(data_rows):
        return [f"{path.name}: {len(body)} rows, expected {len(data_rows)}"]
    cut = (len(body) + 1) // 2
    for i, (row, source) in enumerate(zip(body, data_rows)):
        if len(row) != 5 or row[:2] != source[:2] or row[2] != source[2]:
            return [f"{path.name}: row {i} does not carry the data row {source}"]
        if row[4] != ("train" if i < cut else "test"):
            return [f"{path.name}: row {i} has split {row[4]!r}"]
        if i < lookback - 1:
            if row[3] != "":
                return [f"{path.name}: row {i} should have no prediction"]
        elif row[3] == "" or not math.isfinite(float(row[3])):
            return [f"{path.name}: row {i} prediction {row[3]!r} is not finite"]
    return []


def _nrmse(pred, true) -> float:
    pred, true = np.asarray(pred), np.asarray(true)
    return 100.0 * math.sqrt(float(np.mean((pred - true) ** 2))) / float(np.ptp(true))


def _close(name: str, got, want) -> list[str]:
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"reference {name}: {len(got)} values, expected {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _close(f"{name}[{i}]", g, w)]
    if isinstance(want, str) or want is None:
        return [] if got == want else [f"reference {name}: {got!r} != {want!r}"]
    if not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
        return [f"reference {name}: {got!r} differs from {want!r} by more than {REFERENCE_RTOL:g}"]
    return []


def compare_reference(values: dict, reference: dict) -> list[str]:
    return [e for key, want in reference.items() for e in _close(key, values.get(key), want)]


class Workload:
    """Defaults shared by the workloads: no extra gates, NRMSE from the values."""

    name: str
    command: str

    def gates_before(self, ctx: Context) -> list[str]:
        return []

    def gates_after(self, ctx: Context) -> list[str]:
        return []

    def test_nrmse(self, ctx: Context) -> float | None:
        return ctx.values["test_nrmse"]


# --------------------------------------------------------------------------
# train-3a
# --------------------------------------------------------------------------


class TrainModel3a(Workload):
    """``bracelearn train --model "Model 3a"`` on the specimen-a record.

    Sends most of its time through ``lstm`` forward/backward and the
    ``training`` update; its only inference is the two evaluation passes,
    and it trains one model, so it is the control for sweep-level changes.
    """

    name = "train-3a"
    command = "train"
    model_name = "Model 3a"

    def epochs(self, ctx: Context) -> int:
        return 1 if ctx.smoke else 2

    def prepare(self, ctx: Context, cli_main) -> list[str]:
        # patience above the budget: early stopping cannot cut the run short
        doc = {"training": {"max_epochs": self.epochs(ctx), "early_stop_patience": 25}}
        if ctx.smoke:
            doc["grid"] = [SMOKE_GRID[2]]
        _config(ctx, doc)
        ctx.out = ctx.workdir / "model.json"
        return _generate(ctx, cli_main)

    def argv(self, ctx: Context) -> list[str]:
        return ["train", "--config", str(ctx.config), "--data", str(ctx.data),
                "--model", self.model_name, "--out", str(ctx.out), "--seed", str(ctx.seed)]

    def check(self, ctx: Context) -> tuple[list[str], int, int]:
        report_path = ctx.out.with_suffix(".report.json")
        raw = report_path.read_bytes()
        report = json.loads(raw)
        errors = []
        losses = report["losses"]
        if report["epochs_run"] != self.epochs(ctx) or len(losses) != self.epochs(ctx):
            errors.append(f"ran {report['epochs_run']} epochs, budget {self.epochs(ctx)}")
        if not all(math.isfinite(v) for v in losses):
            errors.append(f"non-finite loss in {losses}")
        for key in ("train_nrmse", "test_nrmse"):
            if not (isinstance(report[key], float) and math.isfinite(report[key])):
                errors.append(f"{key} is {report[key]!r}")
        if not ctx.out.is_file():
            errors.append("no model file written")
        errors += _same_output(ctx, raw, report_path.name)
        ctx.values = {"losses": losses, "train_nrmse": report["train_nrmse"],
                      "test_nrmse": report["test_nrmse"]}
        return errors, 0, 0

    def gates_before(self, ctx: Context) -> list[str]:
        # acceptance criterion 1's network family; see README.md for why
        # the workload seed picks one of its 20 members
        rng = np.random.default_rng(ctx.seed % 20)
        net = lstm.init_network(4, 2, 1, rng=rng)
        window = rng.normal(size=(5, 1))
        target = float(rng.normal())
        error = lstm.grad_check(net, window, target, eps=1e-5)
        return [] if error <= 1e-5 else [f"grad_check relative error {error:.3e} > 1e-5"]


def _same_output(ctx: Context, raw: bytes, label: str) -> list[str]:
    """Same-seed commands of one run must write byte-identical artifacts."""
    if ctx.first_output is None:
        ctx.first_output = raw
        return []
    return [] if raw == ctx.first_output else [f"{label} differs from the first command's"]


# --------------------------------------------------------------------------
# predict-record
# --------------------------------------------------------------------------


class PredictRecord(Workload):
    """``bracelearn predict`` with a seeded Model 3a over the full record.

    Forward-only: no backward, no Adam. The only workload that runs
    ``model.load_model``; its peak memory is set by the predict tape.
    """

    name = "predict-record"
    command = "predict"

    def model_config(self, ctx: Context) -> ModelConfig:
        if ctx.smoke:
            return ModelConfig(**SMOKE_GRID[2])
        return next(c for c in DEFAULT_GRID if c.name == "Model 3a")

    def prepare(self, ctx: Context, cli_main) -> list[str]:
        _config(ctx, {})
        errors = _generate(ctx, cli_main)
        if errors:
            return errors
        disp, force = read_csv(ctx.data)
        (train_x, train_y), _ = split_half(disp, force)
        ctx.stats = fit_norm(train_x, train_y)
        config = self.model_config(ctx)
        ctx.net = lstm.init_network(
            config.neurons, config.hidden_layers, rng=np.random.default_rng(ctx.seed)
        )
        ctx.model = ctx.workdir / "model.json"
        save_model(ctx.model, TrainedModel(net=ctx.net, config=config, stats=ctx.stats))
        ctx.out = ctx.workdir / "predictions.csv"
        return []

    def argv(self, ctx: Context) -> list[str]:
        return ["predict", "--model", str(ctx.model), "--data", str(ctx.data),
                "--out", str(ctx.out)]

    def check(self, ctx: Context) -> tuple[list[str], int, int]:
        data_rows = _rows(ctx.data)[1:]
        lookback = self.model_config(ctx).lookback
        errors = check_predictions(ctx.out, data_rows, lookback)
        errors += _same_output(ctx, ctx.out.read_bytes(), ctx.out.name)
        if not errors:
            rows = _rows(ctx.out)[1:]
            preds = [float(r[3]) for r in rows[lookback - 1 :]]
            test = [(float(r[3]), float(r[2])) for r in rows if r[4] == "test" and r[3]]
            ctx.values = {
                "test_nrmse": _nrmse(*zip(*test)),
                "pred_sum": math.fsum(preds),
            }
        return errors, 0, 0

    def gates_after(self, ctx: Context) -> list[str]:
        """Recompute a seeded sample of windows through ``cell_forward``."""
        rows = _rows(ctx.out)[1:]
        disp = np.array([float(r[1]) for r in rows])
        force = np.array([float(r[2]) for r in rows])
        lookback = self.model_config(ctx).lookback
        scale = float(np.ptp(force))
        rng = np.random.default_rng(ctx.seed)
        starts = rng.choice(len(rows) - lookback + 1, size=SAMPLE_WINDOWS, replace=False)
        errors = []
        for start in starts:
            seq = [np.array([(d - ctx.stats.mean_x) / ctx.stats.std_x])
                   for d in disp[start : start + lookback]]
            for cell in ctx.net.cells:
                state = lstm.CellState.zeros(cell.hidden_size)
                out = []
                for x_t in seq:
                    state = lstm.cell_forward(cell, x_t, state)
                    out.append(state.h)
                seq = out
            pred = float(seq[-1] @ ctx.net.W_out + ctx.net.b_out[0])
            want = float(denormalize(pred, ctx.stats))
            got = float(rows[start + lookback - 1][3])
            if abs(got - want) > SAMPLE_RTOL * scale:
                errors.append(f"window {start}: CSV {got!r} vs cell_forward {want!r}")
        return errors


# --------------------------------------------------------------------------
# sweep-grid
# --------------------------------------------------------------------------


class SweepGrid(Workload):
    """``bracelearn sweep`` over the built-in seven-model grid.

    Mixes widths 5-40, depths 5-20 and lookbacks 10-40, and predicts each
    model's record twice (evaluation, then ``emit_predictions``). The only
    workload where grid parallelism or prediction reuse can show.
    """

    name = "sweep-grid"
    command = "sweep"

    #: 13 amplitudes x 2 cycles x 20 points + 1 = 521 samples, one epoch.
    PROTOCOL = {"points_per_cycle": 20}

    def grid(self, ctx: Context) -> list[dict]:
        if ctx.smoke:
            return SMOKE_GRID
        return [{"name": c.name, "lookback": c.lookback} for c in DEFAULT_GRID]

    def prepare(self, ctx: Context, cli_main) -> list[str]:
        doc = {"protocol": dict(self.PROTOCOL), "training": {"max_epochs": 1}}
        if ctx.smoke:
            doc["grid"] = SMOKE_GRID
        _config(ctx, doc)
        ctx.out = ctx.workdir / "study"
        return _generate(ctx, cli_main)

    def argv(self, ctx: Context) -> list[str]:
        return ["sweep", "--config", str(ctx.config), "--data", str(ctx.data),
                "--out-dir", str(ctx.out), "--seed", str(ctx.seed)]

    def check(self, ctx: Context) -> tuple[list[str], int, int]:
        raw = (ctx.out / "report.json").read_bytes()
        report = json.loads(raw)
        grid = self.grid(ctx)
        entries = report["entries"]
        errors = []
        names = [e["model"] for e in entries]
        if names != [g["name"] for g in grid]:
            errors.append(f"entries {names} are not the grid in order")
        diverged = [e["model"] for e in entries
                    if not isinstance(e.get("test_nrmse"), float)
                    or not math.isfinite(e["test_nrmse"])]
        if diverged:
            errors.append(f"diverged entries: {diverged}")
        finished = [e for e in entries if e["model"] not in diverged]
        if finished:
            best = min(finished, key=lambda e: e["test_nrmse"])["model"]
            if report["best_model"] != best:
                errors.append(f"best_model {report['best_model']!r}, lowest NRMSE is {best!r}")
        data_rows = _rows(ctx.data)[1:]
        for entry, spec in zip(entries, grid):
            name = slug(entry["model"])
            if not (ctx.out / f"model_{name}.json").is_file():
                errors.append(f"no model file for {entry['model']}")
            pred_path = ctx.out / f"predictions_{name}.csv"
            if not pred_path.is_file():
                errors.append(f"no prediction CSV for {entry['model']}")
                continue
            errors += check_predictions(pred_path, data_rows, spec["lookback"])
        errors += _same_output(ctx, raw, "report.json")
        ctx.values = {
            "best_model": report["best_model"],
            "test_nrmse": [e.get("test_nrmse") for e in entries],
            "losses": [v for e in entries for v in e.get("losses", [])],
        }
        return errors, len(entries), len(diverged)

    def test_nrmse(self, ctx: Context) -> float | None:
        return min((v for v in ctx.values["test_nrmse"] if isinstance(v, float)), default=None)


WORKLOADS = {w.name: w for w in (TrainModel3a(), PredictRecord(), SweepGrid())}
