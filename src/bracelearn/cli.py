"""Command-line entry point: config-driven, reproducible experiments.

Subcommands: generate, train, sweep, predict, gradcheck. Experiment
settings live in a YAML config file with sections ``oracle``,
``protocol``, ``training``, and ``grid``; command-line flags override
config values. Exit codes: 0 success, 1 verification failure, 2
usage/config error, 3 runtime divergence, 4 a sweep worker process died.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lstm, oracle, sweep as sweep_mod
from .errors import (
    ConfigError, DegenerateDataError, DivergenceError, InsufficientDataError, ModelFormatError,
    ValidationError, WorkerError, at_least, check, count,
)
from .model import (
    MAX_PARAMETERS, MAX_WINDOW_ACTIVATIONS, ModelConfig, load_fields, load_model, save_model,
)
from .oracle import BoucWenParams, LoadingProtocol
from .sweep import DEFAULT_GRID, fit_model
from .training import TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """The YAML config: one section per field; an omitted or null one is its default."""

    oracle: BoucWenParams = BoucWenParams()
    protocol: LoadingProtocol = LoadingProtocol()
    training: TrainConfig = TrainConfig()
    grid: tuple[ModelConfig, ...] = DEFAULT_GRID


def load_config(path=None) -> ExperimentConfig:
    """Parse the YAML experiment config in one ``load_fields`` call.

    No file means every default, and a missing or ``null`` section its
    defaults. The grid's names must pass ``sweep.check_grid_names``. Any
    malformed input raises ConfigError, whose message names the file.
    """
    if path is None:
        return ExperimentConfig()
    import yaml  # here, so a command without --config never loads it

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "rb") as handle:  # so yaml reports a bad byte as YAMLError
        try:
            doc = yaml.safe_load(handle)
        # deep nesting recurses; an integer past Python's digit limit raises ValueError
        except (yaml.YAMLError, RecursionError, ValueError) as exc:
            raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping of sections")
    try:
        config = load_fields(ExperimentConfig, doc, "")
        sweep_mod.check_grid_names(config.grid)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}", field=exc.field) from exc
    return config


def _find_model(grid, name: str) -> ModelConfig:
    for config in grid:
        if sweep_mod.name_key(config.name) == sweep_mod.name_key(name):
            return config
    names = ", ".join(repr(c.name) for c in grid)
    raise ConfigError(f"unknown model {name!r}; valid names: {names}")


def _preflight(inputs: dict, outputs: dict, out_dir_files=()) -> None:
    """Reject, before any work, paths the command cannot read or write.

    ``inputs`` and ``outputs`` map each flag to its path, or to None when
    it is unset. An input must be a file. An output's parent directory
    must exist, and an existing output, counting the ``out_dir_files`` a
    sweep will write in ``--out-dir``, must be a directory exactly when
    its flag is ``--out-dir``. No two paths may be one file, so no command
    overwrites its own input or one output with another.
    """
    inputs = {flag: Path(path) for flag, path in inputs.items() if path is not None}
    outputs = {flag: Path(path) for flag, path in outputs.items() if path is not None}
    for path in inputs.values():
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
    for path in outputs.values():
        parent = path.resolve().parent
        if not parent.is_dir():
            raise ConfigError(f"output directory does not exist: {parent}")
    for name in out_dir_files:
        outputs[f"--out-dir {name}"] = outputs["--out-dir"] / name
    for flag, path in outputs.items():
        directory = flag == "--out-dir"
        if path.exists() and path.is_dir() != directory:
            kind = "is not a directory" if directory else "is a directory"
            raise ConfigError(f"output path exists and {kind}: {path}")
    seen = {}
    for flag, path in {**inputs, **outputs}.items():
        first = seen.setdefault(path.resolve(), flag)
        if first != flag:
            raise ConfigError(f"{first} and {flag} are the same file: {path}")


def _apply_seed(cfg: TrainConfig, seed) -> TrainConfig:
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def cmd_generate(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    _preflight({"--config": args.config}, {"--out": out})
    params = config.oracle
    if args.specimen is not None:
        params = oracle.SPECIMENS[args.specimen]
    disp = oracle.generate_protocol(config.protocol)
    force = oracle.simulate(params, disp)
    oracle.write_csv(out, disp, force)
    print(
        f"wrote {out}: {len(disp)} samples, "
        f"peak displacement {disp.values.max():g}/{disp.values.min():g}, "
        f"peak force {force.values.max():g}/{force.values.min():g}"
    )
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    report_path = Path(args.report) if args.report else out.with_suffix(".report.json")
    loss_path = Path(args.loss_csv) if args.loss_csv else None
    _preflight(
        {"--config": args.config, "--data": args.data},
        {"--out": out, "--report": report_path, "--loss-csv": loss_path},
    )

    model_cfg = _find_model(config.grid, args.model)
    train_cfg = _apply_seed(config.training, args.seed)
    disp, force = oracle.read_csv(args.data)
    trained, report, _ = fit_model(disp, force, model_cfg, train_cfg)
    save_model(out, trained)
    doc = json.dumps(
        {"model": model_cfg.name, **report.to_dict(include_timing=args.timing)},
        indent=2,
        sort_keys=True,
    )
    print(doc)
    report_path.write_text(doc + "\n")
    if loss_path is not None:
        sweep_mod.write_loss_csv(loss_path, report.losses)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    files = [file for model in config.grid for file in sweep_mod.entry_files(model.name)]
    _preflight({"--config": args.config, "--data": args.data}, {"--out-dir": out_dir},
               ["report.json", "summary.csv", *files])

    train_cfg = _apply_seed(config.training, args.seed)
    report = sweep_mod.run_sweep(args.data, out_dir, config.grid, train_cfg)
    # report.json last: its presence marks a sweep whose every entry finished
    sweep_mod.write_summary_csv(
        report, out_dir / "summary.csv", include_timing=args.timing
    )
    (out_dir / "report.json").write_text(
        report.to_json(include_timing=args.timing) + "\n"
    )
    for entry in report.entries:
        status = (
            sweep_mod.DIVERGED
            if entry.failed
            else f"test NRMSE {entry.report.test_nrmse:.2f}%"
        )
        print(f"{entry.config.name}: {status}")
    print(f"best model: {report.best_model}")
    return 0


def cmd_predict(args) -> int:
    out = Path(args.out)
    _preflight({"--model": args.model, "--data": args.data}, {"--out": out})
    model = load_model(args.model)
    if model.net.input_dim != 1:
        message = f"the network takes {model.net.input_dim} inputs per step, but a data CSV gives 1"
        raise ModelFormatError(f"{args.model}: {message}", field="parameters")
    disp, force = oracle.read_csv(args.data)
    data = sweep_mod.window(disp, force, model.stats, model.config.lookback)
    # a prediction past the float range is rejected before any file is opened, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        preds = model.predict(data.inputs)
    bad = np.flatnonzero(~np.isfinite(preds))
    if bad.size:
        sample = bad[0] + model.config.lookback - 1  # the sample window bad[0] ends in
        message = f"predicted force must be finite, got {preds[bad[0]]} at sample {sample}"
        raise ValidationError(f"{args.model}: {message}")
    sweep_mod.emit_predictions(model, disp, force, preds, out)
    print(f"wrote {out}")
    return 0


def cmd_gradcheck(args) -> int:
    check(args, hidden=count(1), layers=count(1), lookback=count(1), seed=count(0),
          tolerance=at_least(0))
    size = lstm.parameter_count(args.hidden, args.layers)
    if size > MAX_PARAMETERS:
        raise ValidationError(
            f"--hidden {args.hidden} x --layers {args.layers} gives {size} parameters, "
            f"more than the {MAX_PARAMETERS} allowed"
        )
    activations = args.lookback * args.hidden * args.layers
    if activations > MAX_WINDOW_ACTIVATIONS:
        raise ValidationError(
            f"--lookback {args.lookback} x --hidden {args.hidden} x --layers {args.layers} "
            f"gives {activations} activations per window, "
            f"more than the {MAX_WINDOW_ACTIVATIONS} allowed"
        )
    rng = np.random.default_rng(args.seed)
    net = lstm.init_network(args.hidden, args.layers, 1, rng=rng)
    window = rng.normal(size=(args.lookback, 1))
    target = float(rng.normal())
    error = lstm.grad_check(net, window, target, eps=args.eps)
    status = "PASS" if error <= args.tolerance else "FAIL"
    print(f"{status}: max relative gradient error {error:.3e} (tolerance {args.tolerance:g})")
    return 0 if error <= args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracelearn",
        description="Train LSTM models of structural-brace hysteresis on synthetic cyclic-test data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a protocol/force CSV dataset")
    gen.add_argument("--config", help="YAML experiment config")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--specimen", choices=sorted(oracle.SPECIMENS),
                     help="use a built-in oracle preset")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train one grid model on a dataset")
    tr.add_argument("--config", help="YAML experiment config")
    tr.add_argument("--data", required=True, help="input CSV dataset")
    tr.add_argument("--model", required=True, help="grid model name, e.g. 'Model 3a'")
    tr.add_argument("--out", required=True, help="output model JSON path")
    tr.add_argument(
        "--report",
        help="where to write the report JSON (default: next to the model file)",
    )
    tr.add_argument("--loss-csv", help="write the epoch,loss curve here")
    tr.add_argument("--seed", type=int, help="override the master seed")
    tr.add_argument("--timing", action="store_true", help="include wall-clock seconds in reports")
    tr.set_defaults(func=cmd_train)

    sw = sub.add_parser("sweep", help="train the whole grid and compare")
    sw.add_argument("--config", help="YAML experiment config")
    sw.add_argument("--data", required=True, help="input CSV dataset")
    sw.add_argument("--out-dir", required=True, help="directory for sweep artifacts")
    sw.add_argument("--seed", type=int, help="override the master seed")
    sw.add_argument("--timing", action="store_true", help="include wall-clock seconds in reports")
    sw.set_defaults(func=cmd_sweep)

    pr = sub.add_parser("predict", help="emit a prediction CSV from a saved model")
    pr.add_argument("--model", required=True, help="model JSON path")
    pr.add_argument("--data", required=True, help="input CSV dataset")
    pr.add_argument("--out", required=True, help="output prediction CSV")
    pr.set_defaults(func=cmd_predict)

    gc = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    gc.add_argument("--hidden", type=int, default=4)
    gc.add_argument("--layers", type=int, default=2)
    gc.add_argument("--lookback", type=int, default=5)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--eps", type=float, default=1e-5)
    gc.add_argument("--tolerance", type=float, default=1e-5)
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # only a --data record can be too short, have no usable spread or overflow its scaling
    except (InsufficientDataError, DegenerateDataError) as exc:
        print(f"error: {args.data}: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
