"""Command-line entry point: config-driven, reproducible experiments.

Subcommands: generate, train, sweep, predict, gradcheck. Experiment
settings live in a YAML config file with sections ``oracle``,
``protocol``, ``training``, and ``grid``; command-line flags override
config values. Exit codes: 0 success, 1 verification failure, 2
usage/config error, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import lstm, oracle, sweep as sweep_mod
from .errors import ConfigError, DivergenceError, ValidationError, at_least, check
from .model import ModelConfig, load_fields, load_model, save_model
from .oracle import BoucWenParams, LoadingProtocol
from .sweep import DEFAULT_GRID, fit_model
from .training import TrainConfig

_SPECIMENS = {"a": oracle.specimen_a, "b": oracle.specimen_b}


@dataclass(frozen=True)
class ExperimentConfig:
    """The YAML config: one section per field; an omitted or null one is its default."""

    oracle: BoucWenParams = BoucWenParams()
    protocol: LoadingProtocol = LoadingProtocol()
    training: TrainConfig = TrainConfig()
    grid: tuple[ModelConfig, ...] = DEFAULT_GRID


def load_config(path=None) -> ExperimentConfig:
    """Parse the YAML experiment config in one ``load_fields`` call.

    A missing or ``null`` section means its defaults; grid names must be
    plain file names with distinct ``_key``s, so ``--model`` picks exactly
    one. Any malformed input raises ConfigError.
    """
    doc = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        with open(path, "rb") as handle:  # so yaml reports a bad byte as YAMLError
            try:
                doc = yaml.safe_load(handle)
            except (yaml.YAMLError, RecursionError) as exc:  # deep nesting recurses
                raise ConfigError(f"{path} is not valid YAML: {exc}") from None
        if doc is None:
            doc = {}
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a mapping of sections")

    config = load_fields(ExperimentConfig, doc, "", ConfigError)
    grid = config.grid
    keys = [_key(model.name) for model in grid]
    for index, (model, key) in enumerate(zip(grid, keys)):
        where = f"grid[{index}].name"
        if any(char in model.name for char in "/\\\0"):
            message = f"{model.name!r} must be a plain file name, without '/', '\\' or NUL"
            raise ConfigError(f"{path}: {where} {message}", field=where)
        if key in keys[:index]:
            first = keys.index(key)
            raise ConfigError(
                f"{path}: grid[{first}] {grid[first].name!r} and {where} {model.name!r} "
                f"are ambiguous: both read as {key!r}",
                field=where,
            )
    return config


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


def _key(name: str) -> str:
    """What ``--model`` matches: the slug without dashes ('Model3a' is 'Model 3a')."""
    return _slug(name).replace("-", "")


def _find_model(grid, name: str) -> ModelConfig:
    for config in grid:
        if _key(config.name) == _key(name):
            return config
    names = ", ".join(repr(c.name) for c in grid)
    raise ConfigError(f"unknown model {name!r}; valid names: {names}")


def _check_parent(path: Path) -> None:
    parent = path.resolve().parent
    if not parent.is_dir():
        raise ConfigError(f"output directory does not exist: {parent}")


def _check_input(path: Path) -> None:
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")


def _apply_seed(cfg: TrainConfig, seed) -> TrainConfig:
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def cmd_generate(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    _check_parent(out)
    params = config.oracle
    if args.specimen is not None:
        params = _SPECIMENS[args.specimen]()
    protocol = config.protocol
    if args.delta_y is not None:
        protocol = dataclasses.replace(protocol, delta_y=args.delta_y)
    disp = oracle.generate_protocol(protocol)
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
    data = Path(args.data)
    out = Path(args.out)
    _check_input(data)
    _check_parent(out)
    report_path = Path(args.report) if args.report else out.with_suffix(".report.json")
    _check_parent(report_path)
    loss_path = Path(args.loss_csv) if args.loss_csv else None
    if loss_path is not None:
        _check_parent(loss_path)

    model_cfg = _find_model(config.grid, args.model)
    train_cfg = _apply_seed(config.training, args.seed)
    disp, force = oracle.read_csv(data)
    trained, report = fit_model(disp, force, model_cfg, train_cfg)
    save_model(out, trained)
    doc = json.dumps(
        {"model": model_cfg.name, **report.to_dict(include_timing=args.timing)},
        indent=2,
        sort_keys=True,
    )
    print(doc)
    report_path.write_text(doc + "\n")
    if loss_path is not None:
        _write_loss_csv(loss_path, report.losses)
    return 0


def _write_loss_csv(path, losses) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            handle.write(f"{epoch},{loss!r}\n")


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    data = Path(args.data)
    _check_input(data)
    out_dir = Path(args.out_dir)
    _check_parent(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output path exists and is not a directory: {out_dir}")

    train_cfg = _apply_seed(config.training, args.seed)
    report = sweep_mod.run_sweep(data, config.grid, train_cfg)
    out_dir.mkdir(exist_ok=True)  # only now, so a rejected sweep leaves no directory
    (out_dir / "report.json").write_text(
        report.to_json(include_timing=args.timing) + "\n"
    )
    sweep_mod.write_summary_csv(
        report, out_dir / "summary.csv", include_timing=args.timing
    )
    for entry in report.entries:
        slug = _slug(entry.config.name)
        _write_loss_csv(out_dir / f"loss_{slug}.csv", entry.report.losses)
        if entry.model is not None:
            save_model(out_dir / f"model_{slug}.json", entry.model)
            sweep_mod.emit_predictions(
                entry.model, *report.record, entry.report.predictions,
                out_dir / f"predictions_{slug}.csv",
            )
    for entry in report.entries:
        status = (
            "diverged"
            if entry.failed
            else f"test NRMSE {entry.report.test_nrmse:.2f}%"
        )
        print(f"{entry.config.name}: {status}")
    print(f"best model: {report.best_model}")
    return 0


def cmd_predict(args) -> int:
    data = Path(args.data)
    out = Path(args.out)
    _check_input(data)
    _check_input(Path(args.model))
    _check_parent(out)
    model = load_model(args.model)
    disp, force = oracle.read_csv(data)
    windows = sweep_mod.window(disp, force, model.stats, model.config.lookback)
    sweep_mod.emit_predictions(model, disp, force, sweep_mod.predict_record(model, windows), out)
    print(f"wrote {out}")
    return 0


def cmd_gradcheck(args) -> int:
    check(args, tolerance=at_least(0))
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
    gen.add_argument("--delta-y", type=float, dest="delta_y", help="override yield displacement")
    gen.add_argument("--specimen", choices=sorted(_SPECIMENS), help="use a built-in oracle preset")
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
