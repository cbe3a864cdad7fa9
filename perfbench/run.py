#!/usr/bin/env python3
"""bracelearn benchmark: time the real CLI commands and check their outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-3a --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn
    python3 perfbench/run.py --workload all --smoke      # toy sizes, no timing use

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every correctness gate held, 1 when
one failed, and 2 when the program sources are missing. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-3a", "predict-record", "sweep-grid")

#: Set-ups and fresh-interpreter imports per run; ``setup_s`` adds their medians.
SETUP_REPS = 9

#: The name each workload's timed command has in the printed report.
COMMAND_METRIC = {"train-3a": "train_s", "predict-record": "predict_s", "sweep-grid": "sweep_s"}

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS on one thread; set before numpy is first imported.

    On a 2-vCPU machine the library default of two threads makes every
    small matrix product wait for both vCPUs, so one busy neighbouring
    process slows ``predict`` by about two thirds; with one thread, by a
    few percent. See README.md.
    """
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_sources() -> None:
    if not (SRC / "bracelearn" / "__init__.py").is_file():
        fail(f"no bracelearn sources at {SRC}; run from a full checkout")


def load_program() -> None:
    """Import bracelearn from this checkout's sources."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import bracelearn

    if Path(bracelearn.__file__).resolve().parent != SRC / "bracelearn":
        fail(f"imported bracelearn from {bracelearn.__file__}, not {SRC}")


IMPORT_PROBE = ("import sys, time; started = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import bracelearn; print(time.perf_counter() - started)")


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import bracelearn (numpy and yaml too)."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_info() -> dict:
    """Machine, interpreter, numpy/BLAS build and thread settings of this run."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bracelearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "blas_threads": 1,  # set by pin_blas_threads
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for q in (75, 90, 95, 99):
        if len(values) * (100 - q) / 100 >= 10:
            best = (q, spans.percentile(values, q))
    return best


class Runner:
    """One workload run: set-ups, timed commands, gates, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        import workloads  # imports bracelearn, so only after load_program
        from bracelearn import cli

        self.cli = cli
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.recorder = spans.Recorder() if trace else None
        self.tracing = False
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def call(self, argv: list[str]) -> tuple[int, str]:
        """Run one CLI command with its output captured; returns (exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        span = self.recorder.span("cli.command") if self.tracing else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback from the program fails this command only
                traceback.print_exc()
                code = 1
        return code, err.getvalue().strip()

    @contextlib.contextmanager
    def traced(self, op: str, on: bool):
        if not on:
            yield
            return
        self.recorder.op = op
        self.tracing = True
        try:
            with spans.installed(self.recorder):
                yield
        finally:
            self.tracing = False

    def gate(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures += [f"{label}: {e}" for e in errors]

    def _check(self, ctx) -> tuple[list[str], int, int]:
        try:
            return self.workload.check(ctx)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], 0, 0

    def run(self, workdir: Path, import_s: float) -> dict:
        w = self.workload
        ctx = None
        setup_times = []
        for rep in range(SETUP_REPS):
            ctx = self.workloads.Context(workdir=workdir / f"setup-{rep}", seed=self.seed,
                                         smoke=self.smoke)
            ctx.workdir.mkdir(parents=True)
            with self.traced(f"setup-{rep}", self.trace):
                started = time.perf_counter()
                errors = w.prepare(ctx, lambda argv: self.call(argv)[0])
                setup_times.append(time.perf_counter() - started)
            self.gate(f"setup {rep}", errors)
            if errors:
                return self.result(setup_times, {}, [], import_s, None)

        self.gate("gates before", w.gates_before(ctx))
        times: dict[bool, list[float]] = {False: [], True: []}
        traced_ops = []
        argv = w.argv(ctx)
        started = time.perf_counter()
        while not self.failures:
            traced = self.trace and len(times[False]) > len(times[True])
            op = f"op-{len(times[False]) + len(times[True])}"
            gc.collect()
            with self.traced(op, traced):
                t0 = time.perf_counter()
                code, err = self.call(argv)
                elapsed = time.perf_counter() - t0
            self.attempted += 1
            errors, entries, entries_failed = (
                self._check(ctx) if code == 0 else ([f"exited {code}: {err}"], 0, 0)
            )
            self.attempted += entries
            self.failed += entries_failed + bool(errors)
            self.failures += [f"{op} {w.command}: {e}" for e in errors]
            times[traced].append(elapsed)
            if traced:
                traced_ops.append(op)
            # a traced run needs a traced and a warm untraced command
            enough = not self.trace or (times[True] and len(times[False]) > 1)
            if time.perf_counter() - started >= self.seconds and enough:
                break

        if not self.failures:
            self.gate("gates after", w.gates_after(ctx))
            if self.seed == 0 and not self.smoke:
                reference = json.loads((HERE / "reference.json").read_text()).get(w.name)
                self.gate("reference", ["no reference values recorded"] if reference is None
                          else self.workloads.compare_reference(ctx.values, reference))
        return self.result(setup_times, times, traced_ops, import_s, ctx)

    def result(self, setup_times, times, traced_ops, import_s, ctx) -> dict:
        plain = times.get(False, []) if times else []
        traced = times.get(True, []) if times else []
        done = ctx is not None and bool(ctx.values)
        correct = done and not self.failures
        if self.trace:
            # the first command runs cold, so it is left out of the comparison
            warm = plain[1:] or plain
            base = statistics.median(warm) if warm else 0.0
            overhead = statistics.median(traced) - base if warm and traced else 0.0
            metrics = spans.layer_metrics(
                self.recorder.spans, traced_ops, overhead, 100 * overhead / base if base else 0.0
            )
        else:
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "command_s": (statistics.median(plain) if plain else 0.0, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": self.trace,
            "smoke": self.smoke,
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed or (0 if correct else 1),
            "failures": self.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "import_s": import_s,
            "setup_times_s": setup_times,
            "command_times_s": plain,
            "traced_command_times_s": traced,
            "test_nrmse_pct": self.workload.test_nrmse(ctx) if done else None,
            "reference_values": ctx.values if done else None,
            "unmeasured_hooks": spans.missing_hooks() if self.trace else [],
        }


def report_lines(result: dict, seconds: float) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    name = result["workload"]
    lines = []
    metrics = result["metrics"]
    if not result["trace"]:
        plain = result["command_times_s"]
        detail = f"median of n={len(plain)} commands in {seconds:g} s"
        if plain:
            detail += f"; min {min(plain):.4f}, max {max(plain):.4f}"
            tail = tail_percentile(plain)
            if tail:
                detail += f"; p{tail[0]} {tail[1]:.4f}"
        lines.append(f"{name}: {COMMAND_METRIC[name]} = "
                     f"{metrics['command_s']['value']:.4f} s ({detail}) [command_s]")
        lines.append(f"{name}: setup_s = {metrics['setup_s']['value']:.4f} s "
                     f"(median import {result['import_s']:.4f} s + median set-up, "
                     f"{len(result['setup_times_s'])} of each)")
        lines.append(f"{name}: peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB")
        if result["test_nrmse_pct"] is not None:
            lines.append(f"{name}: test_nrmse_pct = {result['test_nrmse_pct']:.6f} %")
        lines.append(f"{name}: failed_ops_ratio = {result['failed'] / result['attempted']:.4f} "
                     f"ratio ({result['failed']} of {result['attempted']} operations)")
    else:
        for key, metric in metrics.items():
            lines.append(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
        traced = result["traced_command_times_s"]
        lines.append(f"{name}: tracing overhead from {len(result['command_times_s']) - 1} warm "
                     f"untraced and {len(traced)} traced commands")
        if result["unmeasured_hooks"]:
            lines.append(f"{name}: unmeasured hooks {result['unmeasured_hooks']}; "
                         f"metrics reported as 0: "
                         f"{spans.unmeasured_metrics(result['unmeasured_hooks'])}")
    for failure in result["failures"]:
        lines.append(f"{name}: FAILED {failure}")
    return lines


def run_one(args) -> int:
    load_program()
    import_s = 0.0 if args.trace else import_seconds()
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = out_dir / "work" / tag
    try:
        result = runner.run(workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = machine_info()
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if runner.recorder is not None:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        runner.recorder.write(out_dir / "traces" / f"{tag}.jsonl")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={args.smoke}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for line in report_lines(result, args.seconds):
        print(line)
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run each workload in its own process, so peak RSS is per workload."""
    check_sources()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(done.stderr)
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or done.returncode or (0 if summary["correct"] else 1)
        combined["correct"] = combined["correct"] and summary["correct"] and done.returncode == 0
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for key, metric in summary["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least one command; two when tracing)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (tiny protocol and grid, one epoch); no timing use")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
