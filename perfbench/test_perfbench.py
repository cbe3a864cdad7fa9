"""Tests of the benchmark itself, at toy sizes and with no timing bounds.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_all_prints_each_end_to_end_metric_by_name():
    done = _bench("--workload", "all", "--seed", "2", "--seconds", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    for name in ("train_s", "predict_s", "sweep_s", "setup_s", "peak_rss_mb",
                 "test_nrmse_pct", "failed_ops_ratio"):
        assert f" {name} = " in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _runner(name, tmp_path, trace=False, seed=1):
    runner = run.Runner(name, seed, 0, trace, True)
    return runner, runner.run(tmp_path / "work", 0.0)


def test_wrong_predictions_fail_the_cell_forward_gate(tmp_path, monkeypatch):
    import bracelearn.model

    original = bracelearn.model.predict
    monkeypatch.setattr(bracelearn.model, "predict", lambda net, w: original(net, w) + 1e-6)
    _, result = _runner("predict-record", tmp_path)
    assert result["correct"] is False
    assert any("cell_forward" in f for f in result["failures"])


def test_wrong_gradients_fail_the_gradcheck_gate(tmp_path, monkeypatch):
    import bracelearn.lstm

    original = bracelearn.lstm.backward_batch

    def skewed(net, tape, d_preds):
        grads = original(net, tape, d_preds)
        grads.W_out *= 1.001
        return grads

    monkeypatch.setattr(bracelearn.lstm, "backward_batch", skewed)
    _, result = _runner("train-3a", tmp_path)
    assert result["correct"] is False
    assert any("grad_check" in f for f in result["failures"])


def test_missing_hook_is_reported_unmeasured(tmp_path, monkeypatch):
    import bracelearn.sweep

    monkeypatch.delattr(bracelearn.sweep, "emit_predictions")
    _, result = _runner("train-3a", tmp_path, trace=True)
    assert result["correct"] is True
    assert result["unmeasured_hooks"] == ["bracelearn.sweep.emit_predictions"]
    lost = spans.unmeasured_metrics(result["unmeasured_hooks"])
    assert "sweep.emit_predictions_s" in lost
    assert "lstm.forward_batch_ms_p50" not in lost
    assert result["metrics"]["training.batches"]["value"] > 0


def test_self_time_and_critical_path_from_spans():
    def span(name, start, end, parent, index, **attrs):
        return spans.Span(name, start, end, parent, "op-1", index, attrs)

    recorded = [
        span("cli.command", 0.0, 10.0, None, 0),
        span("sweep.fit_model", 1.0, 4.0, 0, 1, model="Model 1"),
        span("sweep.fit_model", 4.0, 9.0, 0, 2, model="Model 3c"),
    ]
    metrics = spans.layer_metrics(recorded, ["op-1"], 0.5, 5.0)
    assert metrics["cli.self_s"] == (pytest.approx(2.0), "s")
    assert metrics["sweep.critical_path_share"] == (pytest.approx(5.0 / 8.0), "ratio")
    assert metrics["sweep.fit_model_s.model-3c"] == (pytest.approx(5.0), "s")
    assert metrics["trace.overhead_pct"] == (5.0, "%")


def test_reference_tolerance_passes_rounding_but_not_drift():
    reference = {"losses": [0.25, 0.02], "best_model": "Model 3b"}
    rounded = {"losses": [0.25 * (1 + 1e-10), 0.02], "best_model": "Model 3b"}
    drifted = {"losses": [0.25 * (1 + 1e-4), 0.02], "best_model": "Model 3a"}
    assert workloads.compare_reference(rounded, reference) == []
    assert len(workloads.compare_reference(drifted, reference)) == 2
