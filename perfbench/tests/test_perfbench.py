"""Tests of the benchmark itself, at the seconds-long --tiny input size."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload, *extra):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    text, result = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    reported = {line.split()[1]: line.split()[3] for line in text if line.startswith("reported ")}
    commands = [c for c, _ in WORKLOADS[workload].steps[1:]]
    assert set(reported) >= {c + "_s" for c in commands} | {"test_sqrt_pehe", "failed_frac"}
    assert float(reported["failed_frac"]) == 0.0
    assert any(line.startswith("env: ") for line in text)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_a_nested_span_tree(workload):
    report = run.run_workload(ROOT, workload, seed=3, seconds=1, trace=True, tiny=True)
    assert report["correct"], report["failures"]
    assert list(report["metrics"]) == list(tracing.metric_units())
    assert all(math.isfinite(v) for v in report["metrics"].values())
    spans = report["spans"]
    assert report["metrics"]["trace.spans"] == len(spans) > 0
    assert tracing.nesting_errors(spans) == []
    for name, stats in tracing.span_stats(spans).items():
        assert stats["self_s"] >= 0, name
        assert stats["busy_s"] >= stats["self_s"], name
    # every span hangs under the command that caused it
    roots = {s[2] for s in spans if s[1] < 0}
    assert roots == {"cmd." + c for c, _ in WORKLOADS[workload].steps}


def test_injected_failure_raises_failed_frac():
    text, result = tiny("ihdp_train", "--fail", "fit")
    assert not result["correct"]
    assert result["failed"] >= 1
    failed_frac = [float(line.split()[3]) for line in text if line.startswith("reported failed_frac")]
    assert failed_frac == [pytest.approx(result["failed"] / result["attempted"], rel=1e-5)]
    assert any(line.startswith("FAILED fit exited 1") for line in text)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ihdp_train", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile(range(1, 20)) == ("max", 19.0)
    assert tracing.tail_percentile(range(1, 21)) == ("p50", 10.0)
    assert tracing.tail_percentile(range(1, 101)) == ("p90", 90.0)
    assert tracing.tail_percentile(range(1, 1001)) == ("p99", 990.0)


def test_self_time_subtracts_children():
    spans = [[0, -1, "cmd.fit", 0, 100], [1, 0, "pipeline.train", 10, 60],
             [2, 1, "nn.forward", 20, 30], [3, 1, "nn.forward", 40, 45]]
    stats = tracing.span_stats(spans)
    assert stats["cmd.fit"]["self_s"] * 1e9 == pytest.approx(50)
    assert stats["pipeline.train"]["self_s"] * 1e9 == pytest.approx(35)
    assert stats["nn.forward"]["calls"] == 2
    assert tracing.nesting_errors(spans) == []
    assert tracing.nesting_errors([[0, -1, "a", 0, 10], [1, 0, "b", 5, 20]]) != []
