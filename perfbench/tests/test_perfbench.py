"""Tests of the benchmark itself (about a minute; not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from pcsflow import cli  # noqa: E402
from pcsflow.blowup import check_hypothesis, select_c  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(name, tmp_path, trace=False):
    """One body of the workload (seconds=0 stops after the first)."""
    return worker.run(name, 0, 0, trace, str(tmp_path), time.perf_counter())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_clean_at_smoke_size(name, tmp_path):
    result = run_once(name, tmp_path)
    assert result["attempted"] == workloads.WORKLOADS[name].operations_per_body
    assert result["failed"] == 0, result["problems"]
    assert len(result["wall_s"]) == 1 and result["wall_s"][0] > 0
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0


def test_inputs_come_from_the_seed_and_sit_inside_the_cone(tmp_path):
    a = workloads.harmonic_config(3, 8, 1e6, "out")
    assert a == workloads.harmonic_config(3, 8, 1e6, "out")
    assert a != workloads.harmonic_config(4, 8, 1e6, "out")
    for seed in range(5):
        doc = workloads.harmonic_config(seed, 8, 1e6, "out")
        config = cli.parse_config(doc)
        state = cli.initial_state(config)
        assert check_hypothesis(state, select_c(config.params)).holds
        for init in workloads.normalized_inits(seed):
            assert check_hypothesis(init, select_c(init.params)).holds


def test_wrong_simulation_output_is_counted_as_failed(tmp_path, monkeypatch):
    original = cli.write_trajectory

    def drop_stop_event(path, traj, config_echo):
        traj.events = [e for e in traj.events if e[1] != "blow_up_stop"]
        original(path, traj, config_echo)

    monkeypatch.setattr(cli, "write_trajectory", drop_stop_event)
    result = run_once("blowup_n8", tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1


def test_wrong_report_fails_only_its_operation(tmp_path, monkeypatch):
    original = cli.envelope_check

    def never_ok(*args, **kwargs):
        report = original(*args, **kwargs)
        return type(report)(False, report.n_checked, report.window, report.worst_low, report.worst_high)

    monkeypatch.setattr(cli, "envelope_check", never_ok)
    result = run_once("analyze_replay", tmp_path)
    assert result["attempted"] == 6 and result["failed"] == 1
    assert any("analyze blowup" in p for p in result["problems"])


def test_unreadable_output_fails_the_body_instead_of_crashing(tmp_path, monkeypatch):
    def torn(path):
        raise ValueError("torn file")

    monkeypatch.setattr(cli, "read_trajectory", torn)
    workload = workloads.WORKLOADS["blowup_n8"]
    problems = worker.checked(workload, {"out": str(tmp_path)}, [(0, "")])
    assert problems == [["check raised ValueError: torn file"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = run_bench("--workload", "blowup_n8", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        self_times = [v for name, v in metrics.items() if name.endswith(".self_s")]
        assert all(v >= 0 for v in self_times)
        assert sum(self_times) <= metrics["trace.wall_s"] * (1 + 1e-9)
    else:
        assert metrics["pass_rate"] == 1.0
        assert all(v > 0 for v in metrics.values())


def test_traced_self_times_cover_the_analysis_layers(tmp_path):
    result = run_once("analyze_replay", tmp_path, trace=True)
    layers = result["layers"]
    self_times = {name: v for name, v in layers.items() if name.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) <= layers["trace.wall_s"] * (1 + 1e-9)
    for layer in ("cli", "blowup", "normalize", "geometry", "spectral"):
        assert self_times[f"{layer}.self_s"] > 0, layer
    assert layers["stepping.step_calls"] == 0 and layers["geometry.reconstruct_calls"] == 16
    assert (tmp_path / "spans.npz").is_file()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "blowup_n8", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
