"""Tests of the benchmark itself: python -m pytest mfbench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from check import TOLERANCES, reference_problems
from tracing import LAYER_METRICS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "mfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "mfbench/run.py", "--workload", "study-1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in LAYER_METRICS] + ["trace.overhead_s"]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "particle_steps_per_s", "peak_rss_mb"]


def test_self_time_subtracts_direct_children():
    spans = [
        ["coupling.coupled_step", 0.0, 10.0, -1, 0],
        ["particles.step", 1.0, 4.0, 0, 0],
        ["fields.deposit", 1.5, 2.0, 1, 7],
        ["fluid.step", 5.0, 9.0, 0, 0],
    ]
    counters = {"fields.sample_kernel.distinct": 0, "fields.GridField.constructions": 3}
    m = layer_metrics({"spans": spans, "counters": counters})
    assert m["coupling.coupled_step.self_s"] == pytest.approx(3.0)
    assert m["coupling.coupled_step.calls"] == 1
    assert m["particles.step.self_s"] == pytest.approx(2.5)
    assert m["fields.deposit.points"] == 7
    assert m["fluid.step.s"] == pytest.approx(4.0)
    assert m["fields.GridField.constructions"] == 3


def test_reference_tolerance_admits_reordering_and_catches_wrong_values():
    ref = {"time": [0.0, 0.1], "kinetic_term": [0.0, 2e-7], "density_term": [1e-7, 3e-7], "q_total": [1e-7, 5e-7], "stopped": [0, 0]}
    reordered = dict(ref, **{k: [v * (1 + 1e-13) for v in ref[k]] for k in ("kinetic_term", "density_term", "q_total")})
    assert reference_problems("q_series.csv", reordered, ref) == []
    wrong = dict(ref, q_total=[1e-7, 5e-7 * (1 + 1e-6)])
    problems = reference_problems("q_series.csv", wrong, ref)
    assert len(problems) == 1 and "q_total" in problems[0]
    assert set(TOLERANCES["q_series.csv"]) == set(ref)
