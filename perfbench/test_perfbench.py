"""Tests of the benchmark itself, on tiny horizons."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, workloads
from perfbench.measure import measure, run_point
from perfbench.tracer import LAYER_TARGETS, LayerTracer, resolve_target

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [entry["name"] for entry in BENCHMARK["workloads"]]
TIME_SCALE = 0.02


def _tiny(workload: str, trace: bool, seed: int = 3):
    return measure(workload, seed, seconds=0, trace=trace, time_scale=TIME_SCALE, probes=1)


def _assert_named(results, declared):
    assert [(e["name"], e["unit"]) for e in declared] == [
        (name, unit) for name, (_value, unit) in results.items() if name not in metrics.UNLISTED
    ]
    assert all(math.isfinite(value) for value, _unit in results.values())


def test_benchmark_json_describes_the_workloads():
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]


@pytest.mark.parametrize("workload", LISTED)
def test_every_metric_is_printed_with_its_unit(workload):
    # A traced measurement also times untraced points.
    m = _tiny(workload, trace=True)
    assert m.correct, m.problems
    _assert_named(metrics.end_to_end(m), BENCHMARK["end_to_end"])
    _assert_named(metrics.per_layer(m), BENCHMARK["per_layer"])


@pytest.mark.xfail(strict=True, reason="fluid jumps break the packet-conservation invariant")
def test_steady_auto_passes_validation():
    m = _tiny("steady-auto", trace=False)
    assert m.correct, m.problems


def test_steady_auto_is_traced_on_the_fidelity_tier():
    tracer = LayerTracer()
    point = run_point("steady-auto", 3, TIME_SCALE, tracer=tracer)
    assert tracer.reconciles()
    assert tracer.layers()["fidelity"]["calls"] > 0
    assert sum(s.counters["jumps"] for s in point.deployments.values()) > 0


def test_counts_repeat_exactly_at_a_fixed_seed():
    first, second = (run_point("fig07-10g", 3, TIME_SCALE, count_calls=True) for _ in range(2))
    assert first.py_calls > 0
    assert (first.py_calls, first.fingerprint()) == (second.py_calls, second.fingerprint())


def test_traced_run_restores_every_class():
    targets = [resolve_target(t) for targets in LAYER_TARGETS.values() for t in targets]
    before = [(cls, method, cls.__dict__.get(method)) for cls, method in targets]
    untraced = run_point("fig07-10g", 3, TIME_SCALE)
    tracer = LayerTracer()
    traced = run_point("fig07-10g", 3, TIME_SCALE, tracer=tracer)
    assert [(cls, method, cls.__dict__.get(method)) for cls, method, _ in before] == before
    calls = {name: layer["calls"] for name, layer in tracer.layers().items()}
    again = run_point("fig07-10g", 3, TIME_SCALE)
    assert {name: layer["calls"] for name, layer in tracer.layers().items()} == calls
    assert untraced.fingerprint() == traced.fingerprint() == again.fingerprint()


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", LISTED[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
