"""Toy-size smoke test of the benchmark harness.

Runs every workload on a ``toy_preset`` ring (n=256) and checks that every
metric ``BENCHMARK.json`` declares is emitted with its unit, that the exact
per-request counters repeat bit-for-bit for a seed, and that exact outputs
are right.  Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import END_TO_END, Run, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 0.2


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, trace, seed=3):
    return Run(workload, seed, SECONDS, trace=trace, toy=True).execute()


def test_benchmark_json_matches_the_harness():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer_names()
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_counters_repeat(workload):
    untraced = _run(workload, trace=False)
    assert untraced.correct, untraced.tallies["ntt"].errors
    assert untraced.tallies["ntt"].wrong == 0
    e2e = untraced.end_to_end()
    assert {k: u for k, (_, u) in e2e.items()} == {
        name: unit for name, unit, _, _ in END_TO_END
    }
    assert all(value > 0 for value, _ in e2e.values())

    first, second = _run(workload, trace=True), _run(workload, trace=True)
    layer = first.per_layer()
    assert {k: u for k, (_, u) in layer.items()} == {
        name: unit for name, unit, _ in per_layer_names()
    }
    assert layer["wrong_frac.ntt"][0] == 0.0
    assert first.counter_log and second.counter_log
    common = min(len(first.counter_log), len(second.counter_log))
    assert first.counter_log[:common] == second.counter_log[:common]


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "private-layer-b1", "--seed", "1", "--seconds", str(SECONDS),
         "--trace", "1", "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _, _ in per_layer_names()}
