"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced for one second (design-search
with 2 restarts per N_T instead of 100) and checks that each metric named in BENCHMARK.json is printed with its
unit, then shows that a wrong expected output counts as a failed
operation.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC[key]
    }
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    run.OUT.mkdir(exist_ok=True)
    return run


def _wrong_optimum(workload):
    workload.expected_point = (55.0, 101.0, 2.5, 0.1, 8)


def _wrong_coefficients(workload):
    workload.expected = dataclasses.replace(workload.expected, a1=0.0)


def _wrong_stdout(workload):
    workload.expected = [b"L_uH = 0.00\n"] * len(workload.expected)


@pytest.mark.parametrize("workload, corrupt", [
    ("design-search", _wrong_optimum),
    ("corpus-x10", _wrong_coefficients),
    ("cli-estimate", _wrong_stdout),
])
def test_wrong_expected_output_raises_failed_ratio(bench, workload, corrupt):
    instance, warm, _ = bench.time_setup(workload, 2, tiny=True)
    try:
        assert instance.check(warm) == []
        corrupt(instance)
        _, _, operations = bench.run_loop(instance, seconds=0.1)
    finally:
        instance.cleanup()
    failed = sum(1 for _, messages in operations if messages)
    assert operations and failed / len(operations) == 1.0
