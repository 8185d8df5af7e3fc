"""Smoke test of the end-to-end benchmark at tiny sizes (2 requests)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from loadgen import WORKLOADS  # noqa: E402
from repetition import run_repetition  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "durable_small", "--seed", "5", "--requests", "2",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {name: metric["unit"] for name, metric
            in line["metrics"].items()} == expected
    with open(out / "result.json", encoding="utf-8") as fh:
        reps = json.load(fh)["workloads"]["durable_small"]["reps"]
    # Every repetition ran the same seed, so each produced one digest.
    assert len(reps) == (2 if trace else 3)
    assert len({rep["result_digest"] for rep in reps}) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_same_digest_and_unpatched(tmp_path, name):
    plain = run_repetition(name, 3, 2, str(tmp_path / "plain"))
    traced = run_repetition(name, 3, 2, str(tmp_path / "traced"),
                            traced=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["result_digest"] == plain["result_digest"]
    assert Tracer.leftovers() == []
    assert set(traced["layers"]) == set(PER_LAYER_UNITS) - {
        "trace.overhead_pct"}
