"""Self-test of the benchmark on its smoke profile (a tiny graph, few queries).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider

Each case runs ``perfbench/run.py`` in its own process, which starts its own
Spark session (about 45 s each on 4 cores).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3", "--seconds", "1"]
    return subprocess.run(
        cmd + ["--profile", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_benchmark_json_declares_every_metric():
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == PER_LAYER


@pytest.mark.parametrize("workload", ["topl-uni", "dtopl-zipf"])
def test_traced_run_emits_every_layer_metric(workload):
    res = _result(_bench("--workload", workload, "--trace", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER


@pytest.mark.parametrize("workload", ["topl-uni", "dtopl-zipf"])
def test_corrupted_answer_is_counted_as_failed(workload):
    res = _result(_bench("--workload", workload, "--trace", "0", "--inject-fault"))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert not res["correct"] and res["failed"] == 1
    assert res["metrics"]["ok_frac"]["value"] == 1.0 - 1.0 / res["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "topl-uni", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
