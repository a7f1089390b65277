"""Smoke tests of the benchmark itself, at the scaled-down size of each workload.

    python3 -m pytest -q bench

They check that a run emits exactly the metric names of ``BENCHMARK.json``
with their units and passes its own gate, that ``threads = 1`` and
``threads = 2`` print byte-identical CSV, and that the benchmark refuses to
run without the lfsym sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_threads_give_identical_csv(workload, tmp_path):
    from lfsym import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make(workload, 7, "smoke").config))
    for command in ("constants", "density"):
        texts = []
        for threads in (1, 2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--config", str(config), "--threads", str(threads)])
            assert code == 0
            texts.append(out.getvalue())
        assert texts[0] == texts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
