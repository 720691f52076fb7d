"""Tests of the benchmark itself, on tiny graphs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path, TINY)
    before = _files(tmp_path)
    second = workloads.generate(workload, 7, tmp_path, TINY)
    assert first == second
    assert _files(tmp_path) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_bytes(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.generate(workload, 7, tmp_path / "a", TINY)
    b = workloads.generate(workload, 8, tmp_path / "b", TINY)
    assert a.graph.read_bytes() != b.graph.read_bytes()


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_all_workloads_pass_every_check():
    result = _result(_bench("--workload", "all", "--seed", "3", "--seconds", "0",
                            "--scale", str(TINY)))
    assert result["correct"] is True
    assert result["failed"] == 0
    # Per workload: one warm-up plus three rounds of four CLI calls.
    assert result["attempted"] == len(workloads.WORKLOADS) * (1 + 3 * 4)
    expected = {f"{w}.{name}" for w in workloads.WORKLOADS for name, _ in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_matches_cli(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--scale", str(TINY), "--trace", "1"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _, _ in run.tracing.PER_LAYER}
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.tracing.PER_LAYER
    )


class _FailingLauncher:
    """Every CLI process exits 4, as verify does on an inconsistent output."""

    def run(self, args, cwd, stdin_file=None):
        (cwd / "stderr.txt").write_text("simulated failure", encoding="utf-8")
        return run.Child(0.1, 4, 30.0, cwd / "stdout.txt", cwd / "stderr.txt")


def test_failed_operations_are_counted(tmp_path):
    bench = run.WorkloadRun("relational-bulk", 1, tmp_path / "w", TINY, _FailingLauncher())
    bench.round()
    assert bench.attempted == 4
    assert bench.failed == 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "numeric-subpop", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
