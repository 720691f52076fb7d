"""`transform` bytes on the benchmark workloads and the city fixture,
pinned by sha256.

Each workload of `benchmarks/workloads.py` is generated at 1× and run
through `transform --emit-weights` in process: all three at seeds 1-3, and
numeric-subpop at seed 1 under every `--strategy`. The city fixture of
`util`, with its depiction read as an image through a one-label tag map,
runs under every `--strategy` too. The sha256 of the output, the report
and the weights sidecar of each run are pinned in `manifest.json` beside
this file. One fresh process per workload, under two PYTHONHASHSEED
values, must write the same bytes.

A change to minted names, statement order, counts, scores, report layout
or the workload generator changes a hash here; update a hash only together
with a CHANGES.md line that declares the change. To rewrite the manifest
after such a change, run from the repository root:

    PYTHONPATH=src:tests python tests/test_manifest.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from literal_forge import cli
from literal_forge.cli import EXIT_OK, main
from literal_forge.pipeline import STRATEGIES
from util import write_city

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("manifest.json")
WORKLOADS = ("numeric-subpop", "relational-bulk", "text-topics")
# (workload, seed, --strategy or None for the default plan). The city
# fixture has one form, listed under seed 1.
RUNS = [(w, seed, None) for w in WORKLOADS for seed in (1, 2, 3)] + [
    (workload, 1, strategy)
    for workload in ("numeric-subpop", "city")
    for strategy in sorted(STRATEGIES)
]


def run_id(run: tuple[str, int, str | None]) -> str:
    workload, seed, strategy = run
    return f"{workload}/seed{seed}/{strategy or 'default'}"


def generate(workload: str, seed: int, workdir: Path) -> tuple[Path, Path | None]:
    """The (graph, config) paths of a run's inputs: the city fixture's, or
    the benchmark generator's, which is used read only."""
    if workload == "city":
        return write_city(workdir)
    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(ROOT / "benchmarks"))
    inputs = importlib.import_module("workloads").generate(workload, seed, workdir)
    return inputs.graph, inputs.config


def transform_argv(inputs, output: Path, strategy: str | None) -> list[str]:
    graph, config = inputs
    argv = ["transform", "--input", str(graph), "--output", str(output), "--emit-weights"]
    if config:
        argv += ["--config", str(config)]
    return argv + (["--strategy", strategy] if strategy else [])


def digests(output: Path) -> dict[str, str]:
    """sha256 of the output, its report and its weights sidecar."""
    paths = {"output": "", "report": ".report.json", "weights": ".weights.tsv"}
    return {
        name: hashlib.sha256(Path(f"{output}{suffix}").read_bytes()).hexdigest()
        for name, suffix in paths.items()
    }


@pytest.fixture(scope="module")
def inputs_for(tmp_path_factory):
    """Each (workload, seed) is generated once per module."""
    cache = {}

    def get(workload: str, seed: int):
        if (workload, seed) not in cache:
            workdir = tmp_path_factory.mktemp(f"{workload}-{seed}")
            cache[workload, seed] = generate(workload, seed, workdir)
        return cache[workload, seed]

    return get


@pytest.fixture(scope="module")
def manifest() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_run(manifest):
    assert sorted(manifest) == sorted(map(run_id, RUNS))


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_transform_bytes_match_the_manifest(run, inputs_for, manifest, tmp_path):
    workload, seed, strategy = run
    output = tmp_path / "out.nt"
    assert main(transform_argv(inputs_for(workload, seed), output, strategy)) == EXIT_OK
    assert digests(output) == manifest[run_id(run)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_processes_write_the_same_bytes_under_any_hash_seed(
    workload, inputs_for, manifest, tmp_path
):
    inputs = inputs_for(workload, 1)
    src = str(Path(cli.__file__).resolve().parents[1])
    for hash_seed in ("0", "1"):
        output = tmp_path / f"out{hash_seed}.nt"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-m", "literal_forge.cli", *transform_argv(inputs, output, None)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert digests(output) == manifest[run_id((workload, 1, None))], hash_seed


def write_manifest(workdir: Path) -> None:
    """Run every pinned transform and write its digests to manifest.json."""
    pinned = {}
    for workload, seed, strategy in RUNS:
        run_dir = workdir / run_id((workload, seed, strategy)).replace("/", "-")
        run_dir.mkdir(parents=True)
        inputs = generate(workload, seed, run_dir)
        output = run_dir / "out.nt"
        assert main(transform_argv(inputs, output, strategy)) == EXIT_OK
        pinned[run_id((workload, seed, strategy))] = digests(output)
    MANIFEST.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        write_manifest(Path(workdir))
