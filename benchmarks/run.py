#!/usr/bin/env python3
"""End-to-end benchmark of the literal-forge command line.

Run from the repository root:

    python3 benchmarks/run.py --workload numeric-subpop --seed 1 --seconds 20 --trace 0

Each round runs the CLI as users do, one fresh process per command, timed
from outside: a one-statement ``transform`` (the set-up probe), ``profile
--input -`` with the graph piped on stdin, ``transform --input <file>`` and
``verify`` on its output. Rounds repeat (at least three) until one more
would exceed ``--seconds``; every metric is the median over the rounds.
``--trace 1`` instead runs the same stages in this process with spans
around each module's functions (see ``tracing.py``) and reports per-layer
numbers. ``--workload all`` interleaves the rounds of every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def another_round(rounds: int, start: float, seconds: float) -> bool:
    """True until MIN_ROUNDS are done and one more round would overrun *seconds*."""
    if rounds < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def file_digest(path: Path) -> tuple[str, int, int]:
    """sha256, byte count and line count of a file."""
    digest = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), size, lines


@dataclass
class Child:
    """One finished CLI process: wall time from start to exit, own peak RSS."""

    wall: float
    code: int
    rss_mb: float
    stdout_path: Path
    stderr_path: Path

    def stdout(self) -> str:
        return self.stdout_path.read_text(encoding="utf-8")


class Launcher:
    """Starts every CLI process through the small helper in launcher.py."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH", "")) if p
        )

    def run(self, args: list[str], cwd: Path, stdin_file: Path | None = None) -> Child:
        request = {
            "args": [sys.executable, "-m", "literal_forge.cli", *args],
            "cwd": str(cwd),
            "env": self.env,
            "stdout": str(cwd / "stdout.txt"),
            "stderr": str(cwd / "stderr.txt"),
            "stdin_file": str(stdin_file) if stdin_file else None,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall"], reply["code"], reply["maxrss_kb"] / 1024.0,
                     Path(request["stdout"]), Path(request["stderr"]))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def host_probe() -> float:
    """Seconds for a fixed pure-Python and numpy loop; a host-speed diagnostic."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    arr = np.arange(300_000, dtype=float)
    for _ in range(20):
        acc += int(np.sqrt(arr * arr + 1.0).sum()) & 1
    return time.perf_counter() - start


class WorkloadRun:
    """Generated inputs of one workload plus the samples of its rounds."""

    def __init__(self, name: str, seed: int, workdir: Path, scale: float, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.inputs = workloads.generate(name, seed, workdir, scale)
        self.config = ["--config", str(self.inputs.config)] if self.inputs.config else []
        self.samples: dict[str, list[float]] = {}
        self.probe: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[int, str]] = []
        self.output: tuple[str, int, int] | None = None

    def _check(self, ok: bool, what: str) -> None:
        """Record a failed check of the operation that ran last."""
        if not ok:
            if not self.failures or self.failures[-1][0] != self.attempted:
                self.failed += 1
            self.failures.append((self.attempted, what))

    def _cli(self, what: str, args: list[str], stdin_file: Path | None = None) -> Child:
        self.attempted += 1
        child = self.launcher.run(args, self.workdir, stdin_file)
        if child.code != 0:
            tail = child.stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
            self._check(False, f"{what} exited {child.code}: {tail.strip()}")
        return child

    def _add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def transform_setup(self) -> Child:
        return self._cli(
            "set-up transform",
            ["transform", "--input", str(self.inputs.setup_graph),
             "--output", str(self.workdir / "setup.out.nt"), *self.config],
        )

    def round(self) -> None:
        setup = self.transform_setup()
        self._add("setup_s", setup.wall)

        lines = self.inputs.lines
        profile = self._cli("profile", ["profile", "--input", "-", *self.config],
                            stdin_file=self.inputs.graph)
        if profile.code == 0:
            triples = self._json(profile, "profile").get("triples")
            self._check(triples == lines, f"profile counted {triples} triples, generated {lines}")
        self._add("profile_lines_per_s", lines / profile.wall)
        self._add("profile_peak_rss_mb", profile.rss_mb)

        output = self.workdir / "out.nt"
        transform = self._cli("transform", ["transform", "--input", str(self.inputs.graph),
                                            "--output", str(output), *self.config])
        self._add("transform_lines_per_s", lines / transform.wall)
        self._add("transform_peak_rss_mb", transform.rss_mb)
        if transform.code == 0:
            self._check_report(output)
            digest = file_digest(output)
            if self.output is None:
                self.output = digest
            self._check(digest == self.output, "output bytes differ between repeats of one seed")

        verify = self._cli("verify", ["verify", "--input", str(output)])
        if verify.code == 0:
            verdict = self._json(verify, "verify")
            self._check(verdict.get("ok") is True, f"verify did not report ok: {verdict}")
        if self.output is not None:
            self._add("verify_lines_per_s", self.output[2] / verify.wall)
        self._add("verify_peak_rss_mb", verify.rss_mb)

        self.probe.append(host_probe())

    def _json(self, child: Child, what: str) -> dict:
        try:
            return json.loads(child.stdout())
        except ValueError as exc:
            self._check(False, f"{what} printed no JSON object: {exc}")
            return {}

    def _check_report(self, output: Path) -> None:
        try:
            report = json.loads(Path(f"{output}.report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self._check(False, f"unreadable report: {exc}")
            return
        for row in report["predicates"]:
            self._check(
                not row["verdict"].startswith("fail"),
                f"{row['predicate']}: {row['verdict']}",
            )

    def metrics(self) -> dict[str, dict[str, float | str]]:
        return {
            name: {"value": median(self.samples.get(name, [])), "unit": unit}
            for name, unit in END_TO_END
        }


END_TO_END = (
    ("transform_lines_per_s", "lines/s"),
    ("verify_lines_per_s", "lines/s"),
    ("profile_lines_per_s", "lines/s"),
    ("transform_peak_rss_mb", "MB"),
    ("verify_peak_rss_mb", "MB"),
    ("profile_peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def report_end_to_end(run: WorkloadRun) -> None:
    failed = run.failed
    print(f"== {run.name}: {run.inputs.lines} input lines")
    for name, unit in END_TO_END:
        values = run.samples.get(name, [])
        print(f"{name:24s} {median(values):14.4f} {unit:8s} (median of {len(values)})")
    print(f"{'failure_ratio':24s} {failed / max(run.attempted, 1):14.4f} {'ratio':8s}"
          f" ({failed} failed of {run.attempted} operations)")
    if run.output is not None:
        sha, size, lines = run.output
        print(f"output_sha256 {sha}  output_bytes {size}  output_lines {lines}")
    if run.probe:
        print(f"host_probe_s median {median(run.probe):.4f}"
              f" min {min(run.probe):.4f} max {max(run.probe):.4f} (diagnostic only)")
    for operation, failure in run.failures:
        print(f"FAILED operation {operation}: {failure}")


def measure(runs: list[WorkloadRun], seconds: float) -> int:
    for run in runs:
        run.transform_setup()  # untimed, so bytecode caches exist before timing
    start = time.perf_counter()
    rounds = 0
    while another_round(rounds, start, seconds):
        for run in runs:
            run.round()
        rounds += 1
    for run in runs:
        report_end_to_end(run)
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if len(runs) == 1:
        metrics = runs[0].metrics()
    else:
        metrics = {
            f"{run.name}.{name}": value
            for run in runs
            for name, value in run.metrics().items()
        }
    return emit(attempted, failed, metrics)


def measure_traced(run: WorkloadRun, seconds: float) -> int:
    """Traced and untraced in-process rounds, alternating, for *seconds*."""
    reference_path = run.workdir / "out.nt"
    transform = run._cli(
        "transform",
        ["transform", "--input", str(run.inputs.graph), "--output", str(reference_path),
         *run.config],
    )
    reference = file_digest(reference_path) if transform.code == 0 else None

    lf = tracing.library(SRC)
    output = run.workdir / "inproc.nt"
    walls: dict[bool, list[float]] = {True: [], False: []}
    rounds: list[dict[str, float]] = []
    round_shares: list[dict[str, float]] = []
    start = time.perf_counter()
    index = 0
    while another_round(index, start, seconds):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            gc.collect()
            run.attempted += 1
            tracer = tracing.Tracer() if traced else None
            try:
                with tracer.installed(lf) if tracer else nullcontext():
                    wall, problems, shape = tracing.pipeline_round(lf, run.inputs, output, tracer)
            except Exception:  # noqa: BLE001 - a failed round is counted, the run goes on
                run._check(False, traceback.format_exc(limit=-3))
                continue
            digest = file_digest(output)
            for problem in problems:
                run._check(False, f"check_output: {problem}")
            run._check(
                reference is not None and digest == reference,
                "in-process output differs from the CLI's",
            )
            walls[traced].append(wall)
            if tracer is not None:
                rounds.append(tracing.layer_metrics(tracer, wall, run.inputs.lines, digest[1], shape))
                round_shares.append(tracing.shares(tracer, run.name))
        index += 1

    metrics = {
        name: median([r[name] for r in rounds])
        for name, _, _ in tracing.PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])

    print(f"== {run.name}: traced run, {run.inputs.lines} input lines,"
          f" medians of {len(rounds)} traced and {len(walls[False])} untraced rounds")
    for name, unit, _ in tracing.PER_LAYER:
        print(f"{name:38s} {metrics[name]:16.4f} {unit}")
    if reference is not None:
        print(f"output_sha256 {reference[0]}  output_bytes {reference[1]}")
    for what, value, holds in tracing.expectations(run.name, metrics, round_shares):
        print(f"expect {what}: {value:.3f} {'holds' if holds else 'DOES NOT HOLD'}")
    for operation, failure in run.failures:
        print(f"FAILED operation {operation}: {failure}")
    return emit(
        run.attempted,
        run.failed,
        {name: {"value": metrics[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER},
    )


def emit(attempted: int, failed: int, metrics: dict) -> int:
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's size (self-tests use a small one)")
    args = parser.parse_args(argv)

    if not (SRC / "literal_forge" / "cli.py").is_file():
        print(f"literal-forge sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    launcher = Launcher()
    try:
        runs = [
            WorkloadRun(name, args.seed, workdir / name, args.scale, launcher)
            for name in names
        ]
        if args.trace:
            if len(runs) != 1:
                parser.error("--trace 1 needs a single --workload")
            return measure_traced(runs[0], args.seconds)
        return measure(runs, args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
