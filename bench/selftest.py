#!/usr/bin/env python3
"""Self-test of the benchmark: one tiny run of every workload, checked from outside.

    python3 bench/selftest.py [workload ...]

For each workload it makes one untraced and two traced runs of a single pass
at the default seed and checks that

- every end-to-end and per-layer metric is printed, by name, with its unit;
- the two traced runs report identical per-layer counts;
- all three runs report the same verdict and witness digest;
- every run is correct and exits 0.

It also checks that the benchmark refuses to run, without printing a result,
in a copy that holds only ``BENCHMARK.json`` and this directory.
Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("suite", "dirac-ladder", "groupoid-ladder", "checkfile-corpus")
EXACT_UNITS = ("count", "cells", "terms", "ratio", "share")


def run(root: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600, check=False)
    return done.returncode, done.stdout.strip().splitlines()


def check_workload(workload: str) -> list[str]:
    problems = []
    runs = []
    for trace in (0, 1, 1):
        code, lines = run(ROOT, workload, trace)
        if code != 0 or len(lines) < 2:
            return [f"{workload}: trace {trace} exited {code} with {len(lines)} lines of output"]
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
        if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
            problems.append(f"{workload}: trace {trace} result is {result}")
        declared = END_TO_END if trace == 0 else PER_LAYER
        printed = [(name, m.get("unit")) for name, m in result["metrics"].items()]
        if printed != list(declared):
            problems.append(f"{workload}: trace {trace} printed {printed}, expected {list(declared)}")
        runs.append((result["metrics"], info["digest"]))
    (_, digest), (first, d1), (second, d2) = runs
    if not digest == d1 == d2:
        problems.append(f"{workload}: digests differ between runs: {digest} {d1} {d2}")
    for name, unit in PER_LAYER:
        if unit in EXACT_UNITS and first[name]["value"] != second[name]["value"]:
            problems.append(f"{workload}: {name} is {first[name]['value']} then {second[name]['value']}")
    return problems


def check_bare_copy() -> list[str]:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    try:
        code, lines = run(bare, "suite", 0)
    finally:
        shutil.rmtree(bare)
    return [] if code != 0 and not lines else [f"bare copy: exit {code}, output {lines}"]


def main(argv: list[str]) -> int:
    problems = check_bare_copy()
    for workload in argv or WORKLOADS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
