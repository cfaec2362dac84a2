#!/usr/bin/env python3
"""Builds and runs AED's closed-loop update benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload zoo-incremental --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds `aed_update_bench` (the AED libraries
from src/ plus the benchmark program in this directory) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr. The program's report goes to
stdout, and its last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.

`--workload all` runs every workload in turn and ends with one JSON object
whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zoo-incremental", "dc-bulk", "dc-templates")
BINARY = "aed_update_bench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not (root / "src" / "core" / "aed.hpp").is_file():
        fail(f"AED sources not found under {root / 'src'}")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", BINARY,
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail("build failed: " + " ".join(step))
    binary = build_dir / BINARY
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, workload, args):
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no answer within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{workload}: {BINARY} exited {proc.returncode} without output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result: {lines[-1]!r}")
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)

    if args.workload != "all":
        code, lines, _ = run_one(binary, args.workload, args)
        print("\n".join(lines), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, workload, args)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
