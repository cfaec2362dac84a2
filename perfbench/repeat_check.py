#!/usr/bin/env python3
"""Checks that the benchmark's work counters repeat exactly.

Runs the traced benchmark twice per workload with the same seed and compares
every per-layer metric whose unit is `count`, plus `lines_changed` and
`devices_changed` from an untraced run pair. Any difference is reported and
makes the exit code 1. Run from the repository root:

    python3 perfbench/repeat_check.py --seed 1 --seconds 10
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("zoo-incremental", "dc-bulk", "dc-templates")
EXACT_E2E = ("lines_changed", "devices_changed")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload}: run failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]


def exact(metrics, trace):
    if trace:
        return {k: m["value"] for k, m in metrics.items()
                if m["unit"] == "count"}
    return {k: metrics[k]["value"] for k in EXACT_E2E}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    mismatches = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = exact(run(workload, args.seed, args.seconds, trace), trace)
            second = exact(run(workload, args.seed, args.seconds, trace), trace)
            for name in sorted(first):
                same = first[name] == second.get(name)
                mismatches += not same
                print(f"{workload:16s} {name:24s} {first[name]:>14} "
                      f"{second.get(name)!s:>14} {'ok' if same else 'DIFFERS'}")
    print(f"{mismatches} counters differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
