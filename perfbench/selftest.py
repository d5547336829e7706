"""The benchmark's own test.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs with the same seed and fails
(exit 1) when a run is not correct, when a span the workload must reach
records zero calls, or when a per-layer count differs between the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import ROOT, WORKLOADS
from tracer import COUNT_METRICS

sys.path.insert(0, os.path.join(ROOT, "src"))
from workloads import REQUIRED_SPANS  # noqa: E402  (needs the src path)


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload: str, seed: int) -> list[str]:
    first, second = traced(workload, seed), traced(workload, seed)
    problems = []
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            problems.append(f"{workload}: run not correct ({run['failed']} failed ops)")
    for span in REQUIRED_SPANS[workload]:
        if not first["metrics"][f"{span}.calls"]["value"]:
            problems.append(f"{workload}: span {span} recorded zero calls")
    for name in COUNT_METRICS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} differs between runs ({a} != {b})")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    problems = []
    for workload in args.workload:
        found = check(workload, args.seed)
        print(f"{workload}: {'FAIL' if found else 'ok'}")
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
