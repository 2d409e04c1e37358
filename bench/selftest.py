#!/usr/bin/env python3
"""Self-test of the benchmark (not of meantype).

    python3 bench/selftest.py

Checks that the same seed gives the same generated inputs and another
seed different ones, and that two traced runs on the same seed report
identical counters.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from run import OUT, ROOT, SRC, WORKLOADS  # noqa: E402
from workloads import load_package  # noqa: E402

SEED, OTHER_SEED = 7, 8
HEAD_OPS = 60


def inputs(pkg, name: str, seed: int) -> list[str]:
    wl = WORKLOADS[name](pkg, seed, ROOT, OUT)
    return [wl.op(i).inputs for i in range(HEAD_OPS)]


def traced_counters(name: str) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{name}: traced run not correct: {done.stdout[-2000:]}")
    return {k: result["metrics"][k]["value"] for k in spans.COUNTERS}


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    pkg = load_package(SRC)
    problems = []
    for name in WORKLOADS:
        first, again = inputs(pkg, name, SEED), inputs(pkg, name, SEED)
        other = inputs(pkg, name, OTHER_SEED)
        if first != again:
            problems.append(f"{name}: seed {SEED} gave two different input streams")
        if first == other:
            problems.append(f"{name}: seeds {SEED} and {OTHER_SEED} gave the same inputs")
        one, two = traced_counters(name), traced_counters(name)
        for key in spans.COUNTERS:
            if one[key] != two[key]:
                problems.append(f"{name}: {key} = {one[key]} then {two[key]}")
        print(f"{name}: inputs and {len(spans.COUNTERS)} counters checked")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
