#!/usr/bin/env python3
"""Time one fresh interpreter's set-up for a workload.

    python3 bench/setup_probe.py <workload> <module>

Imports ``<module>`` (``meantype`` or ``meantype.cli``) from ``src/`` and
builds the workload's mappings and invariant means, then prints two
numbers: the seconds the import took, and the seconds import and build
took together.  Only ``os``, ``sys`` and ``time`` are loaded before the
import is timed.  The benchmark's own modules load after it, with the
clock stopped, so they do not lend the package modules it would
otherwise import itself.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def main(name: str, target: str) -> int:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    __import__(target)
    imported = time.perf_counter() - t0
    sys.path.insert(0, BENCH)
    from run import WORKLOADS
    from workloads import load_package

    pkg = load_package(SRC, target)  # refuses a copy of meantype from elsewhere
    t1 = time.perf_counter()
    WORKLOADS[name].build(pkg, ROOT)
    built = time.perf_counter() - t1
    print(repr(imported), repr(imported + built))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
