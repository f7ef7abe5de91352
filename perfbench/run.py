#!/usr/bin/env python3
"""Build the judging benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 10 --trace 0

The driver is built with dune into _build/ and then run with the same
arguments; its last line of standard output is the JSON result.  Exits
non-zero without a result when the build fails, e.g. in a directory that
does not hold the program's sources.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/wobench.exe"
EXE = os.path.join("_build", "default", "perfbench", "wobench.exe")


def main():
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 1
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 1
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
