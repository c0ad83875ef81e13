#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn|serve|dist --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

The first call configures and compiles the library and the benchmark
binary into .bench_build/perfbench (Release); later calls only rebuild what
changed.
Build output goes to stderr, so the last line of stdout is the binary's JSON
result. The exit code is the binary's: 0 when every answer checked out.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "congest", "session.hpp")):
        sys.exit("perfbench: the library sources (src/) are not in this tree")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build()
    os.chdir(ROOT)  # the binary keeps its scratch files under .bench_build
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
