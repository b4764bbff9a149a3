#!/usr/bin/env python3
"""Build the simulator from source and run the host-time benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dlrc-locks --seed 42 --seconds 10 --trace 0

It builds perfbench/main.exe with dune in the release profile under
.bench_build/, runs it, and passes its output through.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s; an unchanged tree rebuilds in about a second.
# The first run in a checkout also pays for the build, which has its own
# limit.
RUN_LIMIT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the root of a source checkout "
             "(dune-project, lib/ and perfbench/dune are required)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed", build.returncode)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
