#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the project's libraries, dra-server and the perfbench driver from
source (Release, into $CARGO_TARGET_DIR or .bench_build), then runs the
driver. The last stdout line is the run's JSON result; build output and
diagnostics go to stderr. Exits non-zero, without a result, when the
build fails (for example when the project sources are missing).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-one", action="store_true",
                   help="corrupt one output before the check (must fail)")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    build_dir = os.path.relpath(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(build_dir, "perfbench")
    if a.self_test:
        return subprocess.call([exe, "--self-test"])
    cmd = [exe, "--workload=" + a.workload, "--seed=%d" % a.seed,
           "--seconds=%g" % a.seconds, "--trace=%d" % a.trace,
           "--server-bin=" + os.path.join(build_dir, "dra-server"),
           "--out-dir=" + os.path.join(build_dir, "perfbench-run")]
    if a.corrupt_one:
        cmd.append("--corrupt-one")
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
