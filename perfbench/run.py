#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library, the paper-suite binaries and the benchmark into .bench_build/
(a few minutes); later runs only check that the build is up to date.
Build output goes to stderr; stdout carries the benchmark's metric lines,
ending with its one-line JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cold_tune", "paper_suite")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configure once, then bring the benchmark and suite up to date."""
    jobs = str(len(os.sched_getaffinity(0)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     # The repository's own default build type.
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    target = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    return subprocess.run(target, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk inputs (the benchmark's own tests)")
    parser.add_argument("--digests",
                        default=os.path.join(HERE, "digests.txt"),
                        help="digest table to check outputs against")
    parser.add_argument("--record-digests",
                        help="write observed digests here instead")
    args = parser.parse_args()

    # Without the repository's sources there is nothing to build.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail(f"no repository sources next to {HERE}")
    if not build():
        return fail("build failed")

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--digests", args.digests, "--work-dir", work]
    if args.tiny:
        command.append("--tiny")
    if args.record_digests:
        command += ["--record-digests", args.record_digests]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
