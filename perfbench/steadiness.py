#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/steadiness.py --runs 10 [--workload W ...] [--first-seed 1]

For each workload and end-to-end metric prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
interquartile distance as a share of the median, beside the metric's
bound from BENCHMARK.json.  Output is a Markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--raw", help="also append every run's result "
                        "(JSON lines) to this file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if args.raw:
                with open(args.raw, "a") as raw:
                    raw.write(json.dumps({"workload": workload,
                                          "seed": seed, **result}) + "\n")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"| {workload} | {m['name']} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.3f} | {m['bound']} |", flush=True)


if __name__ == "__main__":
    main()
