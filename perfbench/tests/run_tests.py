#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/tests/run_tests.py

- the C++ unit tests (tail rule, span ledger);
- a tiny run of each workload, traced and untraced, prints exactly the
  metric names and units BENCHMARK.json lists, and passes its checks;
- a tampered digest is caught: the run fails and failed_share counts it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = [sys.executable, os.path.join(BENCH, "run.py")]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    """Run a tiny workload; return (exit code, parsed result or None)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


class UnitTests(unittest.TestCase):
    def test_cpp_units(self):
        subprocess.run(RUN + ["--workload", "paper_suite", "--seed", "1",
                              "--seconds", "1", "--trace", "0", "--tiny"],
                       stdout=subprocess.DEVNULL, check=True, timeout=1200)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "perfbench_tests"], stdout=subprocess.DEVNULL,
                       check=True)
        subprocess.run([os.path.join(BUILD, "perfbench_tests")], check=True)


class MetricNames(unittest.TestCase):
    def check(self, workload):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            self.assertEqual(code, 0, f"{workload} --trace {trace}")
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = [(m["name"], m["unit"]) for m in s[key]]
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            self.assertEqual(got, want, f"{workload} --trace {trace}")
            for name, m in result["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), name)

    def test_cold_tune(self):
        self.check("cold_tune")

    def test_paper_suite(self):
        self.check("paper_suite")


class TamperedDigest(unittest.TestCase):
    def tampered_table(self, workload, item):
        """A copy of digests.txt with one digest of @item flipped."""
        path = os.path.join(BUILD, "tampered-digests.txt")
        with open(os.path.join(BENCH, "digests.txt")) as src, \
                open(path, "w") as dst:
            hit = False
            for line in src:
                fields = line.split()
                if fields[:2] == [workload, item]:
                    flipped = "0" if fields[2][-1] != "0" else "1"
                    line = f"{workload} {item} {fields[2][:-1]}{flipped}\n"
                    hit = True
                dst.write(line)
        self.assertTrue(hit, f"{workload} {item} not in digests.txt")
        return path

    def expect_caught(self, workload, item):
        table = self.tampered_table(workload, item)
        code, result = run(workload, 0, "--digests", table)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        code, result = run(workload, 1, "--digests", table)
        self.assertEqual(code, 1)
        self.assertGreater(result["metrics"]["failed_share"]["value"], 0)

    def test_paper_suite_stdout(self):
        self.expect_caught("paper_suite", "fig03_optimal_settings")

    def test_cold_tune_grid_bytes(self):
        self.expect_caught("cold_tune", "r000.gobmk.coarse.grid")


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
