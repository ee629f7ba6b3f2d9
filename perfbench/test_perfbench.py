#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/test_perfbench.py

They build and run the benchmark through perfbench/run.py, one pass per
run (--seconds 0), and take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
WORKLOADS = ["cosim_spec", "cosim_system", "sampled", "campaign"]


def bench(workload, trace, seed=1, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


def result(workload, trace, seed=1):
    out = bench(workload, trace, seed)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    if not r["correct"]:
        raise AssertionError(f"{workload}: incorrect\n{out.stderr}")
    return {k: v["value"] for k, v in r["metrics"].items()}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Exactness(unittest.TestCase):
    """Deterministic metrics repeat bit for bit across runs."""

    def test_end_to_end(self):
        for w in WORKLOADS:
            a, b = result(w, 0), result(w, 0)
            for m in ["ipc", "alloc_words_per_cycle"]:
                self.assertEqual(a[m], b[m], f"{w} {m}")

    def test_per_layer_counts(self):
        exact_units = {"count", "cycles", "bytes", "words/cycle"}
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        for w in WORKLOADS:
            a, b = result(w, 1), result(w, 1)
            for name, unit in units.items():
                if unit in exact_units:
                    self.assertEqual(a[name], b[name], f"{w} {name}")


class HeapIsolation(unittest.TestCase):
    """Set-up time does not depend on the process that measures it."""

    def test_setup_agrees_across_processes(self):
        bound = next(m["bound"] for m in benchmark_spec()["end_to_end"]
                     if m["name"] == "setup_s")
        a = result("cosim_system", 0)["setup_s"]
        b = result("cosim_system", 0)["setup_s"]
        self.assertLessEqual(abs(a - b) / min(a, b), bound, (a, b))


class BareDirectory(unittest.TestCase):
    """Without the rest of the repository the benchmark gives no result."""

    def test_fails_without_library(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("_out"))
            out = bench("campaign", 0, cwd=d)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
