#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from anywhere (takes a few minutes; builds like run.py does):

    python3 perfbench/test_perfbench.py

- the default-seed mm2_thrash reproduces apps::SetupMatMul exactly
  (51.081 modeled s, 1,341 pages in);
- two runs with one seed give identical modeled metrics and counters (the
  fingerprint), on every workload;
- a second seed keeps every modeled end-to-end metric within the bounds in
  BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as perfbench_run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
# Modeled metrics are simulated times and call counts; host times are not.
MODELED_UNITS = ("sim_s", "sim_ms", "count")
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]
          if m["unit"] in MODELED_UNITS}
BINARY = None


def setUpModule():
    global BINARY
    BINARY = perfbench_run.build()


def bench(*args):
    return subprocess.run([BINARY] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=170)


def run_once(workload, seed):
    """One pass over the run's workload instances: (fingerprint, metrics)."""
    p = bench("--workload", workload, "--seed", seed, "--seconds", 0,
              "--trace", 0)
    if p.returncode != 0:
        raise AssertionError("%s seed %d failed:\n%s%s"
                             % (workload, seed, p.stdout, p.stderr))
    lines = p.stdout.splitlines()
    fp = next(l for l in lines if l.startswith("fingerprint "))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return json.loads(fp[len("fingerprint "):]), metrics


class SelfCheck(unittest.TestCase):
    def test_mm2_thrash_reproduces_apps_path(self):
        p = bench("--selfcheck")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("selfcheck ok", p.stdout)

    def test_unknown_workload_is_refused(self):
        p = bench("--workload", "nope", "--seconds", 0)
        self.assertNotEqual(p.returncode, 0)


class Determinism(unittest.TestCase):
    def check(self, workload):
        fp1, m1 = run_once(workload, 101)
        fp2, m2 = run_once(workload, 101)
        self.assertEqual(fp1, fp2, "same seed, different modeled results")
        for name in BOUNDS:
            self.assertEqual(m1[name], m2[name], name)
        _, m3 = run_once(workload, 202)
        for name, bound in BOUNDS.items():
            change = abs(m3[name] - m1[name]) / m1[name]
            self.assertLessEqual(change, bound,
                                 "%s moved %.3f between seeds" % (name, change))

    def test_mm2_thrash(self):
        self.check("mm2_thrash")

    def test_mm1_hetero(self):
        self.check("mm1_hetero")

    def test_fleet_zipf(self):
        self.check("fleet_zipf")


if __name__ == "__main__":
    unittest.main()
