#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on workloads shrunk to a few dozen nodes.

    python3 perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed, with its unit, for
every workload in both the untraced and the traced mode; that the correctness
checks pass on every workload; and that a deliberately mismatched fingerprint
fails the correctness check.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, lines, result = run(workload, trace)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    names = [m["name"] for m in SPEC[key]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for m in SPEC[key]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        # The human-readable table names the metric and its unit too.
                        self.assertTrue(
                            any(line.split()[:1] == [m["name"]] and
                                line.split()[-1] == m["unit"] for line in lines),
                            m["name"])

    def test_checks_pass_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 0)
                failures = [line for line in lines if line.startswith("CHECK FAILED")]
                self.assertEqual(failures, [])
                self.assertTrue(result["correct"])
                self.assertEqual(code, 0)

    def test_mismatched_fingerprint_fails_the_check(self):
        code, lines, result = run("consolidate-144", 0, "--corrupt-fingerprint")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("fingerprint of run " in line for line in lines))


if __name__ == "__main__":
    unittest.main()
