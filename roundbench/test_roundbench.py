#!/usr/bin/env python3
"""The round benchmark's own tests: a seconds-scale run of each workload.

Run from the repository root (builds the benchmark on first use):

    python3 roundbench/test_roundbench.py

For every workload in BENCHMARK.json it runs the benchmark command once
untraced and once traced, on the same seed, and asserts that

* the run is correct, with no failed round;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  of BENCHMARK.json is printed, with its unit;
* the traced run's labels equal the untraced labels, both inside the
  traced run and against the separate untraced run.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SEED = 7


def run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digests(lines):
    """The per-instance label digests of a run: one list untraced, two
    lists (untraced, traced) traced."""
    for line in lines:
        m = re.match(r"# labels digests (?:untraced )?([0-9a-f,]+)"
                     r"(?: traced ([0-9a-f,]+))?$", line)
        if m:
            return [d.split(",") for d in m.groups() if d]
    return []


class Workloads(unittest.TestCase):
    def check_metrics(self, result, specs):
        printed = result["metrics"]
        for m in specs:
            self.assertIn(m["name"], printed)
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))
        self.assertEqual(set(printed), {m["name"] for m in specs})

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, untraced = run(w["name"], 0)
                self.assertEqual(code, 0)
                self.assertTrue(untraced["correct"])
                self.assertEqual(untraced["failed"], 0)
                self.assertGreaterEqual(untraced["attempted"], 1)
                self.check_metrics(untraced, SPEC["end_to_end"])
                plain = digests(lines)

                code, lines, traced = run(w["name"], 1)
                self.assertEqual(code, 0)
                self.assertTrue(traced["correct"])
                self.assertEqual(traced["failed"], 0)
                self.assertGreaterEqual(traced["attempted"], 6)
                self.check_metrics(traced, SPEC["per_layer"])
                both = digests(lines)
                self.assertEqual(len(plain), 1)
                self.assertEqual(len(both), 2)
                self.assertEqual(len(plain[0]), 3)
                self.assertEqual(both[0], both[1], "traced labels differ")
                self.assertEqual(plain[0], both[1], "traced labels differ "
                                 "from the untraced run's")

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1"],
                     ["--seed", "1", "--seconds", "1"]):
            proc = subprocess.run(SPEC["command"] + args, cwd=ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=900,
                                  check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
