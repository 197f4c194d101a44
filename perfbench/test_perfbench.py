#!/usr/bin/env python3
"""Self-test of the benchmark: determinism per seed and a clean held-out seed.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py from the repository root with a short --seconds (the
time-boxed phases fall back to their minimum pass count), so the whole test
takes a few minutes.  It asserts that
  * two traced runs of the default seed report identical counts
    (spanner edges, oracle calls, pairs checked, repair counters), and
  * every run, on the default and on the held-out seed, passes its
    correctness checks with zero failed operations, and the default seed
    matches perfbench/pins.json.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kron_build", "geo_verify", "gnp_churn")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7777
SECONDS = "2"
COUNTS = ("core.oracle_calls", "core.arcs_traversed", "fault.pairs_checked",
          "service.repair_decisions", "service.repair_promotions",
          "service.repair_ball_vertices", "service.publishes")


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    extra, result = json.loads(lines[-2]), json.loads(lines[-1])
    return extra, result


class PerfbenchTest(unittest.TestCase):
    def assert_clean(self, result, what):
        self.assertTrue(result["correct"], what)
        self.assertEqual(result["failed"], 0, what)
        self.assertGreater(result["attempted"], 0, what)

    def test_default_seed_is_deterministic_and_pinned(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                extra0, first = run(workload, DEFAULT_SEED, 1)
                extra1, second = run(workload, DEFAULT_SEED, 1)
                self.assert_clean(first, workload)
                self.assert_clean(second, workload)
                self.assertTrue(extra0["provenance"]["pinned_seed"])
                self.assertEqual(extra0["checks"], extra1["checks"])
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                extra, e2e = run(workload, DEFAULT_SEED, 0)
                self.assert_clean(e2e, workload)
                self.assertTrue(extra["provenance"]["pinned_seed"])

    def test_held_out_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for trace in (0, 1):
                    _, result = run(workload, HELD_OUT_SEED, trace)
                    self.assert_clean(result, f"{workload} trace {trace}")


if __name__ == "__main__":
    unittest.main()
