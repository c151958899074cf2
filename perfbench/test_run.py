"""Smoke test of the benchmark driver at test-scale inputs.

    python3 -m unittest perfbench/test_run.py

Every workload must report every metric BENCHMARK.json names, finite and
with its unit, with no failed operation; two traced runs must repeat
the counters that do not depend on how the engine schedules batches;
and the driver must refuse to report anything from a directory that
holds only the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Counters fixed by the inputs alone. The replay pool, prefix-miss and
# converge-exit counts depend on which worker claims which batch, so they
# are left out.
DETERMINISTIC_SUFFIXES = ("_runs",)
DETERMINISTIC = {
    "campaign.campaigns", "boundary.masked_folded", "store.records_appended",
}


def run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "test"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    return proc


class DriverSmokeTest(unittest.TestCase):
    def result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stderr)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return res["metrics"]

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e = self.result(w["name"], 0)
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                first, second = self.result(w["name"], 1), self.result(w["name"], 1)
                for name in first:
                    if name in DETERMINISTIC or name.endswith(DETERMINISTIC_SUFFIXES):
                        self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_refuses_without_the_program(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
