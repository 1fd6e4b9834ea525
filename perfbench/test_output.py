"""Tests of the benchmark command's printed output.

Run from anywhere: `python3 perfbench/test_output.py`. Every workload is
run in both modes for one short run, and the last line of its output is
parsed back into the metric names and units `BENCHMARK.json` declares.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run(root, *args):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)


class OutputTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        with open(SPEC) as f:
            spec = json.load(f)
        for workload in spec["workloads"]:
            for trace, table in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run(ROOT, "--workload", workload["name"], "--seed", "3",
                               "--seconds", "0", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertIsInstance(result["attempted"], int)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in table})
                    for name, metric in result["metrics"].items():
                        self.assertEqual(set(metric), {"value", "unit"}, name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        self.assertNotIsInstance(metric["value"], bool, name)
                        if trace == "0":
                            self.assertGreater(metric["value"], 0, name)

    def test_bad_arguments_exit_non_zero_without_a_result(self):
        proc = run(ROOT, "--workload", "no-such-workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_without_the_repository_it_exits_non_zero_without_a_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(SPEC, bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env_target = os.environ.pop("CARGO_TARGET_DIR", None)
            try:
                proc = run(bare, "--workload", "paper-day", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
            finally:
                if env_target is not None:
                    os.environ["CARGO_TARGET_DIR"] = env_target
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
