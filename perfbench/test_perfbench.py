"""Smoke test of the benchmark: every metric BENCHMARK.json names is printed
with its unit, on every workload, with and without tracing.

    python3 -m unittest discover -s perfbench

Runs the benchmark in smoke mode (tiny phases), so it checks the wiring, not
the numbers.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        bench = load_benchmark()
        for workload in bench["workloads"]:
            for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, lines = smoke(workload["name"], trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(l for l in lines if "CHECK" in l))
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in metrics}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, unit in expected.items():
                        self.assertTrue(any(re.match(rf"metric {re.escape(name)} .* {re.escape(unit)}$", l)
                                            for l in lines), f"{name} not printed with {unit}")
                    if trace:
                        self.assertTrue(any(l.startswith("stage table") for l in lines))
                        self.assertTrue(any("transport.client_path_us (remainder)" in l for l in lines))
                        self.assertTrue(any("tracing overhead" in l for l in lines))

    def test_workloads_describe_their_fixed_rate_and_limit(self):
        for workload in load_benchmark()["workloads"]:
            code, lines = smoke(workload["name"], 0)
            self.assertEqual(code, 0)
            header = next(l for l in lines if l.startswith("workload "))
            rate = re.search(r"fixed rate (\d+) ops/s", header).group(1)
            limit = re.search(r"p90 limit ([\d.]+) ms", header).group(1)
            self.assertIn(f"fixed rate {rate} ops/s", workload["why"])
            self.assertIn(f"p90 limit {limit} ms", workload["why"])

    def test_every_per_layer_metric_names_its_target(self):
        with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
            readme = f.read()
        for metric in load_benchmark()["per_layer"]:
            row = next((l for l in readme.splitlines() if l.startswith(f"| `{metric['name']}` |")), None)
            self.assertIsNotNone(row, metric["name"])
            cells = [c.strip() for c in row.strip("|").split("|")]
            self.assertEqual(cells[1], metric["unit"])
            self.assertTrue(cells[3] and cells[4], f"{metric['name']} lacks its target")


if __name__ == "__main__":
    unittest.main()
